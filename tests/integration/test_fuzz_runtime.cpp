// Randomized differential testing: long random op sequences executed
// through the PIM runtime must match a plain host-side BitVector oracle,
// across vector shapes (sub-stripe, stripe, full-row, multi-group),
// technologies, allocation policies, op mixes, sense fidelities and
// thread counts.  The oracle is always the single-threaded host result,
// so the analog/multi-thread cases double as determinism checks.
#include <gtest/gtest.h>

#include <map>

#include "common/parallel.hpp"
#include "pinatubo/driver.hpp"

namespace pinatubo {
namespace {

struct FuzzParams {
  nvm::Tech tech;
  core::AllocPolicy policy;
  std::uint64_t bits;
  std::uint64_t seed;
  /// kAnalog is only fuzzed on PCM, whose ratio-100 cells give the read-
  /// based shapes (OR-n, XOR micro-steps, INV) >= 19 sigma of sense margin:
  /// sampled variation can never flip such a lane, so the exact-match host
  /// oracle still applies.  AND-2 is excluded from analog runs (see the op
  /// picker) and other technologies stay nominal — their few-sigma margins
  /// are exercised by the statistical margin tests instead.
  mem::SenseFidelity fidelity = mem::SenseFidelity::kNominal;
  unsigned threads = 1;  ///< global pool size while the sequence runs
};

class RuntimeFuzz : public ::testing::TestWithParam<FuzzParams> {};

/// Pins the global pool to `threads` for the test's scope.
class ScopedThreads {
 public:
  explicit ScopedThreads(unsigned threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~ScopedThreads() { ThreadPool::set_global_threads(0); }
};

TEST_P(RuntimeFuzz, MatchesHostOracle) {
  const auto [tech, policy, bits, seed, fidelity, threads] = GetParam();
  const ScopedThreads pool(threads);
  core::PimRuntime::Options opts;
  opts.tech = tech;
  opts.policy = policy;
  opts.fidelity = fidelity;
  opts.record_commands = true;
  core::PimRuntime pim(mem::Geometry{}, opts);
  Rng rng(seed);

  constexpr int kVectors = 24;
  std::vector<core::PimRuntime::Handle> handles;
  std::vector<BitVector> oracle;
  for (int i = 0; i < kVectors; ++i) {
    handles.push_back(pim.pim_malloc(bits));
    oracle.push_back(BitVector::random(bits, rng.uniform(0.05, 0.95), rng));
    pim.pim_write(handles.back(), oracle.back());
  }

  // Randomly toggle batch windows: enqueued ops execute eagerly in
  // program order, so the oracle needs no special handling — only the
  // pricing defers to the barrier.
  bool batching = false;
  for (int step = 0; step < 60; ++step) {
    if (!batching && rng.uniform_u64(4) == 0) {
      pim.pim_begin();
      batching = true;
    }
    // AND-2's boundary current ratio is ~2 on every technology (2*g_low vs
    // g_low + g_high), leaving only ~5 sigma of sampled margin — a few
    // lane flips are expected over the millions of analog AND lanes a run
    // senses, so the exact-match oracle can only fuzz the >= 19-sigma
    // shapes under kAnalog.
    auto op = static_cast<BitOp>(rng.uniform_u64(4));
    if (fidelity == mem::SenseFidelity::kAnalog && op == BitOp::kAnd)
      op = BitOp::kOr;
    const auto dst = static_cast<std::size_t>(rng.uniform_u64(kVectors));
    std::vector<core::PimRuntime::Handle> srcs;
    std::vector<std::size_t> src_idx;
    if (op == BitOp::kInv) {
      std::size_t s;
      do {
        s = static_cast<std::size_t>(rng.uniform_u64(kVectors));
      } while (s == dst);  // keep INV out-of-place for a simple oracle
      src_idx.push_back(s);
    } else {
      const auto n = 2 + rng.uniform_u64(op == BitOp::kOr ? 6 : 2);
      while (src_idx.size() < n) {
        const auto s = static_cast<std::size_t>(rng.uniform_u64(kVectors));
        bool dup = false;
        for (const auto x : src_idx) dup |= x == s;
        if (!dup) src_idx.push_back(s);
      }
    }
    for (const auto s : src_idx) srcs.push_back(handles[s]);

    pim.pim_op(op, srcs, handles[dst]);
    std::vector<const BitVector*> ptrs;
    for (const auto s : src_idx) ptrs.push_back(&oracle[s]);
    oracle[dst] = BitVector::reduce(op, ptrs);

    if (batching && rng.uniform_u64(3) == 0) {
      pim.pim_barrier();
      batching = false;
    }

    // Occasionally free + reallocate a vector (slot reuse paths).
    if (step % 17 == 9) {
      const auto victim = static_cast<std::size_t>(rng.uniform_u64(kVectors));
      pim.pim_free(handles[victim]);
      handles[victim] = pim.pim_malloc(bits);
      oracle[victim] = BitVector::random(bits, 0.5, rng);
      pim.pim_write(handles[victim], oracle[victim]);
    }
  }

  if (batching) pim.pim_barrier();

  for (int i = 0; i < kVectors; ++i)
    ASSERT_EQ(pim.pim_read(handles[i]), oracle[i]) << "vector " << i;
  EXPECT_GT(pim.cost().time_ns, 0.0);
  EXPECT_GT(pim.stats().batches, 0u);
  // Every lowered step sequence the run recorded obeys the DDR-PIM protocol.
  const core::PinatuboCostModel model(pim.geometry(), tech);
  const verify::Report rep =
      verify::Verifier(model).check_commands(pim.commands());
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RuntimeFuzz,
    ::testing::Values(
        // Sub-stripe vectors.
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware, 777, 1},
        // Exactly one stripe.
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware, 1ull << 14, 2},
        // Multi-stripe, sub-row.
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware, 3u << 14, 3},
        // Full row group.
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware, 1ull << 19, 4},
        // Multi-group (rank-mirrored).
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware,
                   (1ull << 20) + 12345, 5},
        // Naive policy: everything goes through the buffer paths.
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kNaive, 1ull << 14, 6},
        // STT-MRAM: 2-row chains everywhere.
        FuzzParams{nvm::Tech::kSttMram, core::AllocPolicy::kPimAware, 5000, 7},
        // ReRAM.
        FuzzParams{nvm::Tech::kReRam, core::AllocPolicy::kPimAware, 9999, 8},
        // Analog sensing (PCM only, wide margins => oracle-exact) across
        // thread counts: the batched sampled kernel must agree with the
        // nominal host oracle bit for bit regardless of the pool size.
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware, 1ull << 14,
                   9, mem::SenseFidelity::kAnalog, 1},
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware, 3u << 14,
                   10, mem::SenseFidelity::kAnalog, 3},
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware,
                   (1ull << 19) + 777, 11, mem::SenseFidelity::kAnalog, 4},
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kNaive, 1ull << 14, 12,
                   mem::SenseFidelity::kAnalog, 2},
        // Nominal fidelity on a multi-thread pool (engine-level sharding).
        FuzzParams{nvm::Tech::kPcm, core::AllocPolicy::kPimAware,
                   (1ull << 20) + 12345, 13, mem::SenseFidelity::kNominal,
                   2}));

}  // namespace
}  // namespace pinatubo
