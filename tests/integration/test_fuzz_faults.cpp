// Fault-recovery fuzz: randomized fault maps x op streams x technologies,
// always with exact detection on — the recovered result must be
// bit-identical to a host-side golden model, and bit-identical again at a
// different thread count and under batched submission.  This is the
// subsystem's core contract: whatever the injected faults do, a
// detection-enabled runtime NEVER returns a wrong answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"

namespace pinatubo {
namespace {

using core::PimRuntime;

struct TrialOutcome {
  std::vector<BitVector> finals;
  std::uint64_t wrong = 0;
  std::uint64_t detected = 0, retries = 0, deescalations = 0, remaps = 0,
                fallbacks = 0;
  /// Protocol diagnostics over the recorded command stream (ladder
  /// retries, verify folds and remaps included).
  std::string protocol;
};

/// Draws a random (but trial-seeded) fault policy.  Detection stays exact
/// (read-back on both paths) — the knobs fuzzed are the fault mechanisms
/// and the ladder shape, not the safety contract.
reliability::Policy random_policy(Rng& rng) {
  reliability::Policy p;
  p.fault.enabled = true;
  p.fault.seed = rng.next();
  const double bers[] = {0.0, 1e-5, 1e-4};
  p.fault.sense_ber = bers[rng.next() % 3];
  p.fault.stuck_rate = (rng.next() % 2) ? 1e-7 : 0.0;
  p.fault.drift_rate = (rng.next() % 2) ? 0.01 : 0.0;
  if (rng.next() % 2) {
    p.fault.endurance_cycles = 30;
    p.fault.wearout_rate = 0.02;
  }
  p.verify.sense = reliability::SenseVerify::kReadback;
  p.verify.writes = reliability::WriteVerify::kReadback;
  p.retry.max_resense = static_cast<unsigned>(rng.next() % 3);
  p.retry.deescalate = (rng.next() % 2) != 0;
  p.retry.spare_rows = 16;
  return p;
}

TrialOutcome run_trial(std::uint64_t trial, unsigned threads, bool batched) {
  ThreadPool::set_global_threads(threads);
  Rng cfg_rng(1000 + trial);
  PimRuntime::Options opts;
  const nvm::Tech techs[] = {nvm::Tech::kPcm, nvm::Tech::kReRam,
                             nvm::Tech::kSttMram};
  opts.tech = techs[cfg_rng.next() % 3];
  opts.max_rows = (cfg_rng.next() % 2) ? 128 : 2;
  opts.reliability = random_policy(cfg_rng);
  opts.record_commands = true;
  PimRuntime pim({}, opts);

  const std::uint64_t bits = pim.geometry().sense_step_bits();
  const std::size_t n_vecs = 8;
  Rng rng(500 + trial);  // op-stream seed, independent of the fault seed
  std::vector<PimRuntime::Handle> vecs(n_vecs);
  std::vector<BitVector> golden(n_vecs);
  for (std::size_t i = 0; i < n_vecs; ++i) {
    vecs[i] = pim.pim_malloc(bits);
    golden[i] = BitVector::random(bits, 0.3, rng);
    pim.pim_write(vecs[i], golden[i]);
  }

  TrialOutcome out;
  const unsigned n_ops = 30;
  for (unsigned it = 0; it < n_ops; ++it) {
    if (batched && it % 5 == 0) pim.pim_begin();
    const unsigned pick = static_cast<unsigned>(rng.next() % 8);
    BitOp op = BitOp::kOr;
    std::size_t fan = 2 + rng.next() % 5;
    if (pick == 5) op = BitOp::kAnd, fan = 2;
    if (pick == 6) op = BitOp::kXor, fan = 2;
    if (pick == 7) op = BitOp::kInv, fan = 1;
    std::vector<std::size_t> idx(n_vecs);
    for (std::size_t i = 0; i < n_vecs; ++i) idx[i] = i;
    for (std::size_t i = 0; i < fan; ++i)
      std::swap(idx[i], idx[i + rng.next() % (n_vecs - i)]);
    const std::size_t dst = idx[rng.next() % fan];
    std::vector<PimRuntime::Handle> srcs;
    std::vector<const BitVector*> gsrcs;
    for (std::size_t i = 0; i < fan; ++i) {
      srcs.push_back(vecs[idx[i]]);
      gsrcs.push_back(&golden[idx[i]]);
    }
    pim.pim_op(op, srcs, vecs[dst]);
    golden[dst] = BitVector::reduce(op, gsrcs);
    if (pim.pim_read(vecs[dst]) != golden[dst]) ++out.wrong;
    if (batched && (it % 5 == 4 || it + 1 == n_ops)) pim.pim_barrier();
  }
  for (const auto h : vecs) out.finals.push_back(pim.pim_read(h));
  const auto& st = pim.stats();
  out.detected = st.detected_faults;
  out.retries = st.retries;
  out.deescalations = st.deescalations;
  out.remaps = st.remaps;
  out.fallbacks = st.fallbacks;
  const core::PinatuboCostModel model(pim.geometry(), opts.tech);
  out.protocol =
      verify::Verifier(model).check_commands(pim.commands()).to_string();
  ThreadPool::set_global_threads(0);
  return out;
}

class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RecoveredResultsMatchGoldenAtAnyThreadCount) {
  const std::uint64_t trial = GetParam();
  const auto base = run_trial(trial, 1, /*batched=*/false);
  EXPECT_EQ(base.wrong, 0u) << "trial " << trial;
  EXPECT_EQ(base.protocol, "") << "trial " << trial;

  const auto threaded = run_trial(trial, 5, /*batched=*/false);
  EXPECT_EQ(threaded.finals, base.finals);
  EXPECT_EQ(threaded.wrong, 0u);
  EXPECT_EQ(threaded.detected, base.detected);
  EXPECT_EQ(threaded.retries, base.retries);
  EXPECT_EQ(threaded.deescalations, base.deescalations);
  EXPECT_EQ(threaded.remaps, base.remaps);
  EXPECT_EQ(threaded.fallbacks, base.fallbacks);
  EXPECT_EQ(threaded.protocol, "");

  const auto batched = run_trial(trial, 3, /*batched=*/true);
  EXPECT_EQ(batched.finals, base.finals);
  EXPECT_EQ(batched.wrong, 0u);
  EXPECT_EQ(batched.detected, base.detected);
  EXPECT_EQ(batched.fallbacks, base.fallbacks);
  EXPECT_EQ(batched.protocol, "");
}

INSTANTIATE_TEST_SUITE_P(Trials, FaultFuzz,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(FaultFuzz, SomeTrialActuallyInjectsFaults) {
  // Sanity on the fuzz corpus itself: across the trials, faults must be
  // detected somewhere — otherwise the suite degenerated to a no-op.
  std::uint64_t detected = 0;
  for (std::uint64_t t = 0; t < 8; ++t)
    detected += run_trial(t, 1, false).detected;
  EXPECT_GT(detected, 0u);
}

}  // namespace
}  // namespace pinatubo
