// SliceSweep against its oracle: the line-by-line CacheHierarchy must
// serve every bulk-op sweep from exactly the same levels, op by op.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/bfs_bitmap.hpp"
#include "apps/bitmap_index.hpp"
#include "apps/graph.hpp"
#include "apps/vector_workload.hpp"
#include "cache_oracle.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "sim/cache.hpp"
#include "sim/cpu_model.hpp"

namespace pinatubo::sim {
namespace {

CacheLevelConfig tiny(const char* name, std::uint64_t size, unsigned assoc) {
  return {name, size, assoc, 64, 1.0, 100.0, 100.0};
}

/// The reference: every line of every stream through the full hierarchy.
std::vector<std::uint64_t> oracle_sweep(CacheHierarchy& h,
                                        const std::vector<std::uint64_t>& bases,
                                        std::uint64_t lines) {
  h.reset_stats();
  for (std::uint64_t i = 0; i < lines; ++i)
    for (std::size_t s = 0; s < bases.size(); ++s)
      h.access(bases[s] + i * h.line_bytes(), s + 1 == bases.size());
  return h.served_lines();
}

/// SliceSweep's counts in the oracle's shape: levels() + 1 entries.
std::vector<std::uint64_t> slice_sweep(SliceSweep& s,
                                       const std::vector<std::uint64_t>& bases,
                                       std::uint64_t lines) {
  const SliceSweep::Served served = s.sweep(bases, lines);
  for (unsigned l = s.levels() + 1; l < served.size(); ++l)
    EXPECT_EQ(served[l], 0u) << "past memory, index " << l;
  return {served.begin(), served.begin() + s.levels() + 1};
}

/// Drives both models through ops as SimdCpuModel::bulk_op would and
/// counts the ops whose per-level counts differ.
struct Differential {
  CacheHierarchy oracle{haswell_cache_config()};
  SliceSweep sweep{haswell_cache_config()};
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;

  void run(const TraceOp& op) {
    BulkSweep s;
    bulk_sweep(op, sweep.line_bytes(), s);
    if (s.streaming()) return;  // closed form: the cache is not touched
    ++compared;
    if (oracle_sweep(oracle, s.bases, s.lines) !=
        slice_sweep(sweep, s.bases, s.lines))
      ++mismatches;
  }
  void flush() {
    oracle.flush();
    sweep.flush();
  }
};

/// The reduced Table-1 suite: the Vector specs at 2^-8 of their vectors,
/// the three graph presets at 2^17 nodes, Fastbit-240 on 2^18 rows.
std::vector<OpTrace> reduced_suite(std::uint64_t seed) {
  std::vector<OpTrace> out;
  for (apps::VectorSpec spec : apps::paper_vector_specs()) {
    spec.count_log -= std::min(spec.count_log - spec.rows_log, 8u);
    out.push_back(apps::vector_trace(spec, seed));
  }
  for (apps::DatasetPreset preset :
       {apps::dblp2010_like(), apps::eswiki2013_like(),
        apps::amazon2008_like()}) {
    preset.gen.nodes = 1u << 17;
    out.push_back(apps::bitmap_bfs(apps::build_dataset(preset, seed)).trace);
  }
  apps::IndexConfig cfg;
  cfg.rows = 1ull << 18;
  const apps::BitmapIndex index(cfg, seed);
  out.push_back(
      apps::run_queries(index, apps::generate_queries(cfg, 240, seed + 240))
          .trace);
  return out;
}

TEST(SliceSweep, MatchesOracleOnReducedPaperSuite) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Differential d;
    for (const auto& trace : reduced_suite(seed)) {
      d.flush();  // SimdBackend::execute starts every trace cold
      for (const auto& op : trace.ops) d.run(op);
    }
    EXPECT_GT(d.compared, 1000u) << "seed " << seed;
    EXPECT_EQ(d.mismatches, 0u) << "seed " << seed;
  }
}

TEST(SliceSweep, MatchesOracleOnAdversarialOps) {
  // Sub-line tails, non-power-of-two sizes, 1-40 streams, dst aliasing a
  // source, ids reused at several sizes, working sets from L1-resident to
  // beyond L3, and a flush part-way through.
  Rng rng(2024);
  Differential d;
  const unsigned n_ops = 1200;
  for (unsigned k = 0; k < n_ops; ++k) {
    if (k == n_ops / 2) d.flush();
    TraceOp op;
    const std::uint64_t pick = rng.uniform_u64(20);
    if (pick < 8) {
      op.bits = 1 + rng.uniform_u64(64 * 512);  // < 64 lines: idle slices
    } else if (pick < 19) {
      op.bits = 1 + rng.uniform_u64(600 * 512);
    } else {
      op.bits = (1ull << 21) + rng.uniform_u64(1ull << 20);  // 256+ KiB
    }
    const std::uint64_t n_srcs = 1 + rng.uniform_u64(39);
    for (std::uint64_t s = 0; s < n_srcs; ++s)
      op.srcs.push_back(rng.uniform_u64(48));
    op.dst = rng.uniform_u64(3) == 0 ? op.srcs[rng.uniform_u64(n_srcs)]
                                     : rng.uniform_u64(48);
    d.run(op);
  }
  // Explicitly: one id at two sizes back to back, in both orders.
  for (const std::uint64_t bits : {4096ull * 8 * 3, 700ull * 64, 4096ull * 8}) {
    TraceOp op;
    op.srcs = {7, 8};
    op.dst = 7;
    op.bits = bits;
    d.run(op);
  }
  EXPECT_GT(d.compared, n_ops / 2);
  EXPECT_EQ(d.mismatches, 0u);
}

TEST(SliceSweep, MatchesOracleOnNestedTinyConfig) {
  // 2 / 8 / 32 sets: two slices, aligned to 128 B.
  const std::vector<CacheLevelConfig> cfg = {
      tiny("L1", 128, 1), tiny("L2", 1024, 2), tiny("L3", 8192, 4)};
  CacheHierarchy oracle(cfg);
  SliceSweep sweep(cfg);
  ASSERT_EQ(sweep.alignment_bytes(), 128u);
  Rng rng(5);
  for (unsigned k = 0; k < 3000; ++k) {
    if (k == 1500) {
      oracle.flush();
      sweep.flush();
    }
    std::vector<std::uint64_t> bases(1 + rng.uniform_u64(6));
    for (auto& b : bases) b = rng.uniform_u64(96) * 128;
    const std::uint64_t lines = 1 + rng.uniform_u64(200);
    ASSERT_EQ(slice_sweep(sweep, bases, lines),
              oracle_sweep(oracle, bases, lines))
        << "sweep " << k;
  }
}

TEST(SliceSweep, MatchesOracleOnOddAssociativity) {
  // 4 / 16 / 64 sets of 3, 6 and 16 ways: no level has the 8- or 12-way
  // fixed-width probe.  Four slices, aligned to 256 B.
  const std::vector<CacheLevelConfig> cfg = {tiny("L1", 4 * 3 * 64, 3),
                                             tiny("L2", 16 * 6 * 64, 6),
                                             tiny("L3", 64 * 16 * 64, 16)};
  CacheHierarchy oracle(cfg);
  SliceSweep sweep(cfg);
  ASSERT_EQ(sweep.alignment_bytes(), 256u);
  Rng rng(17);
  std::vector<std::uint64_t> total(cfg.size() + 1, 0);
  for (unsigned k = 0; k < 2000; ++k) {
    std::vector<std::uint64_t> bases(1 + rng.uniform_u64(5));
    for (auto& b : bases) b = rng.uniform_u64(64) * 256;
    // The first 600 sweeps keep a single class (lines a multiple of 4)
    // and fill every level; the later ones cut that long-lived class.
    std::uint64_t lines = 4 * (1 + rng.uniform_u64(80));
    if (k >= 600) lines += rng.uniform_u64(4);
    const auto served = oracle_sweep(oracle, bases, lines);
    ASSERT_EQ(slice_sweep(sweep, bases, lines), served) << "sweep " << k;
    for (std::size_t l = 0; l < served.size(); ++l) total[l] += served[l];
  }
  for (std::size_t l = 0; l < total.size(); ++l)
    EXPECT_GT(total[l], 0u) << "level " << l << " never served a line";
}

TEST(SliceSweep, CountsEveryAccessOnce) {
  SliceSweep s(haswell_cache_config());
  const std::vector<std::uint64_t> bases = {0, 1 << 20, 2 << 20};
  const auto cold = slice_sweep(s, bases, 100);
  EXPECT_EQ(cold.back(), 300u);  // all from memory
  const auto warm = slice_sweep(s, bases, 100);
  EXPECT_EQ(warm[0], 300u);  // 19 KiB: L1-resident
}

TEST(SliceSweep, RejectsWhatItCannotPriceExactly) {
  // L2 has fewer sets than L1: the sets do not nest.
  EXPECT_THROW(SliceSweep({tiny("L1", 1024, 2), tiny("L2", 1024, 4)}), Error);
  CacheLevelConfig wide = tiny("L2", 8192, 4);
  wide.line_bytes = 128;
  EXPECT_THROW(SliceSweep({tiny("L1", 1024, 2), wide}), Error);
  SliceSweep s(haswell_cache_config());
  const std::vector<std::uint64_t> unaligned = {4096, 64};
  EXPECT_THROW(s.sweep(unaligned, 8), Error);  // base not slice-aligned
  // More levels than SliceSweep::Served has room for.
  EXPECT_THROW(SliceSweep({tiny("L1", 128, 1), tiny("L2", 1024, 2),
                           tiny("L3", 8192, 4), tiny("L4", 65536, 8),
                           tiny("L5", 524288, 16)}),
               Error);
  // One-byte lines in one L1 set make the tag the address itself: a sweep
  // may run up to, but not onto, the empty-way tag.
  SliceSweep bytes({{"L1", 2, 2, 1, 1.0, 100.0, 100.0}});
  const std::vector<std::uint64_t> top = {~std::uint64_t{0} - 8};
  EXPECT_NO_THROW(bytes.sweep(top, 8));
  EXPECT_THROW(bytes.sweep(top, 9), Error);
}

}  // namespace
}  // namespace pinatubo::sim
