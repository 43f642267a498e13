// End-to-end integration tests: applications executed THROUGH the
// simulated Pinatubo memory (driver + allocator + scheduler + sensing),
// cross-checked against pure-CPU references; plus cross-backend
// consistency of the evaluation pipeline.
#include <gtest/gtest.h>

#include <limits>
#include <queue>

#include "apps/bitmap_index.hpp"
#include "apps/graph.hpp"
#include "apps/workloads.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/driver.hpp"
#include "pinatubo/replay.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/sdram_backend.hpp"
#include "sim/simd_backend.hpp"

namespace pinatubo {
namespace {

TEST(EndToEnd, PimBfsMatchesCpuBfs) {
  apps::GraphGenParams p;
  p.nodes = 4096;
  p.avg_degree = 6;
  p.communities = 3;
  p.bridge_edges = 8;
  Rng rng(9);
  const auto g = apps::generate_graph(p, rng);

  // Reference.
  std::vector<bool> cpu_visited(g.nodes(), false);
  std::queue<std::uint32_t> q;
  cpu_visited[0] = true;
  q.push(0);
  while (!q.empty()) {
    const auto v = q.front();
    q.pop();
    const auto [b, e] = g.neighbors(v);
    for (const auto* w = b; w != e; ++w)
      if (!cpu_visited[*w]) {
        cpu_visited[*w] = true;
        q.push(*w);
      }
  }

  // PIM execution.
  core::PimRuntime pim;
  const unsigned P = 8;
  std::vector<core::PimRuntime::Handle> partial(P);
  for (auto& h : partial) h = pim.pim_malloc(g.nodes());
  const auto visited = pim.pim_malloc(g.nodes());
  const auto next = pim.pim_malloc(g.nodes());
  BitVector init(g.nodes());
  init.set(0);
  pim.pim_write(visited, init);

  BitVector frontier = init;
  const std::uint32_t span = (g.nodes() + P - 1) / P;
  while (frontier.any()) {
    std::vector<BitVector> parts(P, BitVector(g.nodes()));
    std::vector<core::PimRuntime::Handle> dirty;
    frontier.for_each_set([&](std::size_t v) {
      const auto [b, e] = g.neighbors(static_cast<std::uint32_t>(v));
      for (const auto* w = b; w != e; ++w)
        parts[static_cast<std::uint32_t>(v) / span].set(*w);
    });
    for (unsigned pi = 0; pi < P; ++pi)
      if (parts[pi].any()) {
        pim.pim_write(partial[pi], parts[pi]);
        dirty.push_back(partial[pi]);
      }
    if (dirty.empty()) break;
    if (dirty.size() >= 2) pim.pim_op(BitOp::kOr, dirty, dirty.front());
    pim.pim_op(BitOp::kInv, {visited}, next);
    pim.pim_op(BitOp::kAnd, {next, dirty.front()}, next);
    pim.pim_op(BitOp::kOr, {visited, next}, visited);
    frontier = pim.pim_read(next);
    for (const auto h : dirty) pim.pim_write(h, BitVector(g.nodes()));
  }

  const auto pim_visited = pim.pim_read(visited);
  for (std::uint32_t v = 0; v < g.nodes(); ++v)
    ASSERT_EQ(pim_visited.get(v), cpu_visited[v]) << "vertex " << v;
  EXPECT_GT(pim.stats().intra_steps, 0u);
}

TEST(EndToEnd, PimQueriesMatchRawScan) {
  apps::IndexConfig cfg;
  cfg.rows = 1ull << 12;
  const apps::BitmapIndex index(cfg, 21);
  core::PimRuntime pim;

  const std::uint64_t block = 2ull * cfg.bins + cfg.scratch_per_pair;
  std::vector<core::PimRuntime::Handle> by_id((cfg.attributes / 2) * block);
  for (auto& h : by_id) h = pim.pim_malloc(cfg.rows);
  for (unsigned a = 0; a < cfg.attributes; ++a)
    for (unsigned b = 0; b < cfg.bins; ++b)
      pim.pim_write(by_id[index.bitmap_id(a, b)], index.bin_bitmap(a, b));

  for (const auto& qy : apps::generate_queries(cfg, 25, 5)) {
    std::vector<unsigned> use(cfg.attributes / 2 + 1, 0);
    std::vector<core::PimRuntime::Handle> preds;
    for (const auto& p : qy.preds) {
      const auto slot = by_id[index.scratch_id(p.attr, use[p.attr / 2]++)];
      if (p.hi_bin > p.lo_bin) {
        std::vector<core::PimRuntime::Handle> bins;
        for (unsigned b = p.lo_bin; b <= p.hi_bin; ++b)
          bins.push_back(by_id[index.bitmap_id(p.attr, b)]);
        pim.pim_op(BitOp::kOr, bins, slot);
        if (p.negate) pim.pim_op(BitOp::kInv, {slot}, slot);
        preds.push_back(slot);
      } else if (p.negate) {
        pim.pim_op(BitOp::kInv, {by_id[index.bitmap_id(p.attr, p.lo_bin)]},
                   slot);
        preds.push_back(slot);
      } else {
        preds.push_back(by_id[index.bitmap_id(p.attr, p.lo_bin)]);
      }
    }
    const auto out =
        by_id[index.scratch_id(qy.preds[0].attr, use[qy.preds[0].attr / 2]++)];
    pim.pim_op(BitOp::kAnd, {preds[0], preds[1]}, out);
    for (std::size_t i = 2; i < preds.size(); ++i)
      pim.pim_op(BitOp::kAnd, {out, preds[i]}, out);
    EXPECT_EQ(pim.pim_read(out).popcount(),
              apps::count_matches_reference(index, qy));
  }
}

TEST(EndToEnd, SttRuntimeFallsBackGracefully) {
  // On STT-MRAM the same 8-operand OR must still compute correctly via
  // 2-row chains (the margin-derived limit), just more slowly.
  core::PimRuntime::Options opts;
  opts.tech = nvm::Tech::kSttMram;
  core::PimRuntime stt(mem::Geometry{}, opts);
  core::PimRuntime pcm;
  Rng rng(3);
  const std::uint64_t bits = 4096;
  BitVector expect(bits);
  std::vector<core::PimRuntime::Handle> hs, hp;
  for (int i = 0; i < 8; ++i) {
    const auto v = BitVector::random(bits, 0.2, rng);
    expect |= v;
    hs.push_back(stt.pim_malloc(bits));
    stt.pim_write(hs.back(), v);
    hp.push_back(pcm.pim_malloc(bits));
    pcm.pim_write(hp.back(), v);
  }
  stt.pim_op(BitOp::kOr, hs, hs.back());
  pcm.pim_op(BitOp::kOr, hp, hp.back());
  EXPECT_EQ(stt.pim_read(hs.back()), expect);
  EXPECT_EQ(pcm.pim_read(hp.back()), expect);
  // Chained STT execution: 7 activations vs 1, proportionally slower.
  EXPECT_EQ(stt.stats().intra_steps, 7u);
  EXPECT_EQ(pcm.stats().intra_steps, 1u);
  EXPECT_GT(stt.cost().time_ns, 3 * pcm.cost().time_ns);
}

TEST(EndToEnd, WorkloadSuiteIsWellFormed) {
  const auto workloads = apps::paper_workloads(1.0 / 64);
  ASSERT_EQ(workloads.size(), 11u);
  EXPECT_EQ(workloads[0].group, "Vector");
  EXPECT_EQ(workloads[5].group, "Graph");
  EXPECT_EQ(workloads[8].group, "Fastbit");
  for (const auto& w : workloads) {
    EXPECT_FALSE(w.trace.ops.empty()) << w.name;
    EXPECT_GT(w.trace.result_density, 0.0) << w.name;
    EXPECT_LE(w.trace.result_density, 1.0) << w.name;
  }
}

TEST(EndToEnd, AllBackendsPriceTheSuite) {
  const auto workloads = apps::paper_workloads(1.0 / 64);
  sim::SimdBackend simd(sim::MemKind::kPcm);
  sim::SdramBackend sdram;
  sim::AcPimBackend acpim;
  core::PinatuboBackend pin({}, {nvm::Tech::kPcm, 128});
  for (auto* backend : std::initializer_list<sim::Backend*>{
           &simd, &sdram, &acpim, &pin}) {
    for (const auto& w : workloads) {
      const auto r = backend->execute(w.trace);
      EXPECT_GT(r.bitwise.time_ns, 0.0) << backend->name() << "/" << w.name;
      EXPECT_GT(r.bitwise.energy.total_pj(), 0.0)
          << backend->name() << "/" << w.name;
    }
  }
}

TEST(EndToEnd, BatchedExecutionBitIdenticalToSync) {
  // The same random op program, once synchronous and once with a
  // pim_begin/pim_barrier window around every run of 8 ops, must leave
  // all vectors bit-identical; batching may only shrink the makespan.
  core::PimRuntime sync, batched;
  Rng rng(42);
  const std::uint64_t bits = (1ull << 20) + 777;  // multi-group, ragged tail
  constexpr int kVectors = 10;
  std::vector<core::PimRuntime::Handle> hs, hb;
  for (int i = 0; i < kVectors; ++i) {
    hs.push_back(sync.pim_malloc(bits));
    hb.push_back(batched.pim_malloc(bits));
    const auto v = BitVector::random(bits, rng.uniform(0.1, 0.9), rng);
    sync.pim_write(hs.back(), v);
    batched.pim_write(hb.back(), v);
  }
  for (int step = 0; step < 24; ++step) {
    if (step % 8 == 0) batched.pim_begin();
    const auto op = static_cast<BitOp>(rng.uniform_u64(4));
    const auto dst = static_cast<std::size_t>(rng.uniform_u64(kVectors));
    std::vector<std::size_t> src_idx;
    if (op == BitOp::kInv) {
      std::size_t s;
      do {
        s = static_cast<std::size_t>(rng.uniform_u64(kVectors));
      } while (s == dst);
      src_idx.push_back(s);
    } else {
      while (src_idx.size() < 2) {
        const auto s = static_cast<std::size_t>(rng.uniform_u64(kVectors));
        bool dup = false;
        for (const auto x : src_idx) dup |= x == s;
        if (!dup) src_idx.push_back(s);
      }
    }
    std::vector<core::PimRuntime::Handle> ss, sb;
    for (const auto s : src_idx) {
      ss.push_back(hs[s]);
      sb.push_back(hb[s]);
    }
    sync.pim_op(op, ss, hs[dst]);
    batched.pim_op(op, sb, hb[dst]);
    if (step % 8 == 7) batched.pim_barrier();
  }
  if (batched.in_batch()) batched.pim_barrier();

  for (int i = 0; i < kVectors; ++i)
    ASSERT_EQ(batched.pim_read(hb[static_cast<std::size_t>(i)]),
              sync.pim_read(hs[static_cast<std::size_t>(i)]))
        << "vector " << i;
  EXPECT_LE(batched.cost().time_ns, sync.cost().time_ns + 1e-9);
  EXPECT_NEAR(batched.cost().energy.total_pj(),
              sync.cost().energy.total_pj(),
              1e-6 * sync.cost().energy.total_pj());
  EXPECT_NEAR(batched.stats().serial_time_ns, sync.stats().serial_time_ns,
              1e-6 * sync.stats().serial_time_ns);
}

/// The differential stream: one vector per trace id, 2^19 bits each (one
/// full row group), so the runtime's allocation order reproduces the
/// backend's virtual placements.  Full-group vectors fill 128 rows per
/// subarray, so id 128 is the first vector of subarray 1.
constexpr std::uint64_t kDiffBits = 1ull << 19;
constexpr std::uint64_t kSubarray1 = 128;

sim::OpTrace differential_trace() {
  sim::OpTrace t;
  t.name = "differential";
  t.result_density = 0.5;
  auto add = [&](BitOp op, std::vector<std::uint64_t> srcs, std::uint64_t dst,
                 bool host_reads = false) {
    t.ops.push_back({op, std::move(srcs), dst, kDiffBits, host_reads});
  };
  add(BitOp::kOr, {0, 1}, 2);
  add(BitOp::kOr, {0, 1, 2, 3, 4}, 5);        // chained on Pinatubo-2
  add(BitOp::kAnd, {3, kSubarray1}, 6);       // operands in two subarrays
  add(BitOp::kXor, {5, 6}, 7, true);          // host-read tail
  add(BitOp::kInv, {7}, kSubarray1 + 1);
  add(BitOp::kAnd, {kSubarray1 + 1, 2}, 4, true);
  return t;
}

/// Allocates every id of the differential stream and writes the operands.
std::vector<core::PimRuntime::Handle> load_differential(core::PimRuntime& rt) {
  std::vector<core::PimRuntime::Handle> h;
  Rng rng(31);
  for (std::uint64_t id = 0; id <= kSubarray1 + 1; ++id) {
    h.push_back(rt.pim_malloc(kDiffBits));
    if (id <= 7 || id >= kSubarray1)
      rt.pim_write(h.back(), BitVector::random(kDiffBits, 0.4, rng));
  }
  return h;
}

void issue(core::PimRuntime& rt,
           const std::vector<core::PimRuntime::Handle>& h,
           const sim::TraceOp& op) {
  std::vector<core::PimRuntime::Handle> srcs;
  for (const auto id : op.srcs) srcs.push_back(h[id]);
  rt.pim_op(op.op, srcs, h[op.dst], op.host_reads_result);
}

core::PimRuntime::Options differential_options(unsigned max_rows,
                                               bool serial) {
  core::PimRuntime::Options o;
  o.max_rows = max_rows;
  o.serial_execution = serial;
  o.record_commands = true;
  return o;
}

/// Replaying the runtime's recorded commands on a twin holding only the
/// initial data must reproduce every vector the runtime computed.
void expect_replay_reproduces(core::PimRuntime& rt,
                              const std::vector<core::PimRuntime::Handle>& h,
                              const core::PimRuntime::Options& opts) {
  core::PimRuntime twin({}, opts);
  const auto th = load_differential(twin);
  core::CommandReplayer replayer(twin.memory());
  replayer.execute_all(rt.commands());
  for (std::size_t i = 0; i < h.size(); ++i)
    ASSERT_EQ(twin.pim_read(th[i]), rt.pim_read(h[i])) << "vector " << i;
}

TEST(EndToEnd, RuntimeCostAgreesWithBackend) {
  // The functional runtime and the analytic backend must charge the same
  // cost for the same op stream (same placements, same plans, same
  // engine): the whole stream as one batch window matches the backend's
  // one-batch trace exactly, overlapped and serial; a synchronous op
  // followed by a window sums to the same serial cost.
  const sim::OpTrace trace = differential_trace();
  std::uint64_t intra_at_128 = 0;
  for (const unsigned max_rows : {128u, 2u})
    for (const bool serial : {false, true}) {
      SCOPED_TRACE("max_rows " + std::to_string(max_rows) +
                   (serial ? " serial" : " overlapped"));
      core::PinatuboBackend backend(
          {}, {nvm::Tech::kPcm, max_rows, core::AllocPolicy::kPimAware,
               serial});
      obs::TraceSession backend_trace(true);
      backend.set_trace(&backend_trace);
      const mem::Cost want = backend.execute(trace).bitwise;
      const auto classes = backend.last_class_counts();

      const auto opts = differential_options(max_rows, serial);
      core::PimRuntime rt({}, opts);
      obs::TraceSession rt_trace(true);
      rt.set_trace(&rt_trace);
      const auto h = load_differential(rt);
      rt.pim_begin();
      for (const auto& op : trace.ops) issue(rt, h, op);
      rt.pim_barrier();

      EXPECT_EQ(rt.cost().time_ns, want.time_ns);
      EXPECT_EQ(rt.cost().energy.components(), want.energy.components());
      const auto& st = rt.stats();
      EXPECT_EQ(st.batches, 1u);
      EXPECT_EQ(st.intra_steps, classes.intra);
      EXPECT_EQ(st.inter_sub_steps, classes.inter_sub);
      EXPECT_EQ(st.inter_bank_steps, classes.inter_bank);
      EXPECT_GT(st.inter_sub_steps, 0u);
      EXPECT_GT(st.host_reads, 0u);
      if (max_rows == 128)
        intra_at_128 = st.intra_steps;
      else
        EXPECT_GT(st.intra_steps, intra_at_128);  // the 5-way OR chains

      // Same schedule: both traces hold the same spans, so the per-class
      // profiles (span sums and counts) agree too.
      ASSERT_EQ(rt_trace.spans().size(), backend_trace.spans().size());
      EXPECT_EQ(rt_trace.track_names(), backend_trace.track_names());
      for (std::size_t i = 0; i < rt_trace.spans().size(); ++i) {
        const auto& a = rt_trace.spans()[i];
        const auto& b = backend_trace.spans()[i];
        EXPECT_EQ(a.name, b.name) << "span " << i;
        EXPECT_EQ(a.category, b.category) << "span " << i;
        EXPECT_EQ(a.track, b.track) << "span " << i;
        EXPECT_EQ(a.start_ns, b.start_ns) << "span " << i;
        EXPECT_EQ(a.dur_ns, b.dur_ns) << "span " << i;
      }
      for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
        double span_ns = 0.0;
        std::uint64_t spans = 0;
        for (const auto& s : backend_trace.spans())
          if (s.category == to_string(static_cast<core::StepKind>(k))) {
            span_ns += s.dur_ns;
            ++spans;
          }
        EXPECT_EQ(st.by_class[k].steps, spans) << "class " << k;
        EXPECT_NEAR(st.by_class[k].time_ns, span_ns,
                    1e-9 * (1.0 + span_ns))
            << "class " << k;
      }
      expect_replay_reproduces(rt, h, opts);

      if (!serial) continue;
      // A synchronous op, then the rest in one window: the serial price
      // is the same step sum, split over two batches.
      core::PimRuntime mixed({}, opts);
      const auto hm = load_differential(mixed);
      issue(mixed, hm, trace.ops[0]);
      mixed.pim_begin();
      for (std::size_t i = 1; i < trace.ops.size(); ++i)
        issue(mixed, hm, trace.ops[i]);
      mixed.pim_barrier();
      EXPECT_DOUBLE_EQ(mixed.cost().time_ns, want.time_ns);
      EXPECT_DOUBLE_EQ(mixed.cost().energy.total_pj(),
                       want.energy.total_pj());
      EXPECT_EQ(mixed.stats().batches, 2u);
      for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
        EXPECT_EQ(mixed.stats().by_class[k].steps, st.by_class[k].steps);
        EXPECT_DOUBLE_EQ(mixed.stats().by_class[k].time_ns,
                         st.by_class[k].time_ns);
        EXPECT_DOUBLE_EQ(mixed.stats().by_class[k].energy_pj,
                         st.by_class[k].energy_pj);
      }
      EXPECT_EQ(mixed.commands().size(), rt.commands().size());
      expect_replay_reproduces(mixed, hm, opts);
    }
}

}  // namespace
}  // namespace pinatubo
