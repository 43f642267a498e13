// Observability reconciliation: the trace a run emits must agree exactly
// with the runtime's own accounting.  Per step class, summed span
// durations equal the runtime's ClassProfile::time_ns; the max span end
// equals the accrued makespan cost().time_ns; counters match Stats.
// These cross-checks are what catch timing-model bugs that aggregate
// numbers hide.
#include <gtest/gtest.h>

#include <string>

#include "common/random.hpp"
#include "obs/schedule_trace.hpp"
#include "obs/trace.hpp"
#include "pinatubo/driver.hpp"
#include "verify/trace_lint.hpp"
#include "verify/verifier.hpp"

namespace pinatubo::core {
namespace {

/// The machine_explorer demo batch: 4 independent ORs then two dependent
/// ops that stream their result to the host — every step class except
/// inter-bank shows up, two ranks overlap, host bursts share the bus.
void run_demo_batch(PimRuntime& pim) {
  const std::uint64_t bits = 2 * pim.geometry().row_group_bits();
  std::vector<PimRuntime::Handle> vecs;
  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    pim.pim_write(vecs.back(), BitVector::random(bits, 0.5, rng));
  }
  pim.pim_begin();
  for (int i = 0; i < 4; ++i)
    pim.pim_op(BitOp::kOr, {vecs[2 * i], vecs[2 * i + 1]}, vecs[2 * i]);
  pim.pim_op(BitOp::kAnd, {vecs[0], vecs[2]}, vecs[0], true);
  pim.pim_op(BitOp::kXor, {vecs[4], vecs[6]}, vecs[4], true);
  pim.pim_barrier();
}

class ObsReconcileTest : public ::testing::TestWithParam<bool> {};

TEST_P(ObsReconcileTest, SpansReconcileWithStats) {
  PimRuntime::Options opts;
  opts.serial_execution = GetParam();
  PimRuntime pim({}, opts);
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  run_demo_batch(pim);

  const auto& st = pim.stats();
  ASSERT_FALSE(trace.spans().empty());
  // Per-class span sums/counts and the max span end against the runtime's
  // accounting — the R01/R02/R04 library pass.
  const verify::Report rep =
      verify::reconcile_trace(trace, pim.profile(), pim.cost().time_ns);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  // Counters match Stats.
  const auto& m = trace.metrics();
  EXPECT_EQ(m.get("pim.ops"), st.ops);
  EXPECT_EQ(m.get("pim.batches"), st.batches);
  EXPECT_EQ(m.get("pim.bus_bytes"), st.bus_bytes);
  EXPECT_EQ(m.get("pim.steps.intra-sub"),
            st.by_class[step_index(StepKind::kIntraSub)].steps);
  EXPECT_EQ(m.get("pim.steps.host-read"),
            st.by_class[step_index(StepKind::kHostRead)].steps);
}

INSTANTIATE_TEST_SUITE_P(EngineAndSerial, ObsReconcileTest,
                         ::testing::Values(false, true));

TEST(ObsReconcile, BatchesTileTheTimeline) {
  // Three flushes (two sync ops + one batch window): batch i's spans
  // start exactly at the cost accrued before it, so the session timeline
  // is gapless at flush boundaries and ends at the total cost.
  PimRuntime pim;
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  const std::uint64_t bits = pim.geometry().row_group_bits();
  const auto a = pim.pim_malloc(bits);
  const auto b = pim.pim_malloc(bits);
  const auto c = pim.pim_malloc(bits);
  Rng rng(7);
  pim.pim_write(a, BitVector::random(bits, 0.5, rng));
  pim.pim_write(b, BitVector::random(bits, 0.5, rng));

  pim.pim_op(BitOp::kOr, {a, b}, c);                   // flush 1
  const double after_first = pim.cost().time_ns;
  EXPECT_NEAR(trace.max_end_ns(), after_first, 1e-9 * after_first);
  pim.pim_op(BitOp::kAnd, {a, c}, c);                  // flush 2
  pim.pim_begin();
  pim.pim_op(BitOp::kXor, {a, b}, c, true);            // flush 3 (batch)
  pim.pim_barrier();

  EXPECT_EQ(pim.stats().batches, 3u);
  EXPECT_EQ(trace.metrics().get("pim.batches"), 3u);
  EXPECT_NEAR(trace.max_end_ns(), pim.cost().time_ns,
              1e-9 * pim.cost().time_ns);
  // No span starts before the timeline origin or after the makespan.
  for (const auto& s : trace.spans()) {
    EXPECT_GE(s.start_ns, 0.0);
    EXPECT_LE(s.end_ns(), pim.cost().time_ns + 1e-6);
  }
}

TEST(ObsReconcile, BusSpansStayInsideTheirStep) {
  PimRuntime pim;
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  run_demo_batch(pim);
  // Every bus span must end by the makespan and carry positive duration;
  // the demo batch's two host reads produce at least two bus spans.
  std::size_t bus_spans = 0;
  for (const auto& s : trace.spans()) {
    if (s.category != "bus") continue;
    ++bus_spans;
    EXPECT_GT(s.dur_ns, 0.0);
    EXPECT_LE(s.end_ns(), pim.cost().time_ns + 1e-6);
  }
  EXPECT_GE(bus_spans, 2u);
}

TEST(ObsReconcile, DisabledSessionLeavesRuntimeUntouched) {
  PimRuntime traced, plain;
  obs::TraceSession off;  // disabled
  traced.set_trace(&off);
  run_demo_batch(traced);
  run_demo_batch(plain);
  EXPECT_TRUE(off.spans().empty());
  EXPECT_TRUE(off.metrics().counters().empty());
  EXPECT_DOUBLE_EQ(traced.cost().time_ns, plain.cost().time_ns);
}

TEST(ObsReconcile, EmittedChromeJsonIsValid) {
  PimRuntime pim;
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  run_demo_batch(pim);
  const std::string json = trace.to_chrome_json();
  const verify::Report rep = verify::lint_trace_text(json);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"intra-sub\""), std::string::npos);
  EXPECT_NE(json.find("/bus"), std::string::npos);
}

}  // namespace
}  // namespace pinatubo::core
