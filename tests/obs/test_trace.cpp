// TraceSession / MetricsRegistry: span recording, counter accounting,
// disabled-session no-ops, and the Chrome trace-event JSON exporter.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "verify/trace_lint.hpp"

namespace pinatubo::obs {
namespace {

/// Whether the trace lint reads `json` as well-formed (T01 = malformed).
bool lints_as_json(const std::string& json) {
  return !verify::lint_trace_text(json).tripped(verify::Rule::kTraceParse);
}

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry m;
  EXPECT_EQ(m.get("never"), 0u);
  m.add("ops");
  m.add("ops", 4);
  m.add("bytes", 1024);
  EXPECT_EQ(m.get("ops"), 5u);
  EXPECT_EQ(m.get("bytes"), 1024u);
  EXPECT_EQ(m.counters().size(), 2u);
  m.clear();
  EXPECT_EQ(m.get("ops"), 0u);
}

TEST(TraceSession, DisabledDropsEverything) {
  TraceSession s;  // default: disabled
  EXPECT_FALSE(s.enabled());
  const auto t = s.track("ch0/rank0");
  s.span("op", 0.0, 10.0, t);
  s.count("pim.ops", 7);
  EXPECT_TRUE(s.spans().empty());
  EXPECT_EQ(s.metrics().get("pim.ops"), 0u);
  EXPECT_DOUBLE_EQ(s.max_end_ns(), 0.0);
}

TEST(TraceSession, RecordsSpansAndCounters) {
  TraceSession s(true);
  const auto rank = s.track("ch0/rank0");
  const auto bus = s.track("ch0/bus");
  EXPECT_NE(rank, bus);
  EXPECT_EQ(s.track("ch0/rank0"), rank);  // idempotent
  s.span("op0.0 OR r2", 0.0, 120.0, rank, "intra-sub");
  s.span("op0.1 OR r1", 120.0, 40.0, bus, "host-read");
  s.count("pim.ops");
  ASSERT_EQ(s.spans().size(), 2u);
  EXPECT_DOUBLE_EQ(s.max_end_ns(), 160.0);
  EXPECT_EQ(s.spans()[1].track, bus);
  EXPECT_EQ(s.metrics().get("pim.ops"), 1u);
  s.clear();
  EXPECT_TRUE(s.spans().empty());
  EXPECT_TRUE(s.track_names().empty());
}

TEST(TraceSession, SpanValidatesTrackAndTimes) {
  TraceSession s(true);
  EXPECT_THROW(s.span("x", 0.0, 1.0, /*track=*/0), Error);  // unregistered
  const auto t = s.track("t");
  EXPECT_THROW(s.span("x", -1.0, 1.0, t), Error);
  EXPECT_THROW(s.span("x", 0.0, -1.0, t), Error);
}

TEST(TraceSession, ChromeJsonIsValidAndComplete) {
  TraceSession s(true);
  const auto rank = s.track("ch0/rank1");
  s.span("op0.0 OR r2", 10.0, 250.0, rank, "intra-sub");
  s.span("weird \"name\"\n\t\\", 260.0, 5.0, rank);
  s.count("pim.batches");
  const std::string json = s.to_chrome_json();
  EXPECT_TRUE(lints_as_json(json)) << json;
  // Required Chrome trace-event pieces.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("ch0/rank1"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"intra-sub\""), std::string::npos);
  // Reconciliation metadata rides along.
  EXPECT_NE(json.find("\"max_span_end_ns\":265.0"), std::string::npos);
  EXPECT_NE(json.find("\"pim.batches\":1"), std::string::npos);
}

TEST(TraceSession, EmptySessionStillSerializes) {
  const TraceSession s(true);
  EXPECT_TRUE(lints_as_json(s.to_chrome_json()));
}

// The checker above accepts every JSON value kind and rejects broken syntax
// even when the rest of the trace is well-formed.
TEST(JsonCheckerSelfTest, AcceptsAndRejects) {
  const auto trace = [](const std::string& value) {
    return "{\"traceEvents\":[],\"otherData\":{\"max_span_end_ns\":0,"
           "\"x\":" + value + "}}";
  };
  EXPECT_TRUE(lints_as_json(trace("{}")));
  EXPECT_TRUE(lints_as_json(trace("{\"a\":[1,2.5,-3e-2,\"x\",true,null]}")));
  EXPECT_FALSE(lints_as_json(trace("{")));
  EXPECT_FALSE(lints_as_json(trace("{\"a\":}")));
  EXPECT_FALSE(lints_as_json(trace("{\"a\":1,}")));
  EXPECT_FALSE(lints_as_json(trace("[1 2]")));
  EXPECT_FALSE(lints_as_json(trace("\"unterminated")));
  EXPECT_FALSE(lints_as_json(trace("{}") + " trailing"));
}

}  // namespace
}  // namespace pinatubo::obs
