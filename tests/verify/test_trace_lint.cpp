// Trace-lint tests: real exported traces lint clean; hand-tampered JSON
// trips the exact T-rule it violates.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "obs/trace.hpp"
#include "pinatubo/driver.hpp"
#include "verify/trace_lint.hpp"

namespace pinatubo::verify {
namespace {

/// A real runtime trace: mixed classes, two ranks, host bursts on the bus.
std::string runtime_trace_json(core::PimRuntime& pim) {
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  const std::uint64_t bits = 2 * pim.geometry().row_group_bits();
  Rng rng(42);
  std::vector<core::PimRuntime::Handle> vecs;
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
  return trace.to_chrome_json();
}

/// Minimal well-formed trace with full control over every field.
std::string synthetic(const std::string& events, const std::string& other) {
  return "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"thread_name\","
         "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"ch0/rank0\"}}" +
         (events.empty() ? "" : "," + events) +
         "],\"displayTimeUnit\":\"ns\",\"otherData\":{" + other + "}}";
}

std::string span(double ts_us, double dur_us, const char* cat = "intra-sub",
                 int tid = 0) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
     << ",\"name\":\"op\",\"cat\":\"" << cat << "\",\"ts\":" << ts_us
     << ",\"dur\":" << dur_us << "}";
  return os.str();
}

TEST(TraceLint, RealRuntimeTraceLintsClean) {
  core::PimRuntime pim;
  TraceStats stats;
  const Report rep = lint_trace_text(runtime_trace_json(pim), &stats);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(stats.spans, 0u);
  EXPECT_GT(stats.tracks, 1u);  // two ranks + a bus track at least
  EXPECT_NEAR(stats.max_end_ns, pim.cost().time_ns,
              1.0 + 1e-9 * pim.cost().time_ns);
  EXPECT_GT(stats.spans_by_category.count("intra-sub"), 0u);
}

TEST(TraceLint, MalformedJsonTripsT01) {
  for (const char* bad :
       {"", "not json at all", "{\"traceEvents\":", "[1,2,3]",
        "{\"traceEvents\":[]}", "{\"otherData\":{}}", "{",
        "{\"traceEvents\":}", "{\"traceEvents\":[],}",
        "{\"traceEvents\":[1 2]}", "{\"traceEvents\":\"unterminated",
        "{} trailing"}) {
    const Report rep = lint_trace_text(bad);
    EXPECT_TRUE(rep.tripped(Rule::kTraceParse)) << "input: " << bad;
  }
  const Report rep = lint_trace_file("/nonexistent/trace.json");
  EXPECT_TRUE(rep.tripped(Rule::kTraceParse));
}

TEST(TraceLint, TruncatedRealTraceTripsT01) {
  core::PimRuntime pim;
  const std::string json = runtime_trace_json(pim);
  const Report rep = lint_trace_text(json.substr(0, json.size() / 2));
  EXPECT_TRUE(rep.tripped(Rule::kTraceParse));
}

TEST(TraceLint, SpanPastDeclaredMakespanTripsT02) {
  // One 2000 ns span, but the file claims the timeline ends at 1000 ns.
  const std::string json =
      synthetic(span(0.0, 2.0),
                "\"max_span_end_ns\":1000.0,\"spans\":1,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTracePastMakespan)) << rep.to_string();
}

TEST(TraceLint, OverstatedMakespanTripsT02) {
  // No span comes near the declared end: the makespan is padded.
  const std::string json =
      synthetic(span(0.0, 1.0),
                "\"max_span_end_ns\":5000.0,\"spans\":1,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTracePastMakespan)) << rep.to_string();
}

TEST(TraceLint, OverlappingTrackSpansTripT03) {
  const std::string json =
      synthetic(span(0.0, 1.0) + "," + span(0.5, 1.0),
                "\"max_span_end_ns\":1500.0,\"spans\":2,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTraceTrackOverlap)) << rep.to_string();
}

TEST(TraceLint, AdjacentSpansDoNotOverlap) {
  // Back-to-back tiling (end == next start) is the normal serial layout.
  const std::string json =
      synthetic(span(0.0, 1.0) + "," + span(1.0, 1.0),
                "\"max_span_end_ns\":2000.0,\"spans\":2,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(TraceLint, CounterSpanMismatchTripsT04) {
  const std::string json = synthetic(
      span(0.0, 1.0) + "," + span(1.0, 1.0),
      "\"max_span_end_ns\":2000.0,\"spans\":2,"
      "\"counters\":{\"pim.steps.intra-sub\":3.0000}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTraceCounterMismatch)) << rep.to_string();
}

TEST(TraceLint, DishonestSpanCountTripsT04) {
  const std::string json =
      synthetic(span(0.0, 1.0),
                "\"max_span_end_ns\":1000.0,\"spans\":7,\"counters\":{}");
  const Report rep = lint_trace_text(json);
  EXPECT_TRUE(rep.tripped(Rule::kTraceCounterMismatch)) << rep.to_string();
}

// ---- input contract: anything outside it is T01, never UB -----------------

/// A span event with every numeric field spelled verbatim.
std::string raw_span(const std::string& ts, const std::string& dur = "1.0",
                     const std::string& tid = "0") {
  return "{\"ph\":\"X\",\"pid\":1,\"tid\":" + tid +
         ",\"name\":\"op\",\"cat\":\"intra-sub\",\"ts\":" + ts +
         ",\"dur\":" + dur + "}";
}

constexpr const char* kOneSpan =
    "\"max_span_end_ns\":1000.0,\"spans\":1,\"counters\":{}";

/// Lints `json` and expects exactly one finding: T01 containing `why`.
void expect_t01(const std::string& json, const std::string& why) {
  const Report rep = lint_trace_text(json);
  ASSERT_EQ(rep.diags.size(), 1u) << json << "\n" << rep.to_string();
  EXPECT_EQ(rep.diags[0].rule, Rule::kTraceParse) << rep.to_string();
  EXPECT_NE(rep.diags[0].message.find(why), std::string::npos)
      << rep.to_string();
}

TEST(TraceLint, ContractConformingNumbersLintClean) {
  for (const char* ts : {"0", "-0", "0.0", "0e5", "-0.0E+0"})
    for (const char* dur : {"1", "1.0", "1e0", "1000E-3", "0.1e+1"}) {
      const Report rep =
          lint_trace_text(synthetic(raw_span(ts, dur), kOneSpan));
      EXPECT_TRUE(rep.ok()) << ts << ' ' << dur << ":\n" << rep.to_string();
    }
  const Report rep =
      lint_trace_text(synthetic(raw_span("0", "1.0", "4294967295"), kOneSpan));
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(TraceLint, DeepNestingTripsT01) {
  expect_t01(std::string(200000, '['), "nesting too deep");
  // The bound is exact: kMaxTraceDepth levels parse, one more does not.
  const std::string ok_depth = std::string(kMaxTraceDepth, '[') +
                               std::string(kMaxTraceDepth, ']');
  expect_t01(ok_depth, "root is not an object");
  const std::string too_deep = std::string(kMaxTraceDepth + 1, '[') +
                               std::string(kMaxTraceDepth + 1, ']');
  expect_t01(too_deep, "nesting too deep at byte " +
                           std::to_string(kMaxTraceDepth));
}

TEST(TraceLint, NonJsonNumberSyntaxTripsT01) {
  for (const char* ts :
       {"0x1p20", "+1", "01", "1.", ".5", "1e", "1e+", "-", "--1", "1.e3"}) {
    SCOPED_TRACE(ts);
    const Report rep = lint_trace_text(synthetic(raw_span(ts), kOneSpan));
    ASSERT_EQ(rep.diags.size(), 1u) << rep.to_string();
    EXPECT_EQ(rep.diags[0].rule, Rule::kTraceParse);
  }
}

TEST(TraceLint, NonFiniteNumbersTripT01) {
  for (const char* ts : {"nan", "-nan", "inf", "-inf", "Infinity", "NaN"}) {
    SCOPED_TRACE(ts);
    const Report rep = lint_trace_text(synthetic(raw_span(ts), kOneSpan));
    ASSERT_EQ(rep.diags.size(), 1u) << rep.to_string();
    EXPECT_EQ(rep.diags[0].rule, Rule::kTraceParse);
  }
  expect_t01(synthetic(raw_span("1e400"), kOneSpan),
             "number outside the finite double range");
  expect_t01(synthetic(raw_span("0", "-1e999"), kOneSpan),
             "number outside the finite double range");
  // Read as NaN, a start compares false against every end (hiding this
  // T03 overlap) and a NaN makespan bounds nothing (disabling T02).
  expect_t01(synthetic(span(0.0, 1.0) + "," + raw_span("-nan"),
                       "\"max_span_end_ns\":1000.0,\"spans\":2,"
                       "\"counters\":{}"),
             "malformed number");
  expect_t01(synthetic(span(0.0, 2.0),
                       "\"max_span_end_ns\":-nan,\"spans\":1,"
                       "\"counters\":{}"),
             "malformed number");
}

TEST(TraceLint, ShortUnicodeEscapeTripsT01) {
  for (const char* esc : {"\\u12", "\\u12G4", "\\u-123", "\\u 123"}) {
    SCOPED_TRACE(esc);
    const std::string events = "{\"ph\":\"i\",\"name\":\"" +
                               std::string(esc) + "zzzz\"}";
    expect_t01(synthetic(events, kOneSpan), "four hex digits");
  }
  expect_t01("{\"a\":\"\\u00", "truncated \\u escape");
}

TEST(TraceLint, NonIntegerTidTripsT01) {
  for (const char* tid :
       {"-1", "1.5", "4294967296", "1e10", "\"0\"", "null", "[0]"}) {
    SCOPED_TRACE(tid);
    // The rejected span is skipped, so the file declares no spans.
    expect_t01(synthetic(raw_span("0", "1.0", tid),
                         "\"max_span_end_ns\":1000.0,\"counters\":{}"),
               "tid is not an integer in uint32 range");
  }
}

TEST(TraceLint, StatsSummaryIsWellFormedJson) {
  core::PimRuntime pim;
  TraceStats stats;
  const Report rep = lint_trace_text(runtime_trace_json(pim), &stats);
  const std::string summary = stats.to_json(rep);
  // The summary must itself survive the lint parser's JSON reader — lint
  // a wrapper that embeds it as otherData (cheap structural round-trip).
  EXPECT_EQ(summary.front(), '{');
  EXPECT_EQ(summary.back(), '}');
  EXPECT_NE(summary.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(summary.find("\"spans\":"), std::string::npos);
}

TEST(TraceLint, SummaryEscapesControlCharacters) {
  // Span categories with \n and \u0001 escapes are legal input; the lint
  // decodes them, so the summary must escape them again — a raw control
  // byte inside a JSON string makes the summary unreadable.
  const std::string text =
      synthetic(span(0.0, 1.0, "a\\nb") + "," + span(1.0, 1.0, "c\\u0001d"),
                "\"max_span_end_ns\":2000.0,\"counters\":{}");
  TraceStats stats;
  const Report rep = lint_trace_text(text, &stats);
  ASSERT_EQ(stats.spans_by_category.count("a\nb"), 1u);
  const std::string summary = stats.to_json(rep);
  for (const char c : summary)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << summary;
  EXPECT_NE(summary.find("\"a\\nb\""), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"c\\u0001d\""), std::string::npos) << summary;
}

}  // namespace
}  // namespace pinatubo::verify
