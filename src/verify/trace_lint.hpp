// Exported-trace lint (rules T01-T04).
//
// `obs::TraceSession::write_chrome_json` serialises schedules into Chrome
// trace-event JSON; this linter re-reads such a file with no access to the
// process that wrote it and checks the file is internally honest: well-formed
// (T01), no span past the declared `otherData.max_span_end_ns` (T02), no
// overlap between spans sharing a track — a rank timeline, a channel bus, or
// the host CPU lane (T03), and `pim.steps.*` counters agreeing with the
// per-class span counts (T04).  Timestamps are compared with fixed-point
// slack: the exporter rounds at 0.1 ns (four decimals of a microsecond), so
// two rounded endpoints may disagree by up to 0.2 ns without a real bug.
//
// Input contract (anything else is T01, never undefined behaviour):
// containers nest at most kMaxTraceDepth deep; numbers follow the JSON
// grammar and are finite doubles (no inf/nan, hex floats or leading '+');
// \u escapes carry exactly four hex digits; a `tid` is an integer in
// uint32 range.
//
// Used by the `plan_lint --trace` CLI and cross-checked against
// tools/check_trace.py in CI.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "verify/rules.hpp"

namespace pinatubo::verify {

/// Deepest container nesting the reader accepts (exported traces nest four
/// deep); past it the recursive reader stops with a T01 finding.
constexpr std::size_t kMaxTraceDepth = 64;

/// Machine-readable facts extracted while linting, for summary files and
/// cross-checks against other tools' view of the same trace.
struct TraceStats {
  std::size_t spans = 0;             ///< "X" complete events seen
  std::size_t tracks = 0;            ///< named thread_name metadata rows
  double max_end_ns = 0.0;           ///< latest span end actually observed
  double declared_max_end_ns = 0.0;  ///< otherData.max_span_end_ns
  std::map<std::string, double> counters;             ///< otherData.counters
  std::map<std::string, std::size_t> spans_by_category;

  /// One-line JSON object (rule ids of diagnostics + the fields above).
  std::string to_json(const Report& rep) const;
};

/// Lints trace-event JSON text.  Never throws; a malformed file yields T01.
Report lint_trace_text(const std::string& json, TraceStats* stats = nullptr);

/// Reads and lints a trace file (an unreadable file is a T01 finding).
Report lint_trace_file(const std::string& path, TraceStats* stats = nullptr);

}  // namespace pinatubo::verify
