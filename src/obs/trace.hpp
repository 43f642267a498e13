// Observability core: spans + counters with a Chrome trace-event exporter.
//
// A `TraceSession` collects completed spans (name, start, duration, track)
// and monotonic counters while a workload runs, then serializes them as
// Chrome trace-event JSON — the file opens directly in chrome://tracing or
// https://ui.perfetto.dev.  Tracks map to Chrome "threads" (one per rank
// timeline, one per channel data bus), so a priced batch renders as a
// Gantt chart of where the makespan went.
//
// The session is deliberately dumb: callers record *already-priced* spans.
// Both front doors render the engine's schedule through `core::run_batch`,
// so the trace reconciles exactly with the `ClassProfile` it was priced
// from — per-class span sums equal the profile's serial time and the max
// span end equals the makespan (`verify::reconcile_trace` checks both).
//
// A disabled session (the default) drops every record at a single branch;
// hot paths guard with `enabled()` so tracing off costs one predictable
// comparison per batch, not per span.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace pinatubo::obs {

/// One completed span on a named track.  Times are nanoseconds on the
/// machine timeline (the exporter converts to Chrome's microseconds).
struct Span {
  std::string name;
  std::string category;  ///< Chrome `cat`; step class for engine spans
  std::uint32_t track = 0;
  double start_ns = 0.0;
  double dur_ns = 0.0;
  double end_ns() const { return start_ns + dur_ns; }
};

class TraceSession {
 public:
  TraceSession() = default;  ///< disabled: every record is a no-op
  explicit TraceSession(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Returns the id of the track named `name`, creating it on first use.
  /// Track ids are dense and stable in registration order.
  std::uint32_t track(const std::string& name);

  /// Records a completed span; no-op when the session is disabled.
  void span(std::string name, double start_ns, double dur_ns,
            std::uint32_t track, std::string category = {});

  /// Monotonic counters (no-ops when disabled).
  void count(const std::string& name, std::uint64_t delta = 1) {
    if (enabled_) metrics_.add(name, delta);
  }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& track_names() const { return tracks_; }
  /// Latest span completion time (0 when no spans): the traced makespan.
  double max_end_ns() const;

  void clear();

  /// Serializes the session as Chrome trace-event JSON.  Uses the object
  /// form `{"traceEvents": [...], ...}` with thread-name metadata per
  /// track; counters and the max span end ride along under "otherData"
  /// so external checkers can validate the trace against the run.
  std::string to_chrome_json() const;
  /// Writes `to_chrome_json()` to `path`; throws on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> tracks_;
  MetricsRegistry metrics_;
};

/// Writes `s` to `os` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, newline and tab become `\n` and `\t`, any other
/// byte below 0x20 becomes `\u00xx`.  The one JSON string escaper of the
/// tree: Chrome traces, lint summaries and bench reports all use it.
void write_json_string(std::ostream& os, std::string_view s);

}  // namespace pinatubo::obs
