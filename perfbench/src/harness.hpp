// Benchmark harness: host-clock spans, output checks, the golden file and
// the workload interface every benchmark workload implements.
//
// Spans are recorded by the benchmark around its own calls into the
// program's modules (src/<layer>), never inside the program.  They are
// kept in memory and written out as a Chrome trace when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median and percentiles of a sample (nearest-rank on a sorted copy).
double percentile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Named values: machine-clock results and counts (compared exactly) or
/// baseline-model costs (compared within a relative tolerance).
using Values = std::map<std::string, double>;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Host-clock spans with parent links.  When off, a scope costs one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };
  Scope scope(const char* name) { return Scope(on_ ? this : nullptr, name); }

  struct NameStats {
    double self_s = 0.0;             ///< duration minus child spans
    std::vector<double> dur_s;       ///< per-call durations
  };
  /// Per span name: self time and call durations.
  std::map<std::string, NameStats> by_name() const;
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s = 0.0;
    double end_s = 0.0;
    long parent = -1;
  };
  bool on_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  long open_ = -1;  ///< innermost open span
};

/// Counts checked outputs; the share that held is `success_frac`.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  /// Exact equality (machine clock, counts).
  void expect_eq(double got, double want, const std::string& what);
  /// |got - want| <= rel * |want| (baseline cost models).
  void expect_near(double got, double want, double rel,
                   const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Golden values committed beside the benchmark: one line per value,
/// `<workload> <seed> <key> <value>`; '#' starts a comment.
class Golden {
 public:
  /// Loads `path`; a missing file leaves the table empty.
  void load(const std::string& path);
  /// Values recorded for (workload, seed); nullptr when the seed is absent.
  const Values* find(const std::string& workload, std::uint64_t seed) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, Values> table_;
};

/// Host-speed probe.  Other tenants of the host slow this core and its
/// memory down for seconds to minutes at a time.  The probe times a fixed
/// kernel between the timed parts of a round and keeps the kernel's best
/// time since the last reset.  The kernel chases pointers through two
/// rings, one in L2 (256 KiB) and one beyond it (4 MiB), for about equal
/// time, so it slows both with the core and with the memory system.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Times the kernel once, if kInterval has passed since the last sample.
  void tick();
  void reset();
  double best_s() const { return best_s_; }
  std::size_t samples() const { return samples_; }
  /// The kernel's best time on the reference host (the 4-core VM the
  /// benchmark's bounds were set on, when quiet).
  static constexpr double kReferenceSeconds = 1.0e-3;

 private:
  struct Ring {
    Ring(std::uint32_t links, int steps);
    std::vector<std::uint32_t> next;
    int steps;
    std::uint32_t at = 0;
    void chase();
  };
  static constexpr double kInterval = 0.02;
  Ring near_, far_;
  Clock::time_point last_;
  double best_s_ = 0.0;
  std::size_t samples_ = 0;
};

/// The process's probe; workloads tick it before each timed part.
SpeedProbe& speed_probe();

/// Relative tolerance for the SIMD / S-DRAM / AC-PIM baseline costs, loose
/// enough for an approximate SIMD cache model to replace the line-level
/// LRU simulation.
inline constexpr double kBaselineTolerance = 0.01;

/// One round's output: a fixed amount of simulated work, the same on every
/// round of a run.  `samples_ms` and `parts_s` list the same positions in
/// the same order on every round, so a run can take each position's best
/// time over its rounds.
struct RoundResult {
  std::uint64_t ops = 0;           ///< simulated bulk bitwise ops
  std::vector<double> samples_ms;  ///< per-query (or per-cell) latencies
  std::vector<double> parts_s;     ///< the timed work, split into parts
  double pim_time_ns = 0.0;        ///< machine clock of the round's work
  double pim_energy_pj = 0.0;
  Values exact;     ///< machine-clock and count values (golden, exact)
  Values baseline;  ///< baseline costs (golden, kBaselineTolerance)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and loads them.
  virtual void setup(Tracer& tr) = 0;
  /// Runs one round of the fixed work and checks its outputs.
  virtual RoundResult round(Tracer& tr, Checker& chk) = 0;
  /// Per-layer metrics after `rounds` traced rounds and `setups` traced
  /// set-ups; `last` is the last round.  `out` arrives holding every
  /// per-layer metric at 0; the workload fills the layers it reaches.
  virtual void layer_metrics(const Tracer& tr, std::size_t setups,
                             std::size_t rounds, const RoundResult& last,
                             Metrics& out) = 0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();
/// Fills every per-layer metric with 0 in its unit; workloads overwrite
/// the ones they reach.
Metrics zero_layer_metrics();

/// Span helpers shared by workloads.
double self_ms(const std::map<std::string, Tracer::NameStats>& s,
               const std::string& name);
double p50_us(const std::map<std::string, Tracer::NameStats>& s,
              const std::string& name);

}  // namespace perfbench
