// perfbench: the repository's two-clock benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--golden <file>] [--source <id>] [--trace-out <dir>]
//   perfbench --write-golden --workload <name> --seed <n>
//   perfbench --selftest [--golden <file>]
//
// A run sets the workload up, runs one untimed reference round that also
// warms caches, then repeats the same fixed round until `seconds` have
// passed and at least kMinRounds rounds ran.  Further set-ups of fresh
// workload instances are spread over the timed phase; setup_s is the
// median of all kSetups set-ups.  The host time of each part of a round
// (one query, one pricing cell) is its best over the run's rounds, since
// interference from other processes only ever adds time.  All host times
// are scaled to the reference host by the speed probe (harness.hpp),
// since some slow phases of the host outlast a run.  Every round is checked
// against the reference round (bit-identical machine clock and counts),
// against the golden file, and against the workload's own oracles.  The last stdout line is the JSON result; the line before it
// records provenance.  A run with a failed check exits with status 1.
// With --trace 1, untraced rounds alternate with rounds under the
// benchmark's span recorder, and the per-layer metrics are reported
// instead.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 9;
/// The host thread pool: one thread, whatever the machine has.
constexpr unsigned kThreads = 1;
/// Rounds per run at the least, so every position has several times.
constexpr std::size_t kMinRounds = 5;
/// Hard cap on the timed phase, far below the 180 s a run may take.
constexpr double kMaxTimedSeconds = 100.0;
constexpr std::uint64_t kHeldOutSeed = 7777;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string golden;
  std::string source = "unknown";
  std::string trace_out;
  bool write_golden = false;
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--golden <file>] "
               "[--source <id>] [--trace-out <dir>]\n"
               "       perfbench --write-golden --workload <name> --seed <n>\n"
               "       perfbench --selftest [--golden <file>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno || end == s || *end || s[0] == '-') usage("bad integer argument");
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = parse_u64(val());
    else if (k == "--seconds")
      a.seconds = static_cast<double>(parse_u64(val()));
    else if (k == "--trace") a.trace = static_cast<int>(parse_u64(val()));
    else if (k == "--golden") a.golden = val();
    else if (k == "--source") a.source = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--write-golden") a.write_golden = true;
    else if (k == "--selftest") a.selftest = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!a.selftest) {
    bool known = false;
    for (const auto& n : workload_names()) known |= n == a.workload;
    if (!known) usage("unknown or missing --workload");
  }
  return a;
}

/// Compares a round with the golden values for its seed.  Returns whether
/// the seed is in the golden file.
bool check_golden(const Golden& golden, const std::string& workload,
                  std::uint64_t seed, const RoundResult& r, Checker& chk) {
  const Values* g = golden.find(workload, seed);
  if (!g) return false;
  std::size_t matched = 0;
  for (const auto& [key, value] : r.exact) {
    const auto it = g->find(key);
    chk.expect(it != g->end(), "golden has " + key);
    if (it == g->end()) continue;
    ++matched;
    chk.expect_eq(value, it->second, "golden " + key);
  }
  for (const auto& [key, value] : r.baseline) {
    const auto it = g->find(key);
    chk.expect(it != g->end(), "golden has " + key);
    if (it == g->end()) continue;
    ++matched;
    chk.expect_near(value, it->second, kBaselineTolerance, "golden " + key);
  }
  chk.expect(matched == g->size(), "every golden value produced");
  return true;
}

/// Every machine-clock and count value of `r` equals `ref`'s exactly.
void check_same(const RoundResult& ref, const RoundResult& r,
                const std::string& what, Checker& chk) {
  chk.expect(ref.exact.size() == r.exact.size() &&
                 ref.baseline.size() == r.baseline.size(),
             what + ": same value set");
  for (const auto& [key, value] : ref.exact) {
    const auto it = r.exact.find(key);
    chk.expect_eq(it == r.exact.end() ? -1.0 : it->second, value,
                  what + " " + key);
  }
  for (const auto& [key, value] : ref.baseline) {
    const auto it = r.baseline.find(key);
    chk.expect_eq(it == r.baseline.end() ? -1.0 : it->second, value,
                  what + " " + key);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const Args& a, bool golden_hit) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"threads\": "
      "%u, \"nproc\": %u, \"build_type\": \"%s\", \"ndebug\": %s, "
      "\"sanitized\": %s, \"compiler\": \"%s\", \"source\": \"%s\", "
      "\"golden\": \"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), kThreads,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      kNdebug ? "true" : "false", kSanitized ? "true" : "false",
      json_escape(__VERSION__).c_str(), json_escape(a.source).c_str(),
      golden_hit ? "hit" : "seed not in golden file");
}

void print_result(const Checker& chk, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += chk.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(chk.attempted());
  out += ", \"failed\": " + std::to_string(chk.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), metric.value,
                  metric.unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Sets up a fresh instance of the workload and appends its set-up time.
std::unique_ptr<Workload> timed_setup(const Args& a, Tracer& tr,
                                      std::vector<double>& setup_s) {
  auto w = make_workload(a.workload, a.seed);
  const auto t0 = Clock::now();
  w->setup(tr);
  setup_s.push_back(seconds_since(t0));
  return w;
}

/// Runs rounds until `seconds` have passed and kMinRounds rounds ran,
/// cycling through `tracers` (one list of rounds per tracer).  Between
/// rounds it makes the remaining set-ups (under `setup_tr`), evenly spaced
/// over `seconds`.
std::vector<std::vector<RoundResult>> timed_rounds(
    Workload& w, const std::vector<Tracer*>& tracers, double seconds,
    const RoundResult& ref, const Golden& golden, const Args& a,
    Tracer& setup_tr, std::vector<double>& setup_s, Checker& chk) {
  std::vector<std::vector<RoundResult>> rounds(tracers.size());
  const auto t0 = Clock::now();
  do {
    while (setup_s.size() < kSetups &&
           seconds_since(t0) >= seconds * static_cast<double>(setup_s.size()) /
                                    static_cast<double>(kSetups))
      timed_setup(a, setup_tr, setup_s);
    for (std::size_t i = 0; i < tracers.size(); ++i) {
      rounds[i].push_back(w.round(*tracers[i], chk));
      const RoundResult& r = rounds[i].back();
      chk.expect(r.samples_ms.size() == ref.samples_ms.size() &&
                     r.parts_s.size() == ref.parts_s.size(),
                 "round has the reference's positions");
      check_same(ref, r, "round repeats reference", chk);
      check_golden(golden, a.workload, a.seed, r, chk);
    }
  } while ((seconds_since(t0) < seconds || rounds[0].size() < kMinRounds ||
            setup_s.size() < kSetups) &&
           seconds_since(t0) < kMaxTimedSeconds);
  return rounds;
}

/// Each position's best (smallest) value of `series` over the rounds.
std::vector<double> best_by_position(const std::vector<RoundResult>& rounds,
                                     std::vector<double> RoundResult::*series) {
  std::vector<double> best = rounds.front().*series;
  for (const auto& r : rounds)
    for (std::size_t i = 0; i < best.size() && i < (r.*series).size(); ++i)
      best[i] = std::min(best[i], (r.*series)[i]);
  return best;
}

/// The round time with every part at its best: the sum of the per-part
/// minima over the rounds.
double best_round_seconds(const std::vector<RoundResult>& rounds) {
  double sum = 0.0;
  for (const double s : best_by_position(rounds, &RoundResult::parts_s))
    sum += s;
  return sum;
}

int measure(const Args& a, const Golden& golden) {
  if (!kNdebug || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host-clock metrics from a "
                 "build without NDEBUG or with sanitizers\n");
    return 3;
  }
  Checker chk;
  Tracer tr(a.trace == 1);
  std::vector<double> setup_s;
  const std::unique_ptr<Workload> w = timed_setup(a, tr, setup_s);
  Tracer off(false);
  const RoundResult ref = w->round(off, chk);
  const bool golden_hit = check_golden(golden, a.workload, a.seed, ref, chk);
  print_provenance(a, golden_hit);

  Metrics m;
  if (a.trace == 0) {
    SpeedProbe& probe = speed_probe();
    probe.reset();
    const auto rounds =
        timed_rounds(*w, {&off}, a.seconds, ref, golden, a, tr, setup_s, chk)
            .front();
    // Host times, scaled to the reference host.
    const double scale = SpeedProbe::kReferenceSeconds / probe.best_s();
    const std::vector<double> samples =
        best_by_position(rounds, &RoundResult::samples_ms);
    const double best_s = best_round_seconds(rounds);
    std::vector<double> round_s;
    for (const auto& r : rounds) {
      round_s.push_back(0.0);
      for (const double s : r.parts_s) round_s.back() += s;
    }
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu rounds (s: min %.4f p50 %.4f "
                 "max %.4f; best parts %.4f), %zu latency positions (ms: "
                 "p50 %.4f p99 %.4f), probe best %.4f ms of %zu, "
                 "scale %.4f, setup_s %.4f unscaled\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 rounds.size(), percentile(round_s, 0), median(round_s),
                 percentile(round_s, 100), best_s, samples.size(),
                 percentile(samples, 50.0), percentile(samples, 99.0),
                 probe.best_s() * 1e3, probe.samples(), scale,
                 median(setup_s));
    m["setup_s"] = {median(setup_s) * scale, "s"};
    m["sim_ops_per_s"] = {static_cast<double>(ref.ops) / (best_s * scale),
                          "1/s"};
    m["query_ms_p50"] = {percentile(samples, 50.0) * scale, "ms"};
    m["query_ms_p99"] = {percentile(samples, 99.0) * scale, "ms"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["pim_time_ms"] = {ref.pim_time_ns * 1e-6, "ms"};
    m["pim_energy_mj"] = {ref.pim_energy_pj * 1e-9, "mJ"};
    m["success_frac"] = {static_cast<double>(chk.attempted() - chk.failed()) /
                             static_cast<double>(chk.attempted()),
                         "fraction"};
  } else {
    // Untraced and traced rounds alternate; the difference of their best
    // round times is the tracing overhead.
    const auto rounds =
        timed_rounds(*w, {&off, &tr}, a.seconds, ref, golden, a, tr, setup_s,
                     chk);
    const auto& plain = rounds[0];
    const auto& traced = rounds[1];
    m = zero_layer_metrics();
    w->layer_metrics(tr, setup_s.size(), traced.size(), traced.back(), m);
    m["trace.overhead_ms"].value =
        (best_round_seconds(traced) - best_round_seconds(plain)) * 1e3;
    if (!a.trace_out.empty())
      tr.write_chrome_json(a.trace_out + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json");
  }
  print_result(chk, m);
  return chk.failed() == 0 ? 0 : 1;
}

int write_golden(const Args& a) {
  Checker chk;
  Tracer off(false);
  auto w = make_workload(a.workload, a.seed);
  w->setup(off);
  const RoundResult r = w->round(off, chk);
  if (chk.failed()) return 1;
  for (const Values* v : {&r.exact, &r.baseline})
    for (const auto& [key, value] : *v)
      std::printf("%s %llu %s %.17g\n", a.workload.c_str(),
                  static_cast<unsigned long long>(a.seed), key.c_str(), value);
  return 0;
}

/// Two in-process repetitions and pool sizes 1 and 2 give bit-identical
/// machine-clock and count values on every workload; a held-out seed
/// passes every check, golden values included.
int selftest(const Golden& golden) {
  Checker chk;
  Tracer off(false);
  constexpr std::uint64_t kSeed = 1;
  for (const auto& name : workload_names()) {
    const std::uint64_t before = chk.failed();
    pinatubo::ThreadPool::set_global_threads(1);
    auto w = make_workload(name, kSeed);
    w->setup(off);
    const RoundResult first = w->round(off, chk);
    check_same(first, w->round(off, chk), name + " repetition", chk);
    pinatubo::ThreadPool::set_global_threads(2);
    auto w2 = make_workload(name, kSeed);
    w2->setup(off);
    check_same(first, w2->round(off, chk), name + " pool of 2", chk);
    pinatubo::ThreadPool::set_global_threads(1);
    auto h = make_workload(name, kHeldOutSeed);
    h->setup(off);
    const RoundResult held = h->round(off, chk);
    chk.expect(check_golden(golden, name, kHeldOutSeed, held, chk),
               name + " held-out seed in golden file");
    std::printf("selftest %-12s %s\n", name.c_str(),
                chk.failed() == before ? "ok" : "FAILED");
  }
  std::printf("selftest: %llu checks, %llu failed\n",
              static_cast<unsigned long long>(chk.attempted()),
              static_cast<unsigned long long>(chk.failed()));
  return chk.failed() == 0 ? 0 : 1;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_figs", "plan_lint",
                                                  "pim_queries", "pim_faulty"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper_figs") return make_paper_figs(seed);
  if (name == "plan_lint") return make_plan_lint(seed);
  if (name == "pim_queries") return make_pim_queries(seed, false);
  if (name == "pim_faulty") return make_pim_queries(seed, true);
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  Golden golden;
  if (!a.golden.empty()) golden.load(a.golden);
  try {
    if (a.selftest) return selftest(golden);
    pinatubo::ThreadPool::set_global_threads(kThreads);
    if (a.write_golden) return write_golden(a);
    return measure(a, golden);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
