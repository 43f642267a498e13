#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (!t_) return;
  index_ = t_->spans_.size();
  t_->spans_.push_back({name, seconds_since(t_->t0_), 0.0, t_->open_});
  t_->open_ = static_cast<long>(index_);
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  Span& s = t_->spans_[index_];
  s.end_s = seconds_since(t_->t0_);
  t_->open_ = s.parent;
}

std::map<std::string, Tracer::NameStats> Tracer::by_name() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
  std::map<std::string, NameStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_s - spans_[i].start_s;
    NameStats& n = out[spans_[i].name];
    n.self_s += dur - child_s[i];
    n.dur_s.push_back(dur);
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%ld}}",
                  i ? "," : "", s.name, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent);
    os << buf;
  }
  os << "]}\n";
}

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 20) std::fprintf(stderr, "perfbench: check failed: %s\n",
                                 what.c_str());
  ++failed_;
}

void Checker::expect_eq(double got, double want, const std::string& what) {
  if (got == want) return expect(true, what);
  char buf[128];
  std::snprintf(buf, sizeof buf, " (got %.17g, want %.17g)", got, want);
  expect(false, what + buf);
}

void Checker::expect_near(double got, double want, double rel,
                          const std::string& what) {
  if (std::fabs(got - want) <= rel * std::fabs(want))
    return expect(true, what);
  char buf[128];
  std::snprintf(buf, sizeof buf, " (got %.17g, want %.17g +- %g)", got, want,
                rel);
  expect(false, what + buf);
}

SpeedProbe::Ring::Ring(std::uint32_t links, int steps_)
    : next(links), steps(steps_) {
  // One cycle through every link in a fixed pseudo-random order.
  std::vector<std::uint32_t> order(links);
  for (std::uint32_t i = 0; i < links; ++i) order[i] = i;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = links - 1; i > 0; --i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < links; ++i)
    next[order[i]] = order[(i + 1) % links];
}

void SpeedProbe::Ring::chase() {
  std::uint32_t a = at;
  for (int i = 0; i < steps; ++i) a = next[a];
  at = a;  // keeps the chase live
}

SpeedProbe::SpeedProbe() : near_(1u << 16, 1 << 16), far_(1u << 20, 1 << 12) {
  reset();
}

void SpeedProbe::reset() {
  last_ = Clock::now() - std::chrono::hours(1);
  best_s_ = 0.0;
  samples_ = 0;
}

void SpeedProbe::tick() {
  if (seconds_since(last_) < kInterval) return;
  const auto t0 = Clock::now();
  near_.chase();
  far_.chase();
  last_ = Clock::now();
  const double s = std::chrono::duration<double>(last_ - t0).count();
  best_s_ = samples_++ == 0 ? s : std::min(best_s_, s);
}

SpeedProbe& speed_probe() {
  static SpeedProbe probe;
  return probe;
}

void Golden::load(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, key;
    std::uint64_t seed = 0;
    double value = 0.0;
    if (ls >> workload >> seed >> key >> value)
      table_[{workload, seed}][key] = value;
  }
}

const Values* Golden::find(const std::string& workload,
                           std::uint64_t seed) const {
  const auto it = table_.find({workload, seed});
  return it == table_.end() ? nullptr : &it->second;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"apps.vector_trace_ms", "ms"},
      {"apps.graph_build_ms", "ms"},
      {"apps.bfs_trace_ms", "ms"},
      {"apps.index_build_ms", "ms"},
      {"apps.query_trace_ms", "ms"},
      {"sim.simd_dram_ms", "ms"},
      {"sim.simd_pcm_ms", "ms"},
      {"sim.sdram_ms", "ms"},
      {"sim.acpim_ms", "ms"},
      {"sim.simd_lines", "count"},
      {"sim.simd_ns_per_line", "ns"},
      {"sim.trace_save_ms", "ms"},
      {"sim.trace_load_ms", "ms"},
      {"sim.trace_bytes", "bytes"},
      {"pinatubo.plan_ms", "ms"},
      {"pinatubo.engine_serial_ms", "ms"},
      {"pinatubo.engine_overlap_ms", "ms"},
      {"pinatubo.backend_ms", "ms"},
      {"pinatubo.steps.intra", "count"},
      {"pinatubo.steps.inter_sub", "count"},
      {"pinatubo.steps.inter_bank", "count"},
      {"pinatubo.steps.host_read", "count"},
      {"pinatubo.bus_bytes", "bytes"},
      {"pinatubo.batches", "count"},
      {"pinatubo.malloc_us", "us"},
      {"pinatubo.write_us_p50", "us"},
      {"pinatubo.op_us_p50", "us"},
      {"pinatubo.barrier_us_p50", "us"},
      {"pinatubo.read_us_p50", "us"},
      {"machine.time_ms.intra", "ms"},
      {"machine.time_ms.inter_sub", "ms"},
      {"machine.time_ms.inter_bank", "ms"},
      {"machine.time_ms.host_read", "ms"},
      {"machine.energy_mj.pim.activate", "mJ"},
      {"machine.energy_mj.pim.sense", "mJ"},
      {"machine.energy_mj.pim.write", "mJ"},
      {"machine.energy_mj.pim.buffer.logic", "mJ"},
      {"machine.energy_mj.pim.buffer.read", "mJ"},
      {"machine.energy_mj.pim.buffer.wb", "mJ"},
      {"machine.energy_mj.bus.io", "mJ"},
      {"machine.energy_mj.ctrl.cmd", "mJ"},
      {"machine.energy_mj.other", "mJ"},
      {"machine.overlap_x", "x"},
      {"verify.check_ms", "ms"},
      {"verify.ns_per_step", "ns"},
      {"verify.diagnostics", "count"},
      {"verify.trace_lint_ms", "ms"},
      {"obs.render_ms", "ms"},
      {"obs.export_ms", "ms"},
      {"obs.spans", "count"},
      {"obs.trace_bytes", "bytes"},
      {"bitvec.popcount_us", "us"},
      {"reliability.detected_faults", "count"},
      {"reliability.retries", "count"},
      {"reliability.deescalations", "count"},
      {"reliability.remaps", "count"},
      {"reliability.fallbacks", "count"},
      {"reliability.retries_per_op", "ratio"},
      {"reliability.fallback_time_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kUnits;
}

Metrics zero_layer_metrics() {
  Metrics m;
  for (const auto& [name, unit] : layer_metric_units()) m[name] = {0.0, unit};
  return m;
}

double self_ms(const std::map<std::string, Tracer::NameStats>& s,
               const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second.self_s * 1e3;
}

double p50_us(const std::map<std::string, Tracer::NameStats>& s,
              const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : median(it->second.dur_s) * 1e6;
}

}  // namespace perfbench
