#include "bench_util.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "sim/simd_backend.hpp"

namespace pinatubo::bench {

SuiteRun run_suite(sim::Backend& backend,
                   const std::vector<apps::NamedTrace>& workloads) {
  SuiteRun run;
  run.backend = backend.name();
  run.results.reserve(workloads.size());
  for (const auto& w : workloads) run.results.push_back(backend.execute(w.trace));
  return run;
}

Baselines run_baselines(const std::vector<apps::NamedTrace>& workloads) {
  sim::SimdBackend dram(sim::MemKind::kDram);
  sim::SimdBackend pcm(sim::MemKind::kPcm);
  return {run_suite(dram, workloads), run_suite(pcm, workloads)};
}

RatioMatrix build_matrix(const std::vector<apps::NamedTrace>& workloads,
                         const Baselines& baselines,
                         const std::vector<SuiteRun>& backends,
                         const std::vector<bool>& vs_dram,
                         const Metric& metric) {
  PIN_CHECK(backends.size() == vs_dram.size());
  RatioMatrix m;
  for (const auto& w : workloads) m.workload_names.push_back(w.name);
  for (std::size_t b = 0; b < backends.size(); ++b) {
    m.backend_names.push_back(backends[b].backend);
    const auto& base = vs_dram[b] ? baselines.simd_dram : baselines.simd_pcm;
    std::vector<double> col;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      const double ref = metric(base.results[w]);
      const double val = metric(backends[b].results[w]);
      PIN_CHECK_MSG(val > 0, backends[b].backend << " on " << workloads[w].name);
      col.push_back(ref / val);
    }
    m.gmean.push_back(geomean(col));
    // Transpose into [workload][backend].
    if (m.ratios.empty()) m.ratios.resize(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w)
      m.ratios[w].push_back(col[w]);
  }
  return m;
}

Table matrix_table(const std::string& title, const RatioMatrix& m,
                   const std::vector<apps::NamedTrace>& workloads) {
  Table t(title);
  std::vector<std::string> header{"group", "workload"};
  for (const auto& b : m.backend_names) header.push_back(b);
  t.set_header(header);
  for (std::size_t w = 0; w < m.workload_names.size(); ++w) {
    std::vector<std::string> row{workloads[w].group, m.workload_names[w]};
    for (const double r : m.ratios[w]) row.push_back(Table::mult(r));
    t.add_row(row);
  }
  t.add_separator();
  std::vector<std::string> grow{"", "Gmean"};
  for (const double g : m.gmean) grow.push_back(Table::mult(g));
  t.add_row(grow);
  return t;
}

double parse_scale(int argc, char** argv, double def) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      return std::strtod(argv[i] + 8, nullptr);
  }
  return def;
}

bool parse_flag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

std::string parse_path_arg(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return argv[i] + prefix.size();
    if (flag == argv[i] && i + 1 < argc) return argv[i + 1];
  }
  return {};
}

std::string parse_json_path(int argc, char** argv) {
  return parse_path_arg(argc, argv, "json");
}

std::string parse_trace_path(int argc, char** argv) {
  return parse_path_arg(argc, argv, "trace-out");
}

namespace {

std::string quoted(const std::string& s) {
  std::ostringstream os;
  obs::write_json_string(os, s);
  return os.str();
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

void JsonReport::add(const std::string& key, double value) {
  fields_.push_back(quoted(key) + ": " + json_number(value));
}

void JsonReport::add(const std::string& key, const std::string& value) {
  fields_.push_back(quoted(key) + ": " + quoted(value));
}

void JsonReport::add_array(const std::string& key,
                           const std::vector<double>& values) {
  std::string out = quoted(key) + ": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += json_number(values[i]);
  }
  fields_.push_back(out + "]");
}

void JsonReport::add_matrix(const std::string& key, const RatioMatrix& m) {
  std::ostringstream os;
  obs::write_json_string(os, key);
  os << ": {\"workloads\": [";
  for (std::size_t i = 0; i < m.workload_names.size(); ++i) {
    if (i) os << ", ";
    obs::write_json_string(os, m.workload_names[i]);
  }
  os << "], \"backends\": [";
  for (std::size_t i = 0; i < m.backend_names.size(); ++i) {
    if (i) os << ", ";
    obs::write_json_string(os, m.backend_names[i]);
  }
  os << "], \"ratios\": [";
  for (std::size_t w = 0; w < m.ratios.size(); ++w) {
    os << (w ? ", " : "") << "[";
    for (std::size_t b = 0; b < m.ratios[w].size(); ++b)
      os << (b ? ", " : "") << json_number(m.ratios[w][b]);
    os << "]";
  }
  os << "], \"gmean\": [";
  for (std::size_t i = 0; i < m.gmean.size(); ++i)
    os << (i ? ", " : "") << json_number(m.gmean[i]);
  os << "]}";
  fields_.push_back(os.str());
}

void JsonReport::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream f(path);
  PIN_CHECK_MSG(f.good(), "cannot write " << path);
  f << "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i)
    f << "  " << fields_[i] << (i + 1 < fields_.size() ? "," : "") << "\n";
  f << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace pinatubo::bench
