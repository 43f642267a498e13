// plan_lint: the static verifier as a CLI gate (DESIGN.md §11).
//
//   plan_lint <trace-file>...             lint op-trace files (trace_io
//                                         line format): plans + schedule +
//                                         accounting through all passes
//   plan_lint --spec 19-16-7s             lint a generated Vector workload
//   plan_lint --suite [--scale=0.05]      lint the full Fig. 10 suite
//   plan_lint --trace sched.json          lint an exported Chrome trace
//            [--summary out.json]         (rules T01-T04); the summary is
//                                         machine-readable for CI
//                                         cross-checks (check_trace.py)
//
// Common options: --tech=pcm|sttmram|reram, --max-rows=N, --serial.
// Exit status: 0 = every rule held, 1 = diagnostics were reported,
// 2 = usage / IO error.  CI runs this over every example/bench plan, so an
// illegal plan or a dishonest schedule fails the build, not a benchmark.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/vector_workload.hpp"
#include "apps/workloads.hpp"
#include "common/error.hpp"
#include "pinatubo/backend.hpp"
#include "sim/trace_io.hpp"
#include "verify/rules.hpp"
#include "verify/trace_lint.hpp"
#include "verify/verifier.hpp"

using namespace pinatubo;

namespace {

struct LintOptions {
  nvm::Tech tech = nvm::Tech::kPcm;
  unsigned max_rows = 128;
  bool serial = false;
  double scale = 0.05;
};

/// Lints one op trace end to end: the backend's plans, a schedule from
/// the engine, all three verifier passes — what benches price.
verify::Report lint_op_trace(const sim::OpTrace& trace,
                             const LintOptions& opt) {
  const mem::Geometry geo;
  const core::PinatuboBackend backend(geo, {opt.tech, opt.max_rows});
  const std::vector<core::OpPlan> plans = backend.plan(trace);
  const core::PinatuboCostModel model(geo, opt.tech, trace.result_density);
  const core::ExecutionEngine engine(model, core::EngineOptions{opt.serial});
  const verify::Verifier verifier(model, opt.max_rows);
  return verifier.check(plans, engine.run(plans), opt.serial);
}

/// Prints a lint outcome; returns 1 on diagnostics, 0 when clean.
int report_outcome(const std::string& what, const verify::Report& rep) {
  if (rep.ok()) {
    std::printf("plan_lint: %s: OK\n", what.c_str());
    return 0;
  }
  std::fprintf(stderr, "plan_lint: %s: %zu finding(s)\n%s", what.c_str(),
               rep.diags.size(), rep.to_string().c_str());
  return 1;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <trace-file>...\n"
      "       %s [options] --spec <a-b-c(s|r)>\n"
      "       %s [options] --suite [--scale=<0..1>]\n"
      "       %s --trace <sched.json> [--summary <out.json>]\n"
      "options: --tech=pcm|sttmram|reram  --max-rows=<n>  --serial\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  LintOptions opt;
  std::vector<std::string> trace_files;
  std::string spec, chrome_trace, summary_out;
  bool suite = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=')
        return arg.c_str() + n + 1;
      if (arg == flag && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--tech")) {
      try {
        opt.tech = nvm::tech_from_string(v);
      } catch (const Error& e) {
        std::fprintf(stderr, "plan_lint: %s\n", e.what());
        return 2;
      }
    } else if (const char* v = value("--max-rows")) {
      opt.max_rows = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value("--scale")) {
      opt.scale = std::strtod(v, nullptr);
    } else if (const char* v = value("--spec")) {
      spec = v;
    } else if (const char* v = value("--trace")) {
      chrome_trace = v;
    } else if (const char* v = value("--summary")) {
      summary_out = v;
    } else if (arg == "--serial") {
      opt.serial = true;
    } else if (arg == "--suite") {
      suite = true;
    } else if (arg == "--help" || arg == "-h" ||
               arg.compare(0, 2, "--") == 0) {
      return usage(argv[0]);
    } else {
      trace_files.push_back(arg);
    }
  }
  if (!suite && spec.empty() && chrome_trace.empty() && trace_files.empty())
    return usage(argv[0]);

  int status = 0;
  try {
    if (!chrome_trace.empty()) {
      verify::TraceStats stats;
      const verify::Report rep =
          verify::lint_trace_file(chrome_trace, &stats);
      status |= report_outcome("trace " + chrome_trace, rep);
      if (rep.ok())
        std::printf("  %zu spans on %zu tracks, max end %.1f ns\n",
                    stats.spans, stats.tracks, stats.max_end_ns);
      if (!summary_out.empty()) {
        std::ofstream f(summary_out);
        if (!f.good()) {
          std::fprintf(stderr, "plan_lint: cannot write %s\n",
                       summary_out.c_str());
          return 2;
        }
        f << stats.to_json(rep) << '\n';
      }
    }
    if (!spec.empty()) {
      const auto trace =
          apps::vector_trace(apps::VectorSpec::parse(spec));
      status |= report_outcome("spec " + spec, lint_op_trace(trace, opt));
    }
    if (suite)
      for (const auto& named : apps::paper_workloads(opt.scale))
        status |= report_outcome(named.group + "/" + named.name,
                                 lint_op_trace(named.trace, opt));
    for (const std::string& file : trace_files)
      status |= report_outcome(
          file, lint_op_trace(sim::load_trace_file(file), opt));
  } catch (const Error& e) {
    std::fprintf(stderr, "plan_lint: %s\n", e.what());
    return 2;
  }
  return status;
}
