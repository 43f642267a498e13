// Reproduces the paper's evaluation from one run of the backend matrix over
// the Table-1 suite (5 Vector configs, 3 graphs, 3 Fastbit batches):
//   Fig. 10  — bitwise-op speedup normalized to SIMD;
//   Fig. 11  — bitwise-op energy saving, same matrix;
//   Fig. 12  — overall application speedup and energy saving (scalar +
//              bitwise) on the Graph and Fastbit rows, with the Ideal bound
//              and the Amdahl ceiling of each application;
//   Abstract — "~500x speedup, ~28000x energy saving on bitwise operations,
//              and 1.12x overall speedup, 1.11x overall energy saving over
//              the conventional processor" (§6.2 quotes 2800x for the
//              energy Gmean).
//
// Normalization follows the paper: S-DRAM vs SIMD-on-DRAM; AC-PIM,
// Pinatubo and Ideal vs SIMD-on-PCM.  `--scale` shrinks only the Vector
// workloads, so the Fig. 12 rows are the same at every scale.
//
// Expected shape (paper): S-DRAM beats Pinatubo-2 on the long 2-row
// sequential case; Pinatubo-128 ~22x over S-DRAM on average; 14-16-7r
// (random) collapses Pinatubo-128 to Pinatubo-2; AC-PIM never saves more
// energy than the other three; Pinatubo almost reaches Ideal overall, with
// dblp ~1.37x, the loose graphs (eswiki, amazon) far less and Fastbit
// ~1.29x.
//
// Flags: --scale=<f>, --json <path> (headline keys plus the four ratio
// matrices), --trace-out <path> (Chrome trace of Pinatubo-128's schedule).
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "obs/trace.hpp"
#include "pinatubo/backend.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/ideal_backend.hpp"
#include "sim/sdram_backend.hpp"

using namespace pinatubo;
using namespace pinatubo::bench;

namespace {

constexpr std::size_t kPin128 = 3;  // column of Pinatubo-128 in every matrix

std::vector<double> column(const RatioMatrix& m, std::size_t b) {
  std::vector<double> out;
  for (const auto& row : m.ratios) out.push_back(row[b]);
  return out;
}

double max_of(const std::vector<double>& xs) {
  return *std::max_element(xs.begin(), xs.end());
}

void print_chart(const RatioMatrix& m, const char* title, const char* axis) {
  LogChart chart(title, axis);
  chart.set_x_labels(m.workload_names);
  for (std::size_t b = 0; b < m.backend_names.size(); ++b)
    chart.add_series(m.backend_names[b], column(m, b));
  chart.print();
}

double bitwise_time(const sim::BackendResult& r) { return r.bitwise.time_ns; }
double bitwise_energy(const sim::BackendResult& r) {
  return r.bitwise.energy.total_pj();
}
double total_time(const sim::BackendResult& r) { return r.total_time_ns(); }
double total_energy(const sim::BackendResult& r) {
  return r.total_energy_pj();
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  const std::string trace_path = parse_trace_path(argc, argv);
  obs::TraceSession trace(!trace_path.empty());

  auto workloads = apps::paper_workloads(scale);
  auto baselines = run_baselines(workloads);

  sim::SdramBackend sdram;
  sim::AcPimBackend acpim;
  // Pinatubo is priced as the paper's synchronous driver, one op after the
  // other, as S-DRAM issues its row groups; the overlapped engine is an
  // extension (bench_ablation_pipeline), not the paper's number.
  core::PinatuboBackend pin2({}, {.max_rows = 2, .serial = true});
  core::PinatuboBackend pin128({}, {.max_rows = 128, .serial = true});
  pin128.set_trace(&trace);
  std::vector<SuiteRun> runs{
      run_suite(sdram, workloads), run_suite(acpim, workloads),
      run_suite(pin2, workloads), run_suite(pin128, workloads)};
  std::vector<bool> vs_dram{true, false, false, false};

  const auto fig10 =
      build_matrix(workloads, baselines, runs, vs_dram, bitwise_time);
  auto t10 = matrix_table("Fig. 10 — bitwise-op speedup normalized to SIMD",
                          fig10, workloads);
  t10.add_note("paper: Pinatubo-128 ~22x over S-DRAM; Gmean ~500x;");
  t10.add_note("paper: 14-16-7r collapses Pinatubo-128 to Pinatubo-2;");
  t10.add_note("paper: AC-PIM slower than Pinatubo in every case.");
  t10.print();
  std::printf("\nPinatubo-128 / S-DRAM (Gmean): %.1fx\n",
              fig10.gmean[kPin128] / fig10.gmean[0]);
  print_chart(fig10, "Fig. 10 — speedup over SIMD", "speedup (x)");

  const auto fig11 =
      build_matrix(workloads, baselines, runs, vs_dram, bitwise_energy);
  auto t11 = matrix_table(
      "Fig. 11 — bitwise-op energy saving normalized to SIMD", fig11,
      workloads);
  t11.add_note("paper: Pinatubo saves ~2800x on average (Gmean);");
  t11.add_note("paper: AC-PIM never beats S-DRAM/Pinatubo on energy.");
  t11.print();
  print_chart(fig11, "Fig. 11 — energy saving over SIMD", "saving (x)");

  // Fig. 12 keeps the application rows, which follow the Vector rows, and
  // adds the Ideal bound.
  const auto n_vector = std::count_if(
      workloads.begin(), workloads.end(),
      [](const apps::NamedTrace& w) { return w.group == "Vector"; });
  workloads.erase(workloads.begin(), workloads.begin() + n_vector);
  for (auto* run : {&baselines.simd_dram, &baselines.simd_pcm, &runs[0],
                    &runs[1], &runs[2], &runs[3]})
    run->results.erase(run->results.begin(),
                       run->results.begin() + n_vector);
  sim::IdealBackend ideal(sim::MemKind::kPcm);
  runs.push_back(run_suite(ideal, workloads));
  vs_dram.push_back(false);

  const auto fig12_time =
      build_matrix(workloads, baselines, runs, vs_dram, total_time);
  matrix_table("Fig. 12 (left) — overall speedup normalized to SIMD",
               fig12_time, workloads)
      .print();
  std::printf("\n");
  const auto fig12_energy =
      build_matrix(workloads, baselines, runs, vs_dram, total_energy);
  matrix_table("Fig. 12 (right) — overall energy saving normalized to SIMD",
               fig12_energy, workloads)
      .print();
  std::printf("\n");

  // Bitwise time fraction under the SIMD baseline — the Amdahl ceiling.
  Table frac("Bitwise fraction of SIMD-PCM execution (Amdahl ceiling)");
  frac.set_header({"workload", "bitwise %", "ideal speedup"});
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& r = baselines.simd_pcm.results[i];
    const double f = r.bitwise.time_ns / r.total_time_ns();
    frac.add_row({workloads[i].name, Table::num(100 * f, 3),
                  Table::mult(1.0 / (1.0 - f))});
  }
  frac.add_note("paper: dblp 1.37x, Fastbit ~1.29x, overall 1.12x");
  frac.print();

  // The headline is Pinatubo-128's column of each matrix.
  const auto sp_bit = column(fig10, kPin128);
  const auto en_bit = column(fig11, kPin128);
  Table t("Headline numbers (abstract) — measured vs paper");
  t.set_header({"metric", "measured", "paper"});
  t.add_row({"bitwise speedup (Gmean)", Table::mult(fig10.gmean[kPin128]),
             "~500x"});
  t.add_row({"bitwise speedup (best workload)", Table::mult(max_of(sp_bit)),
             "-"});
  t.add_row({"bitwise energy saving (Gmean)",
             Table::mult(fig11.gmean[kPin128]), "~2800x (abstract: ~28000x)"});
  t.add_row({"bitwise energy saving (best)", Table::mult(max_of(en_bit)),
             "-"});
  t.add_row({"overall app speedup (Gmean)",
             Table::mult(fig12_time.gmean[kPin128]), "1.12x"});
  t.add_row({"overall app energy saving (Gmean)",
             Table::mult(fig12_energy.gmean[kPin128]), "1.11x"});
  t.add_note("overall = Graph + Fastbit applications, vs SIMD on PCM");
  t.print();

  JsonReport json;
  json.add("scale", scale);
  json.add("bitwise_speedup_gmean", fig10.gmean[kPin128]);
  json.add("bitwise_energy_gmean", fig11.gmean[kPin128]);
  json.add("app_speedup_gmean", fig12_time.gmean[kPin128]);
  json.add("app_energy_gmean", fig12_energy.gmean[kPin128]);
  json.add_array("bitwise_speedup", sp_bit);
  json.add_array("bitwise_energy", en_bit);
  json.add_array("app_speedup", column(fig12_time, kPin128));
  json.add_array("app_energy", column(fig12_energy, kPin128));
  json.add_matrix("fig10_speedup", fig10);
  json.add_matrix("fig11_energy", fig11);
  json.add_matrix("fig12_speedup", fig12_time);
  json.add_matrix("fig12_energy", fig12_energy);
  json.write(parse_json_path(argc, argv));

  if (trace.enabled()) {
    trace.write_chrome_json(trace_path);
    std::printf("wrote schedule trace to %s (%zu spans); open in "
                "chrome://tracing or ui.perfetto.dev\n",
                trace_path.c_str(), trace.spans().size());
  }
  return 0;
}
