// Reproduces Fig. 9: Pinatubo's OR-operation throughput (GBps) versus
// bit-vector length (2^10 .. 2^20) for 2..128-row operations.
//
// Expected shape (paper):
//   * throughput rises with vector length;
//   * turning point A at 2^14 (SA sharing: longer vectors need serial
//     column sensing steps);
//   * turning point B at 2^19 (row-group limit: longer vectors map to
//     ranks that work in serial);
//   * more rows per op => proportionally more equivalent bandwidth,
//     crossing from below the DDR3 bus bandwidth (12.8 GB/s) through the
//     memory-internal region into the beyond-internal region (~1e4 GBps).
//
// Extension section (beyond the paper): batched throughput through the
// execution engine on a two-rank workload.  `--serial` prices the same
// batch in program order (the paper's synchronous driver); `--json <path>`
// dumps both sections machine-readably.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "obs/schedule_trace.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/engine.hpp"

using namespace pinatubo;
using namespace pinatubo::bench;

int main(int argc, char** argv) {
  const bool serial_only = parse_flag(argc, argv, "serial");
  JsonReport json;

  const mem::Geometry geo;
  core::PinatuboBackend pin(geo, {nvm::Tech::kPcm, 128});

  const std::vector<unsigned> row_counts{2, 4, 8, 16, 32, 64, 128};
  std::vector<std::string> x_labels;
  for (unsigned a = 10; a <= 20; ++a) x_labels.push_back(std::to_string(a));

  Table table("Fig. 9 — Pinatubo OR throughput (GBps) vs bit-vector length");
  std::vector<std::string> header{"rows\\len(2^n)"};
  for (const auto& x : x_labels) header.push_back(x);
  table.set_header(header);

  LogChart chart("Fig. 9 — OR throughput", "GBps");
  chart.set_x_labels(x_labels);
  chart.add_hline("DDR3 bus bandwidth", 12.8);

  for (const unsigned n : row_counts) {
    std::vector<std::string> row{std::to_string(n) + "-row"};
    std::vector<double> series;
    for (unsigned a = 10; a <= 20; ++a) {
      const std::uint64_t bits = 1ull << a;
      // n consecutively allocated vectors, in-place destination.
      std::vector<std::uint64_t> ids;
      for (unsigned k = 0; k < n; ++k) ids.push_back(k);
      const auto cost = pin.op_cost(BitOp::kOr, ids, n - 1, bits, false, 0.5);
      const double gbps =
          static_cast<double>(n) * static_cast<double>(bits) / 8.0 /
          cost.time_ns;
      row.push_back(Table::num(gbps, 3));
      series.push_back(gbps);
    }
    table.add_row(row);
    chart.add_series(std::to_string(n) + "-row", series);
    json.add_array("or_gbps_" + std::to_string(n) + "row", series);
  }
  table.add_note("turning point A expected at 2^14 (SA 32:1 sharing)");
  table.add_note("turning point B expected at 2^19 (row-group / rank limit)");
  table.add_note("DDR3-1600 bus bandwidth = 12.8 GBps");
  table.print();
  std::printf("\n");
  chart.print();

  // --- Extension: batched engine throughput on a two-rank workload ----
  // 64 independent 8-row ORs on full-group (2^19-bit) vectors whose
  // consecutive ops alternate ranks: the engine overlaps the two rank
  // clusters, the serial baseline sums every op.
  constexpr unsigned kOps = 64;
  constexpr unsigned kRowsPerOp = 8;
  constexpr std::uint64_t kBits = 1ull << 19;
  // Full-group vectors: 128 rows/subarray, 64 subarrays/rank, so index
  // 8192 is the first vector of rank 1.
  const std::uint64_t rank1 = 64ull * 128;
  sim::OpTrace batch;
  std::vector<std::uint64_t> cursor{0, rank1};
  for (unsigned op = 0; op < kOps; ++op) {
    sim::TraceOp o{BitOp::kOr, {}, 0, kBits};
    for (unsigned k = 0; k < kRowsPerOp; ++k)
      o.srcs.push_back(cursor[op % 2]++);
    o.dst = o.srcs.back();
    batch.ops.push_back(std::move(o));
  }
  const std::vector<core::OpPlan> plans = pin.plan(batch);

  const double moved_bytes =
      static_cast<double>(kOps) * kRowsPerOp * kBits / 8.0;
  const core::PinatuboCostModel model(geo, nvm::Tech::kPcm);
  const core::ExecutionEngine engine(
      model, core::EngineOptions{serial_only});
  const auto r = engine.run(plans);
  const double serial_gbps = moved_bytes / r.serial_time_ns;
  const double engine_gbps = moved_bytes / r.cost.time_ns;

  Table bt(serial_only
               ? "Batched throughput — serial baseline (--serial)"
               : "Batched throughput — engine vs serial baseline");
  bt.set_header({"schedule", "time", "GBps"});
  bt.add_row({"serial sum", units::format_time(r.serial_time_ns),
              Table::num(serial_gbps, 3)});
  bt.add_row({serial_only ? "engine (serial mode)" : "engine (overlapped)",
              units::format_time(r.cost.time_ns),
              Table::num(engine_gbps, 3)});
  bt.add_row({"speedup", "-", Table::mult(r.serial_time_ns / r.cost.time_ns)});
  bt.add_note("64 independent 8-row ORs on 2^19-bit vectors, ops alternate");
  bt.add_note("ranks; the engine overlaps the two rank clusters");
  std::printf("\n");
  bt.print();

  json.add("batched_ops", static_cast<double>(kOps));
  json.add("batched_serial_gbps", serial_gbps);
  json.add("batched_engine_gbps", engine_gbps);
  json.add("batched_speedup", r.serial_time_ns / r.cost.time_ns);
  json.add("engine_mode", serial_only ? "serial" : "overlapped");
  json.write(parse_json_path(argc, argv));

  const std::string trace_path = parse_trace_path(argc, argv);
  if (!trace_path.empty()) {
    obs::TraceSession trace(true);
    obs::render_schedule(trace, plans, r, 0.0);
    trace.write_chrome_json(trace_path);
    std::printf("\nwrote batched-section schedule trace to %s (%zu spans)\n",
                trace_path.c_str(), trace.spans().size());
  }
  return 0;
}
