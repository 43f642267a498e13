// Extension study (beyond the paper): the paper's driver issues one
// operation's command sequence at a time ("ranks work in serial").  The
// execution engine overlaps INDEPENDENT operations that execute on
// different ranks, serializing only on the shared buses.  This prices
// both schedules for sequential multi-row OR workloads whose consecutive
// ops alternate ranks.
#include <cstdio>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/engine.hpp"

using namespace pinatubo;
using namespace pinatubo::core;

int main() {
  const mem::Geometry geo;
  const PinatuboBackend pin(geo, {nvm::Tech::kPcm, 128});
  const PinatuboCostModel model(geo, nvm::Tech::kPcm);

  Table t("Extension — synchronous driver vs execution engine");
  t.set_header({"workload", "ops", "serial", "engine", "speedup"});

  // Full-group vectors: 128 rows/subarray, 64 subarrays/rank, so index
  // 8192 is the first vector of rank 1.
  const std::uint64_t rank1 = 64ull * 128;
  for (const unsigned n : {2u, 8u, 128u}) {
    // 64 independent n-row ORs, consecutive ops on alternating ranks
    // (a batch scheduler would interleave exactly like this).
    sim::OpTrace batch;
    std::vector<std::uint64_t> cursor{0, rank1};
    for (int op = 0; op < 64; ++op) {
      sim::TraceOp o{BitOp::kOr, {}, 0, 1ull << 19};
      for (unsigned k = 0; k < n; ++k) o.srcs.push_back(cursor[op % 2]++);
      o.dst = o.srcs.back();
      batch.ops.push_back(std::move(o));
    }
    const std::vector<OpPlan> plans = pin.plan(batch);
    const auto serial = ExecutionEngine(model, EngineOptions{true}).run(plans);
    const auto r = ExecutionEngine(model).run(plans);
    t.add_row({std::to_string(n) + "-row OR x64", "64",
               units::format_time(serial.cost.time_ns),
               units::format_time(r.cost.time_ns),
               Table::mult(serial.cost.time_ns / r.cost.time_ns)});
    // Energy must be schedule-invariant.
    if (std::abs(serial.cost.energy.total_pj() - r.cost.energy.total_pj()) >
        1e-6 * serial.cost.energy.total_pj())
      std::printf("WARNING: energy changed under the engine schedule!\n");
  }
  t.add_note("ops alternate ranks every 128 rows of allocation, so the");
  t.add_note("engine's overlapped schedule approaches 2x on two ranks; the");
  t.add_note("paper's synchronous driver (pim_op without a batch) gets 1x");
  t.print();
  return 0;
}
