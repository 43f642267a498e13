// The Pinatubo timing/energy backend for architecture comparisons.
//
// Prices an OpTrace on the Pinatubo hardware without materializing data:
// logical vector ids map to placements arithmetically (the allocator's
// virtual_placement), the scheduler classifies each op, and the cost model
// prices the plan.  This lets the Fig. 9-12 benches sweep working sets far
// bigger than the simulated DIMM, as the paper's datasets are.
//
// `max_rows` selects the paper's Pinatubo-2 / Pinatubo-128 configurations;
// the technology margin (CSA reference analysis) can only lower it.
#pragma once

#include "obs/trace.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"
#include "reliability/policy.hpp"
#include "sim/backend.hpp"
#include "sim/cpu_model.hpp"

namespace pinatubo::core {

struct PinatuboBackendConfig {
  nvm::Tech tech = nvm::Tech::kPcm;
  unsigned max_rows = 128;
  AllocPolicy policy = AllocPolicy::kPimAware;
  /// Price traces as the program-order serial sum instead of the
  /// execution engine's dependency-aware overlapped schedule.
  bool serial = false;
  /// Static verifier gate over every priced trace (DESIGN.md §11).  kPost
  /// and kAlways are equivalent here — the backend sees whole batches, not
  /// incremental submissions.  Defaults to the build-type default.
  reliability::VerifyLevel verify = reliability::VerifyConfig{}.level;
};

class PinatuboBackend final : public sim::Backend {
 public:
  explicit PinatuboBackend(const mem::Geometry& geo = {},
                           const PinatuboBackendConfig& cfg = {});

  std::string name() const override;
  /// Prices the whole trace as one batch through `run_batch`.
  sim::BackendResult execute(const sim::OpTrace& trace) override;

  /// Lowers one op, or every op of a trace, into plans over the virtual
  /// placements of its logical ids — the plans `execute`, `op_cost` and
  /// plan_lint price.
  OpPlan plan(const sim::TraceOp& op) const;
  std::vector<OpPlan> plan(const sim::OpTrace& trace) const;

  /// Step-class counts of the last executed trace (workload analysis),
  /// read from the engine's profile.
  struct ClassCounts {
    std::uint64_t intra = 0, inter_sub = 0, inter_bank = 0;
  };
  ClassCounts last_class_counts() const;

  /// Cost of a single op given operand/destination indices (benches).
  mem::Cost op_cost(BitOp op, const std::vector<std::uint64_t>& src_ids,
                    std::uint64_t dst_id, std::uint64_t bits,
                    bool host_reads_result, double result_density) const;

  /// Attaches an observability session (nullptr detaches): each executed
  /// trace is rendered as one batch of spans, successive traces tiled
  /// end-to-end on the session timeline.
  void set_trace(obs::TraceSession* session) { trace_ = session; }

 private:
  mem::Geometry geo_;
  PinatuboBackendConfig cfg_;
  RowAllocator alloc_;
  OpScheduler sched_;
  ClassProfile profile_;   ///< the last executed trace's
  obs::TraceSession* trace_ = nullptr;
  double trace_t0_ = 0.0;  ///< summed makespan of the traces so far
};

}  // namespace pinatubo::core
