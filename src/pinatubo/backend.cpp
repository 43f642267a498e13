#include "pinatubo/backend.hpp"

#include "common/error.hpp"
#include "obs/schedule_trace.hpp"
#include "pinatubo/engine.hpp"
#include "verify/verifier.hpp"

namespace pinatubo::core {

PinatuboBackend::PinatuboBackend(const mem::Geometry& geo,
                                 const PinatuboBackendConfig& cfg)
    : geo_(geo), cfg_(cfg), alloc_(geo, cfg.policy),
      sched_(geo, SchedulerConfig{cfg.max_rows, cfg.tech}) {
  geo_.validate();
}

std::string PinatuboBackend::name() const {
  return "Pinatubo-" + std::to_string(sched_.effective_max_rows(BitOp::kOr));
}

mem::Cost PinatuboBackend::op_cost(BitOp op,
                                   const std::vector<std::uint64_t>& src_ids,
                                   std::uint64_t dst_id, std::uint64_t bits,
                                   bool host_reads_result,
                                   double result_density) const {
  std::vector<Placement> srcs;
  srcs.reserve(src_ids.size());
  for (const auto id : src_ids)
    srcs.push_back(alloc_.virtual_placement(id, bits));
  const Placement dst = alloc_.virtual_placement(dst_id, bits);
  const OpPlan plan = sched_.plan(op, srcs, dst, host_reads_result);
  PinatuboCostModel model(geo_, cfg_.tech, result_density);
  return model.plan_cost(plan);
}

sim::BackendResult PinatuboBackend::execute(const sim::OpTrace& trace) {
  PinatuboCostModel model(geo_, cfg_.tech, trace.result_density);
  classes_ = {};
  sim::BackendResult result;
  std::vector<OpPlan> plans;
  plans.reserve(trace.ops.size());
  for (const auto& op : trace.ops) {
    std::vector<Placement> srcs;
    srcs.reserve(op.srcs.size());
    for (const auto id : op.srcs)
      srcs.push_back(alloc_.virtual_placement(id, op.bits));
    const Placement dst = alloc_.virtual_placement(op.dst, op.bits);
    plans.push_back(sched_.plan(op.op, srcs, dst, op.host_reads_result));
    classes_.intra += plans.back().count(StepKind::kIntraSub);
    classes_.inter_sub += plans.back().count(StepKind::kInterSub);
    classes_.inter_bank += plans.back().count(StepKind::kInterBank);
  }
  // The whole trace is one batch: the engine overlaps independent ops
  // across ranks (or serializes them under cfg.serial).
  const ExecutionEngine engine(model, EngineOptions{cfg_.serial});
  const ExecutionEngine::Result r = engine.run(plans);
  if (cfg_.verify != reliability::VerifyLevel::kOff) {
    const verify::Verifier verifier(model, cfg_.max_rows);
    const verify::Report rep = verifier.check(plans, r, cfg_.serial);
    PIN_CHECK_MSG(rep.ok(), "static verifier rejected trace '"
                                << trace.name << "':\n"
                                << rep.to_string());
  }
  if (trace_ && trace_->enabled()) {
    trace_t0_ = obs::render_schedule(*trace_, plans, r, trace_t0_);
    trace_->count("backend.batches");
    trace_->count("backend.bus_bytes", r.profile.bus_bytes);
  }
  result.bitwise = r.cost;
  // Scalar remainder on the host CPU over PCM.
  result.scalar = sim::scalar_cost({}, sim::MemKind::kPcm, trace.scalar_ops,
                                   trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::core
