#include "pinatubo/backend.hpp"

#include <optional>

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

OpPlan PinatuboBackend::plan(const sim::TraceOp& op) const {
  std::vector<Placement> srcs;
  srcs.reserve(op.srcs.size());
  for (const auto id : op.srcs)
    srcs.push_back(alloc_.virtual_placement(id, op.bits));
  const Placement dst = alloc_.virtual_placement(op.dst, op.bits);
  return sched_.plan(op.op, srcs, dst, op.host_reads_result);
}

std::vector<OpPlan> PinatuboBackend::plan(const sim::OpTrace& trace) const {
  std::vector<OpPlan> plans;
  plans.reserve(trace.ops.size());
  for (const auto& op : trace.ops) plans.push_back(plan(op));
  return plans;
}

PinatuboBackend::ClassCounts PinatuboBackend::last_class_counts() const {
  return {profile_.steps[step_index(StepKind::kIntraSub)],
          profile_.steps[step_index(StepKind::kInterSub)],
          profile_.steps[step_index(StepKind::kInterBank)]};
}

mem::Cost PinatuboBackend::op_cost(BitOp op,
                                   const std::vector<std::uint64_t>& src_ids,
                                   std::uint64_t dst_id, std::uint64_t bits,
                                   bool host_reads_result,
                                   double result_density) const {
  const PinatuboCostModel model(geo_, cfg_.tech, result_density);
  return model.plan_cost(
      plan(sim::TraceOp{op, src_ids, dst_id, bits, host_reads_result}));
}

sim::BackendResult PinatuboBackend::execute(const sim::OpTrace& trace) {
  const PinatuboCostModel model(geo_, cfg_.tech, trace.result_density);
  std::optional<verify::Verifier> gate;
  if (cfg_.verify != reliability::VerifyLevel::kOff)
    gate.emplace(model, cfg_.max_rows);
  // The whole trace is one batch: the engine overlaps independent ops
  // across ranks (or serializes them under cfg.serial).
  const ExecutionEngine::Result r =
      run_batch(ExecutionEngine(model, EngineOptions{cfg_.serial}),
                plan(trace), gate ? &*gate : nullptr, trace_, trace_t0_);
  trace_t0_ += r.cost.time_ns;
  profile_ = r.profile;
  sim::BackendResult result;
  result.bitwise = r.cost;
  // Scalar remainder on the host CPU over PCM.
  result.scalar = sim::scalar_cost({}, sim::MemKind::kPcm, trace.scalar_ops,
                                   trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::core
