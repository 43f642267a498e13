#include "obs/schedule_trace.hpp"

#include <string>

#include "common/error.hpp"

namespace pinatubo::obs {

void render_schedule(TraceSession& session,
                     const std::vector<core::OpPlan>& plans,
                     const core::ExecutionEngine::Result& result,
                     double t0_ns) {
  if (!session.enabled()) return;
  for (const auto& ss : result.schedule) {
    PIN_CHECK_MSG(ss.plan < plans.size() &&
                      ss.step < plans[ss.plan].steps.size(),
                  "schedule step out of range");
    const core::PlanStep& step = plans[ss.plan].steps[ss.step];
    const std::string ch = "ch" + std::to_string(step.channel);
    const std::uint32_t rank_track =
        session.track(ch + "/rank" + std::to_string(step.rank));
    // Name carries enough to trace a span back to its op: batch position,
    // step position, the logical op, and the rows it opens.
    std::string name = "op" + std::to_string(ss.plan) + "." +
                       std::to_string(ss.step) + " " + to_string(step.op) +
                       " r" + std::to_string(step.rows);
    if (step.attempt > 0) name += " retry" + std::to_string(step.attempt);
    session.span(name, t0_ns + ss.start_ns, ss.done_ns - ss.start_ns,
                 rank_track, to_string(step.kind));
    if (ss.bus_ns > 0.0) {
      // The burst drains the step's tail: [done - bus_ns, done] on the
      // channel's shared data bus.
      const std::uint32_t bus_track = session.track(ch + "/bus");
      session.span(name, t0_ns + ss.done_ns - ss.bus_ns, ss.bus_ns,
                   bus_track, "bus");
    }
  }
}

}  // namespace pinatubo::obs
