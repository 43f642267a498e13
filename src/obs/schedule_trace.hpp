// Renders an ExecutionEngine schedule into a TraceSession.
//
// One priced batch becomes one block of spans:
//   * one track per rank timeline ("ch0/rank1") carrying the batch's
//     ScheduledSteps, category = step class (intra-sub / inter-sub /
//     inter-bank / host-read), so Perfetto can filter/aggregate by class;
//   * one track per channel data bus ("ch0/bus") carrying the trailing
//     burst window of every step that moves bytes off-rank, so bus
//     contention is visible as back-to-back spans on a single line.
// Span durations are exactly the engine's per-step costs, which is what
// makes the trace reconcile with the ClassProfile (see obs/trace.hpp).
#pragma once

#include <vector>

#include "obs/trace.hpp"
#include "pinatubo/engine.hpp"

namespace pinatubo::obs {

/// Appends one priced batch to `session`, shifting every span by `t0_ns`
/// (successive batches tile the session timeline back-to-back, mirroring
/// how the runtime accrues batch makespans serially into its cost).
void render_schedule(TraceSession& session,
                     const std::vector<core::OpPlan>& plans,
                     const core::ExecutionEngine::Result& result,
                     double t0_ns);

}  // namespace pinatubo::obs
