// Static plan/schedule verifier (DESIGN.md §11).
//
// A deterministic checker over the two execution IRs — `core::PlanStep`
// streams and `core::ExecutionEngine` schedules — that proves a batch legal
// before execution and reconciled after it, in three passes:
//
//   1. protocol / state-machine pass (plan-level): `mem::PimProtocol`, the
//      one DDR-PIM automaton the command replayer also runs, over each
//      step's lowered commands rejects illegal orders (paper §5: multi-row
//      activation needs reset + ACTs on that subarray before sensing, the
//      write-driver bypass needs a sense, buffer logic needs its operand
//      loads and a binary writeback both of them), plus structural
//      legality — activation widths vs. the LWL latch count and the CSA's
//      reliable reference range, geometry-bounded addresses, bank-cluster
//      locality, column windows inside the SA mux share, one wordline per
//      operand;
//
//   2. hazard & resource pass (schedule-level): re-derives the RAW/WAW/WAR
//      graph from the same bank-collapsed row keys the engine uses and
//      checks every edge is respected, then checks the machine's physical
//      exclusivity — per-(channel,rank) bank-cluster busy windows and
//      per-channel data-bus bursts (`bus_ns` tails) never overlap, retry /
//      remap steps from the reliability ladder included;
//
//   3. reconciliation pass: two checks that compare independent numbers —
//      the latest schedule end equals the reported makespan (R04), and a
//      serial-mode result's makespan equals its serial baseline (R05).
//      The per-class, energy and serial-sum totals are summed once, by the
//      engine; `reconcile_trace` below checks a rendered trace against the
//      class profile (R01/R02/R04).
//
// The verifier never mutates anything and never throws on bad input; it
// returns structured diagnostics (rule id, plan/step index, message).
// Callers decide the policy (the runtime throws under verify.level, the
// plan_lint CLI exits nonzero).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/csa.hpp"
#include "obs/trace.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/engine.hpp"
#include "verify/rules.hpp"

namespace pinatubo::verify {

class Verifier {
 public:
  /// `max_rows_cap` is the configured activation cap (Pinatubo-2 vs -128);
  /// the LWL latch count and CSA margins can only lower the legal width.
  explicit Verifier(const core::PinatuboCostModel& model,
                    unsigned max_rows_cap = 128);

  /// Protocol pass over one plan.
  Report check(const core::OpPlan& plan) const;
  /// Protocol pass over a batch.
  Report check(const std::vector<core::OpPlan>& plans) const;
  /// All three passes: protocol over the batch, hazard & resource over the
  /// schedule, reconciliation of the result's makespan.  When the
  /// protocol pass already failed, the later passes are skipped (their
  /// pricing would be meaningless on malformed steps).  `serial` must
  /// mirror the engine option the result was produced under.
  Report check(const std::vector<core::OpPlan>& plans,
               const core::ExecutionEngine::Result& result,
               bool serial = false) const;

  /// The protocol automaton over a raw DDR command stream (e.g. the
  /// runtime's recorded `commands()`), reported as P03/P08/P12.  Sequences
  /// are self-contained per step, each opened by a mode-set, so one linear
  /// scan checks the whole stream.
  Report check_commands(const std::vector<mem::Command>& cmds) const;

  const core::PinatuboCostModel& model() const { return *model_; }
  unsigned max_rows_cap() const { return max_rows_cap_; }

 private:
  /// One step's re-derived price, computed once per `check(plans, result)`
  /// and read by the H01 pass.
  struct StepPrice {
    double time_ns;
    std::uint64_t bus_bytes;
  };
  /// Plan steps flattened in program order: step i of plan p sits at
  /// `offset[p] + i` of `price`.
  struct Priced {
    std::vector<std::size_t> offset;
    std::vector<StepPrice> price;
  };

  /// `cmds` is the caller's lowering buffer, reused across steps.
  void check_step(std::size_t plan, std::size_t step,
                  const core::PlanStep& s, std::vector<mem::Command>& cmds,
                  Report& rep) const;
  void command_automaton(const std::vector<mem::Command>& cmds,
                         std::size_t plan, std::size_t step,
                         Report& rep) const;
  Priced price(const std::vector<core::OpPlan>& plans) const;
  void hazard_resource_pass(const std::vector<core::OpPlan>& plans,
                            const core::ExecutionEngine::Result& result,
                            const Priced& priced, Report& rep) const;

  const core::PinatuboCostModel* model_;
  unsigned max_rows_cap_;
  mem::PimProtocol protocol_;
  circuit::CsaModel csa_;
};

/// Reconciles a live trace session against the accounting it was rendered
/// from: per step class, summed span durations and span counts must equal
/// the profile's (R01/R02), and the latest span end must equal the accrued
/// `makespan_ns` (R04).  This is test_obs_reconcile's contract as a
/// reusable library call.
Report reconcile_trace(const obs::TraceSession& trace,
                       const core::ClassProfile& expect, double makespan_ns);

}  // namespace pinatubo::verify
