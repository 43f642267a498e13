// Rule catalog of the static plan/schedule verifier (DESIGN.md §11).
//
// Every invariant the verifier enforces has a stable id ("P07"), a short
// kebab-case name ("double-activate"), and a one-line invariant statement.
// Diagnostics reference rules by id so tests can assert the *exact* rule an
// adversarial input trips, and CI logs stay greppable across refactors.
//
// Id ranges mirror the three passes plus the trace linter:
//   P** — protocol / state-machine pass (plan-level legality),
//   H** — hazard & resource pass (schedule-level legality),
//   R** — reconciliation: the makespan (R04) and serial mode (R05) in the
//         schedule pass, a rendered trace against its class profile (R01,
//         R02, R04) in `reconcile_trace`; R03 is retired and never reused,
//   T** — exported-trace lint (Chrome trace-event JSON).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pinatubo::verify {

enum class Rule : std::uint8_t {
  // ---- protocol / state-machine pass ------------------------------------
  kStepEmptyReads,      ///< P01: every step names the rows it opens
  kStepShape,           ///< P02: rows/reads/bits/col_steps are consistent
  kActivationOverflow,  ///< P03: activation width within LWL/CSA limits
  kAddrOutOfRange,      ///< P04: addresses lie inside the geometry
  kCrossChannel,        ///< P05: a step never touches another channel
  kClusterMismatch,     ///< P06: reads match the executing bank cluster
  kDoubleActivate,      ///< P07: one wordline per operand of a multi-ACT
  kWriteBypassNoSense,  ///< P08: WD bypass requires a preceding sense
  kColumnOverflow,      ///< P09: column windows stay inside the mux share
  kReadColsMismatch,    ///< P10: read_cols aligns 1:1 with reads
  kWriteKeyMismatch,    ///< P11: the write targets the step's own row key
  kBadCommandOrder,     ///< P12: lowered DDR commands obey the automaton
  // ---- hazard & resource pass -------------------------------------------
  kScheduleShape,   ///< H01: schedule covers each step once, honest times
  kHazardViolated,  ///< H02: RAW/WAW/WAR edges respected by the schedule
  kRankOverlap,     ///< H03: per-(channel,rank) busy windows never overlap
  kBusOverlap,      ///< H04: per-channel data-bus bursts never overlap
  // ---- reconciliation ---------------------------------------------------
  kClassTimeMismatch,   ///< R01: per-class span sums equal the profile
  kClassCountMismatch,  ///< R02: per-class span counts equal the profile
  kMakespanMismatch,    ///< R04: max schedule end equals the reported cost
  kSerialSumMismatch,   ///< R05: serial-mode makespan equals the baseline
  // ---- exported-trace lint ----------------------------------------------
  kTraceParse,           ///< T01: the file is well-formed trace-event JSON
  kTracePastMakespan,    ///< T02: spans end by otherData.max_span_end_ns
  kTraceTrackOverlap,    ///< T03: spans on one track never overlap
  kTraceCounterMismatch  ///< T04: pim.steps.* counters match span counts
};

inline constexpr std::size_t kRuleCount =
    static_cast<std::size_t>(Rule::kTraceCounterMismatch) + 1;

/// Stable short id, e.g. "P07".
const char* rule_id(Rule r);
/// Kebab-case name, e.g. "double-activate".
const char* rule_name(Rule r);
/// One-line statement of the invariant the rule enforces.
const char* rule_invariant(Rule r);

/// One violation: which rule, where (plan/step indices of the batch; both
/// SIZE_MAX for batch-level findings), and a human-readable message.
struct Diagnostic {
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  Rule rule = Rule::kStepEmptyReads;
  std::size_t plan = kNoIndex;
  std::size_t step = kNoIndex;
  std::string message;

  /// "P07 double-activate [plan 2 step 0]: ..." — one greppable line.
  std::string to_string() const;
};

/// The outcome of a verification pass: empty means every rule held.
struct Report {
  std::vector<Diagnostic> diags;

  bool ok() const { return diags.empty(); }
  bool tripped(Rule r) const;
  std::size_t count(Rule r) const;
  void add(Rule r, std::size_t plan, std::size_t step, std::string message);
  /// All diagnostics, one per line.
  std::string to_string() const;
};

}  // namespace pinatubo::verify
