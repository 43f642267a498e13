#include "verify/rules.hpp"

#include <sstream>

namespace pinatubo::verify {

namespace {

struct RuleInfo {
  const char* id;
  const char* name;
  const char* invariant;
};

constexpr RuleInfo kRules[kRuleCount] = {
    {"P01", "step-empty-reads",
     "every plan step names at least one operand row"},
    {"P02", "step-shape",
     "rows matches reads, bits > 0, col_steps >= 1, buffer ops latch <= 2 "
     "operands"},
    {"P03", "activation-overflow",
     "multi-row activation width stays within the LWL latch count, the "
     "configured row cap, and the CSA's reliable reference range"},
    {"P04", "addr-out-of-range",
     "every row address lies inside the configured geometry"},
    {"P05", "cross-channel",
     "a step and all rows it touches live on the step's channel"},
    {"P06", "cluster-mismatch",
     "reads address the executing lock-step bank cluster (bank collapsed; "
     "intra: the step's rank+subarray, inter-sub: the step's rank)"},
    {"P07", "double-activate",
     "a multi-row activation opens each wordline at most once"},
    {"P08", "write-bypass-no-sense",
     "a write-driver bypass only follows a sense of the same step"},
    {"P09", "column-overflow",
     "column windows stay inside the SA mux share"},
    {"P10", "read-cols-mismatch",
     "read_cols, when present, aligns one entry per read"},
    {"P11", "write-key-mismatch",
     "the writeback targets the step's own (channel,rank,subarray,row)"},
    {"P12", "bad-command-order",
     "the lowered DDR command stream obeys the per-cluster PIM automaton "
     "(mode-set, reset, ACTs, senses, bypass / loads, logic op, writeback)"},
    {"H01", "schedule-shape",
     "the schedule places every step exactly once with duration equal to "
     "its cost and an honest trailing bus burst"},
    {"H02", "hazard-violated",
     "every RAW/WAW/WAR edge re-derived from row keys is respected "
     "(dependent steps start after their producers complete)"},
    {"H03", "rank-overlap",
     "steps on one (channel,rank) bank cluster never overlap in time"},
    {"H04", "bus-overlap",
     "data-bus bursts of one channel never overlap in time"},
    {"R01", "class-time-mismatch",
     "per-class summed trace span durations equal the class profile"},
    {"R02", "class-count-mismatch",
     "per-class trace span counts equal the class profile"},
    {"R04", "makespan-mismatch",
     "the latest schedule completion equals the reported batch makespan"},
    {"R05", "serial-sum-mismatch",
     "the serial baseline equals the program-order sum of step times"},
    {"T01", "trace-parse",
     "the file is well-formed Chrome trace-event JSON in the object form"},
    {"T02", "trace-past-makespan",
     "every span ends by otherData.max_span_end_ns (fixed-point slack)"},
    {"T03", "trace-track-overlap",
     "spans on one track (rank, bus, host timeline) never overlap"},
    {"T04", "trace-counter-mismatch",
     "pim.steps.* counters equal the per-class span counts"},
};

const RuleInfo& info(Rule r) { return kRules[static_cast<std::size_t>(r)]; }

}  // namespace

const char* rule_id(Rule r) { return info(r).id; }
const char* rule_name(Rule r) { return info(r).name; }
const char* rule_invariant(Rule r) { return info(r).invariant; }

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << rule_id(rule) << ' ' << rule_name(rule);
  if (plan != kNoIndex) {
    os << " [plan " << plan;
    if (step != kNoIndex) os << " step " << step;
    os << ']';
  }
  os << ": " << message;
  return os.str();
}

bool Report::tripped(Rule r) const {
  for (const Diagnostic& d : diags)
    if (d.rule == r) return true;
  return false;
}

std::size_t Report::count(Rule r) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) n += d.rule == r;
  return n;
}

void Report::add(Rule r, std::size_t plan, std::size_t step,
                 std::string message) {
  diags.push_back({r, plan, step, std::move(message)});
}

std::string Report::to_string() const {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace pinatubo::verify
