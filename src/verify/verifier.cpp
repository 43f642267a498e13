#include "verify/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "nvm/technology.hpp"

namespace pinatubo::verify {

namespace {

using core::OpPlan;
using core::PlanStep;
using core::StepKind;

/// Relative slack for floating-point accounting comparisons: the sums are
/// computed in different orders on both sides, so exact equality is not
/// guaranteed, but anything past ~1e-9 relative is a real timing-model bug
/// (the fixed-point trace exporters round at 0.1 ns, far coarser).
double slack(double expected) { return 1e-9 * (1.0 + std::abs(expected)); }

bool near(double got, double expected) {
  return std::abs(got - expected) <= slack(expected);
}

/// Hazard key: row address with the bank collapsed — identical to the
/// execution engine's (PIM commands broadcast across the lock-step bank
/// cluster, so one (channel,rank,subarray,row) slice is one unit of data).
std::uint64_t row_key(const mem::RowAddr& a) {
  return (static_cast<std::uint64_t>(a.channel) << 48) |
         (static_cast<std::uint64_t>(a.rank) << 40) |
         (static_cast<std::uint64_t>(a.subarray) << 24) |
         static_cast<std::uint64_t>(a.row);
}

std::string addr_str(const mem::RowAddr& a) { return a.to_string(); }

/// Diagnostic text: `parts` streamed in order.
template <typename... Parts>
std::string msg(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Bounds-checks one row address against the geometry.
bool addr_in_range(const mem::Geometry& g, const mem::RowAddr& a) {
  return a.channel < g.channels && a.rank < g.ranks_per_channel &&
         a.bank < g.banks_per_chip && a.subarray < g.subarrays_per_bank &&
         a.row < g.rows_per_subarray;
}

/// The reconciliation pass: R04 and, for a serial-mode result, R05.
void reconcile_pass(const core::ExecutionEngine::Result& result, bool serial,
                    Report& rep) {
  if (rep.tripped(Rule::kScheduleShape)) return;  // the max end is meaningless
  const auto none = Diagnostic::kNoIndex;
  double max_done = 0.0;
  for (const auto& ss : result.schedule)
    max_done = std::max(max_done, ss.done_ns);
  if (!near(max_done, result.cost.time_ns))
    rep.add(Rule::kMakespanMismatch, none, none,
            msg("last step completes at ", max_done,
                " ns, batch makespan claims ", result.cost.time_ns, " ns"));
  if (serial && !near(result.cost.time_ns, result.serial_time_ns))
    rep.add(Rule::kSerialSumMismatch, none, none,
            msg("serial-mode makespan ", result.cost.time_ns,
                " ns != serial baseline ", result.serial_time_ns, " ns"));
}

}  // namespace

Verifier::Verifier(const core::PinatuboCostModel& model, unsigned max_rows_cap)
    : model_(&model), max_rows_cap_(max_rows_cap),
      protocol_(model.geometry()) {}

Report Verifier::check(const OpPlan& plan) const {
  Report rep;
  std::vector<mem::Command> cmds;
  for (std::size_t i = 0; i < plan.steps.size(); ++i)
    check_step(0, i, plan.steps[i], cmds, rep);
  return rep;
}

Report Verifier::check(const std::vector<OpPlan>& plans) const {
  Report rep;
  std::vector<mem::Command> cmds;  // one lowering buffer for the whole batch
  for (std::size_t p = 0; p < plans.size(); ++p)
    for (std::size_t i = 0; i < plans[p].steps.size(); ++i)
      check_step(p, i, plans[p].steps[i], cmds, rep);
  return rep;
}

void Verifier::check_step(std::size_t plan, std::size_t step,
                          const PlanStep& s, std::vector<mem::Command>& cmds,
                          Report& rep) const {
  const mem::Geometry& g = model_->geometry();
  const std::size_t before = rep.diags.size();
  auto add = [&](Rule r, const std::string& msg) {
    rep.add(r, plan, step, msg);
  };
  // ---- shared structural checks -----------------------------------------
  if (s.reads.empty()) add(Rule::kStepEmptyReads, "step opens no rows");
  if (s.bits == 0) add(Rule::kStepShape, "step processes 0 bits");
  if (s.col_steps < 1) {
    if (s.writeback && s.kind == StepKind::kIntraSub)
      add(Rule::kWriteBypassNoSense,
          "writeback with no sensing step before it (col_steps = 0)");
    add(Rule::kStepShape, "col_steps must be >= 1");
  }
  if (s.channel >= g.channels)
    add(Rule::kCrossChannel, msg("step channel ", s.channel,
                                 " outside the machine (", g.channels, ")"));
  for (const mem::RowAddr& r : s.reads) {
    if (!addr_in_range(g, r))
      add(Rule::kAddrOutOfRange, msg("read ", addr_str(r), " out of range"));
    else if (r.channel != s.channel)
      add(Rule::kCrossChannel, msg("step on channel ", s.channel, " reads ",
                                   addr_str(r)));
    if (r.bank != 0)
      add(Rule::kClusterMismatch,
          msg("read ", addr_str(r),
              " names a bank; PIM reads broadcast the cluster (bank 0)"));
  }
  if (!s.read_cols.empty() && s.read_cols.size() != s.reads.size())
    add(Rule::kReadColsMismatch,
        msg(s.read_cols.size(), " read_cols for ", s.reads.size(), " reads"));
  if (static_cast<std::uint64_t>(s.col_start) + s.col_steps > g.sa_mux_share)
    add(Rule::kColumnOverflow,
        msg("column window [", s.col_start, ", ", s.col_start + s.col_steps,
            ") exceeds the mux share ", g.sa_mux_share));
  for (const unsigned c : s.read_cols)
    if (static_cast<std::uint64_t>(c) + s.col_steps > g.sa_mux_share)
      add(Rule::kColumnOverflow,
          msg("operand column window [", c, ", ", c + s.col_steps,
              ") exceeds the mux share ", g.sa_mux_share));
  if (s.crosses_rank && s.kind != StepKind::kInterBank)
    add(Rule::kClusterMismatch,
        "only inter-bank steps may cross ranks (crosses_rank set)");
  if (s.writeback) {
    const mem::RowAddr want{s.channel, s.rank, 0, s.subarray, s.row};
    if (!addr_in_range(g, s.write))
      add(Rule::kAddrOutOfRange,
          msg("write ", addr_str(s.write), " out of range"));
    else if (!(s.write == want))
      add(Rule::kWriteKeyMismatch,
          msg("write targets ", addr_str(s.write), ", step executes at ",
              addr_str(want)));
  }

  // ---- per-kind rules ----------------------------------------------------
  switch (s.kind) {
    case StepKind::kIntraSub: {
      if (s.rows != s.reads.size())
        add(Rule::kStepShape, msg("rows = ", s.rows, " but step opens ",
                                  s.reads.size(), " wordlines"));
      const auto n = static_cast<unsigned>(s.reads.size());
      const auto& cell = nvm::cell_params(model_->tech());
      if (n > g.rows_per_subarray)
        add(Rule::kActivationOverflow,
            msg(n, " simultaneous activations exceed the subarray's ",
                g.rows_per_subarray, " LWL driver latches"));
      else if (n > max_rows_cap_)
        add(Rule::kActivationOverflow,
            msg(n, " simultaneous activations exceed the configured cap ",
                max_rows_cap_));
      else if (n > 0 && !csa_.supports(s.op, n, cell))
        add(Rule::kActivationOverflow,
            msg("the CSA cannot resolve ", to_string(s.op), " over ", n,
                " rows on ", nvm::to_string(model_->tech()),
                " (boundary ratio below the reliable threshold)"));
      // One wordline per operand: the same row cannot be activated twice
      // within one multi-row activation.
      for (std::size_t i = 0; i < s.reads.size(); ++i)
        for (std::size_t j = i + 1; j < s.reads.size(); ++j)
          if (s.reads[i] == s.reads[j]) {
            add(Rule::kDoubleActivate,
                msg("row ", addr_str(s.reads[i]), " activated twice"));
            j = s.reads.size();  // one diagnostic per duplicated row
          }
      for (const mem::RowAddr& r : s.reads)
        if (addr_in_range(g, r) &&
            (r.rank != s.rank || r.subarray != s.subarray))
          add(Rule::kClusterMismatch,
              msg("intra-subarray read ", addr_str(r),
                  " outside the executing cluster (rank ", s.rank,
                  ", subarray ", s.subarray, ")"));
      break;
    }
    case StepKind::kInterSub:
    case StepKind::kInterBank: {
      // Buffer steps fold at most two operands per pass; `rows` is the
      // pricing knob (sensed-row count) and may legitimately exceed the
      // dependency reads — e.g. a read-back write-verify senses the freshly
      // written row plus the golden copy but depends only on dst.
      if (s.rows < 1 || s.rows > 2)
        add(Rule::kStepShape,
            msg("rows = ", s.rows,
                " outside the buffer fold's 1..2 sensed-row range"));
      if (s.reads.size() > 2)
        add(Rule::kStepShape,
            msg(s.reads.size(),
                " operand rows exceed the buffer's two latch slots"));
      if (s.kind == StepKind::kInterSub)
        for (const mem::RowAddr& r : s.reads)
          if (addr_in_range(g, r) && r.rank != s.rank)
            add(Rule::kClusterMismatch,
                msg("inter-subarray read ", addr_str(r),
                    " outside the executing rank ", s.rank));
      break;
    }
    case StepKind::kHostRead: {
      // The host-read tail is one logical burst; its reads list one row per
      // group (the data dependencies), legitimately spanning ranks.
      if (s.rows != 1)
        add(Rule::kStepShape,
            msg("host-read bursts one latched result, rows = ", s.rows));
      if (s.writeback)
        add(Rule::kWriteBypassNoSense,
            "host-read steps stream to the CPU; they cannot write back");
      break;
    }
  }

  // The command automaton needs a step sane enough to lower (a bounded
  // column window and row lists); structural violations above already
  // explain anything it would find.
  if (rep.diags.size() == before) {
    cmds.clear();
    model_->lower_step(s, cmds);
    command_automaton(cmds, plan, step, rep);
  }
}

void Verifier::command_automaton(const std::vector<mem::Command>& cmds,
                                 std::size_t plan, std::size_t step,
                                 Report& rep) const {
  // Step sequences are self-contained (each opens with a mode-set), so one
  // linear pass of the protocol's transition checks a stream of any length.
  mem::PimState st;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const mem::Violation v = protocol_.advance(st, cmds[i]);
    if (v == mem::Violation::kNone) continue;
    // The "command i (KIND): " prefix is formatted only when a rule fires,
    // so a clean stream does no string work.
    const Rule r = v == mem::Violation::kLatchOverflow
                       ? Rule::kActivationOverflow
                   : v == mem::Violation::kWritebackWithoutResult
                       ? Rule::kWriteBypassNoSense
                       : Rule::kBadCommandOrder;
    rep.add(r, plan, step,
            msg("command ", i, " (", mem::to_string(cmds[i].kind),
                "): ", protocol_.explain(v)));
  }
}

Report Verifier::check_commands(const std::vector<mem::Command>& cmds) const {
  Report rep;
  command_automaton(cmds, Diagnostic::kNoIndex, Diagnostic::kNoIndex, rep);
  return rep;
}

Report Verifier::check(const std::vector<OpPlan>& plans,
                       const core::ExecutionEngine::Result& result,
                       bool serial) const {
  Report rep = check(plans);
  if (!rep.ok()) return rep;
  const Priced priced = price(plans);
  hazard_resource_pass(plans, result, priced, rep);
  reconcile_pass(result, serial, rep);
  return rep;
}

Verifier::Priced Verifier::price(const std::vector<OpPlan>& plans) const {
  Priced out;
  out.offset.assign(plans.size() + 1, 0);
  for (std::size_t p = 0; p < plans.size(); ++p)
    out.offset[p + 1] = out.offset[p] + plans[p].steps.size();
  out.price.reserve(out.offset.back());
  for (const OpPlan& plan : plans)
    for (const PlanStep& s : plan.steps)
      out.price.push_back(
          {model_->step_cost(s).time_ns, model_->step_bus_bytes(s)});
  return out;
}

void Verifier::hazard_resource_pass(
    const std::vector<OpPlan>& plans,
    const core::ExecutionEngine::Result& result, const Priced& priced,
    Report& rep) const {
  using Sched = core::ExecutionEngine::ScheduledStep;
  // ---- H01: the schedule covers each step exactly once -------------------
  const std::vector<std::size_t>& offset = priced.offset;
  const std::size_t total = offset.back();
  std::vector<const Sched*> placed(total, nullptr);
  bool structural_ok = result.schedule.size() == total;
  if (!structural_ok)
    rep.add(Rule::kScheduleShape, Diagnostic::kNoIndex, Diagnostic::kNoIndex,
            msg("schedule has ", result.schedule.size(), " entries for ",
                total, " plan steps"));
  for (const Sched& ss : result.schedule) {
    if (ss.plan >= plans.size() || ss.step >= plans[ss.plan].steps.size()) {
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              "schedule entry out of range");
      structural_ok = false;
      continue;
    }
    const std::size_t idx = offset[ss.plan] + ss.step;
    if (placed[idx] != nullptr) {
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              "step scheduled more than once");
      structural_ok = false;
      continue;
    }
    placed[idx] = &ss;
  }
  if (!structural_ok) return;  // per-node times are not well-defined

  for (std::size_t idx = 0; idx < total; ++idx) {
    const Sched& ss = *placed[idx];
    const double cost_ns = priced.price[idx].time_ns;
    if (ss.start_ns < -slack(0.0) || ss.done_ns < ss.start_ns - slack(0.0))
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              msg("negative or inverted window [", ss.start_ns, ", ",
                  ss.done_ns, "]"));
    if (!near(ss.done_ns - ss.start_ns, cost_ns))
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              msg("scheduled duration ", ss.done_ns - ss.start_ns,
                  " ns != step cost ", cost_ns, " ns"));
    const std::uint64_t bytes = priced.price[idx].bus_bytes;
    const double burst =
        bytes == 0 ? 0.0
                   : std::min(static_cast<double>(bytes) /
                                  model_->bus().data_gbps,
                              cost_ns);
    if (!near(ss.bus_ns, burst))
      rep.add(Rule::kScheduleShape, ss.plan, ss.step,
              msg("bus burst ", ss.bus_ns, " ns != ", burst,
                  " ns implied by ", bytes, " bus bytes"));
  }

  // ---- H02: the hazard graph, re-derived exactly like the engine ---------
  // Program-order scan over bank-collapsed row keys, the same rules as the
  // engine's scan but derived independently here, so a hazard the engine
  // drops is still caught.
  std::unordered_map<std::uint64_t, std::size_t> last_writer;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> readers;
  for (std::size_t p = 0; p < plans.size(); ++p)
    for (std::size_t i = 0; i < plans[p].steps.size(); ++i) {
      const std::size_t idx = offset[p] + i;
      const PlanStep& s = plans[p].steps[i];
      auto needs = [&](std::size_t d, const char* hazard,
                       const mem::RowAddr& row) {
        if (d == idx) return;
        if (placed[idx]->start_ns <
            placed[d]->done_ns - slack(placed[d]->done_ns))
          rep.add(Rule::kHazardViolated, p, i,
                  msg(hazard, " hazard on ", addr_str(row), ": starts at ",
                      placed[idx]->start_ns, " ns before plan ",
                      placed[d]->plan, " step ", placed[d]->step,
                      " completes at ", placed[d]->done_ns, " ns"));
      };
      for (const mem::RowAddr& r : s.reads) {
        const auto it = last_writer.find(row_key(r));
        if (it != last_writer.end()) needs(it->second, "RAW", r);
      }
      if (s.writeback) {
        const std::uint64_t w = row_key(s.write);
        const auto it = last_writer.find(w);
        if (it != last_writer.end()) needs(it->second, "WAW", s.write);
        const auto rd = readers.find(w);
        if (rd != readers.end())
          for (const std::size_t r : rd->second) needs(r, "WAR", s.write);
      }
      for (const mem::RowAddr& r : s.reads)
        readers[row_key(r)].push_back(idx);
      if (s.writeback) {
        const std::uint64_t w = row_key(s.write);
        last_writer[w] = idx;
        readers[w].clear();
      }
    }

  // ---- H03 / H04: physical exclusivity -----------------------------------
  // A step occupies its lock-step bank cluster for [start, done] (the bank
  // is held until any trailing burst drains), and its burst occupies the
  // channel's shared data bus for [done - bus_ns, done].  Windows on one
  // resource must never overlap.
  struct Window {
    double start, end;
    std::size_t idx;
  };
  std::unordered_map<std::uint64_t, std::vector<Window>> rank_busy, bus_busy;
  for (std::size_t idx = 0; idx < total; ++idx) {
    const Sched& ss = *placed[idx];
    const PlanStep& s = plans[ss.plan].steps[ss.step];
    const std::uint64_t rk =
        (static_cast<std::uint64_t>(s.channel) << 32) | s.rank;
    rank_busy[rk].push_back({ss.start_ns, ss.done_ns, idx});
    if (ss.bus_ns > 0.0)
      bus_busy[s.channel].push_back(
          {ss.done_ns - ss.bus_ns, ss.done_ns, idx});
  }
  auto check_overlap = [&](std::unordered_map<std::uint64_t,
                                              std::vector<Window>>& byres,
                           Rule rule, const char* what) {
    for (auto& [res, wins] : byres) {
      std::sort(wins.begin(), wins.end(), [](const Window& a,
                                             const Window& b) {
        return a.start < b.start;
      });
      for (std::size_t i = 1; i < wins.size(); ++i) {
        const Window& prev = wins[i - 1];
        const Window& cur = wins[i];
        if (cur.start < prev.end - slack(prev.end)) {
          const Sched& ss = *placed[cur.idx];
          const Sched& ps = *placed[prev.idx];
          rep.add(rule, ss.plan, ss.step,
                  msg(what, " window [", cur.start, ", ", cur.end,
                      ") overlaps plan ", ps.plan, " step ", ps.step, " [",
                      prev.start, ", ", prev.end, ")"));
        }
      }
    }
  };
  check_overlap(rank_busy, Rule::kRankOverlap, "bank-cluster");
  check_overlap(bus_busy, Rule::kBusOverlap, "data-bus");
}

Report reconcile_trace(const obs::TraceSession& trace,
                       const core::ClassProfile& expect, double makespan_ns) {
  Report rep;
  const auto none = Diagnostic::kNoIndex;
  double time_by_class[core::kStepKindCount] = {};
  std::uint64_t count_by_class[core::kStepKindCount] = {};
  for (const obs::Span& span : trace.spans())
    for (std::size_t k = 0; k < core::kStepKindCount; ++k)
      if (span.category == to_string(static_cast<StepKind>(k))) {
        time_by_class[k] += span.dur_ns;
        ++count_by_class[k];
      }
  // Bus bursts ("bus") and host-fallback spans ("cpu-fallback") carry
  // non-class categories: they render extra timelines, not step time.

  for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
    const auto kind = static_cast<StepKind>(k);
    if (!near(time_by_class[k], expect.time_ns[k]))
      rep.add(Rule::kClassTimeMismatch, none, none,
              msg(to_string(kind), ": spans sum to ", time_by_class[k],
                  " ns, accounting claims ", expect.time_ns[k], " ns"));
    if (count_by_class[k] != expect.steps[k])
      rep.add(Rule::kClassCountMismatch, none, none,
              msg(to_string(kind), ": ", count_by_class[k],
                  " spans, accounting claims ", expect.steps[k]));
  }
  if (!near(trace.max_end_ns(), makespan_ns))
    rep.add(Rule::kMakespanMismatch, none, none,
            msg("last span ends at ", trace.max_end_ns(),
                " ns, accounting claims the makespan is ", makespan_ns,
                " ns"));
  return rep;
}

}  // namespace pinatubo::verify
