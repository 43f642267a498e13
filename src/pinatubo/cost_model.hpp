// Prices execution plans on the Pinatubo hardware and lowers them to DDR
// command sequences (paper §5's "extended instructions are translated to
// DDR commands").
//
// Timing model per step (banks and chips of the executing rank operate in
// lock-step *inside* a step; the execution engine decides how steps
// compose — serial sum within a dependency chain, overlapped across
// independent ranks/channels):
//
//   intra-sub:  the step's commands (`for_each_command`) on the command
//               bus, then tRCD + (cols-1)*tCL sensing and tWR write
//               recovery in the banks;
//   inter-sub:  two row reads streamed through the per-bank GDL into the
//               global row buffer logic, result written back;
//   inter-bank: the same through the IO buffer, plus a DDR bus hop when
//               the operands live in different ranks;
//   host-read:  result burst over the DDR bus to the CPU.
//
// Energy uses the NVM array model (activation, analog sensing, SET/RESET
// writes) plus the shared buffer-path constants (GDL, logic, latch) and
// the off-chip I/O energy for anything that crosses the bus.
#pragma once

#include <algorithm>
#include <vector>

#include "mem/cmd_timer.hpp"
#include "mem/energy.hpp"
#include "mem/commands.hpp"
#include "mem/geometry.hpp"
#include "mem/protocol.hpp"
#include "mem/timing.hpp"
#include "nvm/energy_model.hpp"
#include "pinatubo/plan.hpp"
#include "sim/pim_params.hpp"

namespace pinatubo::core {

class PinatuboCostModel {
 public:
  PinatuboCostModel(const mem::Geometry& geo, nvm::Tech tech,
                    double result_density = 0.5);

  /// Cost of one step in isolation (the unit the execution engine prices;
  /// energy is schedule-invariant, time composes per the schedule).
  mem::Cost step_cost(const PlanStep& step) const;
  /// Serial-sum cost of a full plan (a dependency chain of its steps).
  mem::Cost plan_cost(const OpPlan& plan) const;

  /// Bytes the step moves over the shared DDR data bus (host-read bursts
  /// and cross-rank operand hops; 0 for steps that stay inside a rank).
  std::uint64_t step_bus_bytes(const PlanStep& step) const;

  /// Calls `emit(const mem::Command&)` for each command of the step's DDR
  /// sequence in bus order (mem/protocol.hpp: legal orders, `aux` fields).
  /// PIM commands broadcast to the lock-step bank cluster; only host bursts
  /// scale with the bank count.  Intra steps issue one ACT and buffer steps
  /// one PIM_LOAD per row in `rows`; a step listing fewer reads re-issues
  /// its last one (a read-back write check senses dst twice).
  template <typename Emit>
  void for_each_command(const PlanStep& s, Emit&& emit) const {
    const mem::RowAddr base{s.channel, s.rank, 0, s.subarray,
                            s.row % geo_.rows_per_subarray};
    const std::uint32_t window = mem::pack_aux(s.col_start, s.col_steps);
    auto cmd = [&](mem::CmdKind k, const mem::RowAddr& a, std::uint32_t aux) {
      emit(mem::Command{k, a, s.op, aux});
    };
    auto read = [&](unsigned r) {  // index of operand r among the reads
      return std::min<std::size_t>(r, s.reads.size() - 1);
    };
    auto operand = [&](unsigned r) {
      return s.reads.empty() ? base : s.reads[read(r)];
    };
    if (s.kind == StepKind::kHostRead) {
      // Column read bursts: one per stripe per bank (real data moves).
      for (unsigned b = 0; b < geo_.banks_per_chip; ++b)
        for (unsigned c = 0; c < s.col_steps; ++c) {
          mem::RowAddr a = operand(0);
          a.bank = b;
          cmd(mem::CmdKind::kRead, a, s.col_start + c);
        }
      return;
    }
    cmd(mem::CmdKind::kModeSet, base, 0);
    if (s.kind == StepKind::kIntraSub) {
      cmd(mem::CmdKind::kPimReset, base, 0);
      for (unsigned r = 0; r < s.rows; ++r)
        cmd(mem::CmdKind::kAct, operand(r), r);
      for (unsigned c = 0; c < s.col_steps; ++c)
        cmd(mem::CmdKind::kPimSense, base, s.col_start + c);
    } else {
      for (unsigned r = 0; r < s.rows; ++r)
        cmd(mem::CmdKind::kPimLoad, operand(r),
            mem::pack_aux(r, read(r) < s.read_cols.size()
                                 ? s.read_cols[read(r)]
                                 : s.col_start));
      cmd(s.kind == StepKind::kInterSub ? mem::CmdKind::kPimGdlOp
                                        : mem::CmdKind::kPimIoOp,
          base, window);
    }
    if (s.writeback) cmd(mem::CmdKind::kPimWriteback, s.write, window);
  }
  /// Appends the step's DDR command sequence to `out`.
  void lower_step(const PlanStep& step, std::vector<mem::Command>& out) const {
    for_each_command(step, [&out](const mem::Command& c) { out.push_back(c); });
  }
  /// Lowers a plan into the DDR command stream the driver would issue.
  std::vector<mem::Command> lower(const OpPlan& plan) const;
  /// Commands a step occupies on the bus: its sequence's length.
  std::uint64_t command_count(const PlanStep& step) const {
    std::uint64_t n = 0;
    for_each_command(step, [&n](const mem::Command&) { ++n; });
    return n;
  }

  const mem::Geometry& geometry() const { return geo_; }
  const mem::BusParams& bus() const { return bus_; }
  nvm::Tech tech() const { return tech_; }

 private:
  /// Bits the hardware actually senses/moves for a step (whole column
  /// stripes, even when the logical vector only fills part of one).
  std::uint64_t sensed_bits(const PlanStep& s) const;
  /// Per-bank GDL streaming time for `cols` column stripes.
  double stream_ns(unsigned cols) const;

  mem::Geometry geo_;
  nvm::Tech tech_;
  mem::TimingParams timing_;
  mem::BusParams bus_;
  sim::BufferPathParams path_;
  nvm::ArrayEnergyModel energy_;
  double result_density_;
};

}  // namespace pinatubo::core
