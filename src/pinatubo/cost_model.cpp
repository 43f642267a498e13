#include "pinatubo/cost_model.hpp"

#include "common/error.hpp"

namespace pinatubo::core {

using mem::Energy;

PinatuboCostModel::PinatuboCostModel(const mem::Geometry& geo, nvm::Tech tech,
                                     double result_density)
    : geo_(geo), tech_(tech), timing_(mem::pcm_timing()),
      bus_(mem::ddr3_1600_bus()), energy_(nvm::cell_params(tech)),
      result_density_(result_density) {
  geo_.validate();
  PIN_CHECK(result_density >= 0.0 && result_density <= 1.0);
}

std::uint64_t PinatuboCostModel::sensed_bits(const PlanStep& s) const {
  return static_cast<std::uint64_t>(s.col_steps) * geo_.sense_step_bits();
}

double PinatuboCostModel::stream_ns(unsigned cols) const {
  // Bits per chip per bank for one column stripe, over the GDL width.
  const double bits_per_chip_bank =
      static_cast<double>(geo_.sense_step_bits()) /
      (geo_.banks_per_chip * geo_.chips_per_rank);
  const double beats = bits_per_chip_bank / path_.gdl_beat_bits;
  return static_cast<double>(cols) * beats * path_.gdl_clk_ns;
}

mem::Cost PinatuboCostModel::step_cost(const PlanStep& s) const {
  PIN_CHECK(s.bits > 0);
  PIN_CHECK(s.col_steps >= 1);
  mem::Cost cost;
  const auto cmds = static_cast<double>(command_count(s));
  const double t_cmds = cmds * bus_.cmd_slot_ns;
  const std::uint64_t hw_bits = sensed_bits(s);
  const double width = static_cast<double>(hw_bits);
  const double ones = width * result_density_;
  const double zeros = width - ones;
  cost.energy.add(Energy::kCtrlCmd, cmds * energy_.command_pj());

  switch (s.kind) {
    case StepKind::kIntraSub: {
      // Sensing: tRCD covers activation + the first column step.
      double t = t_cmds + timing_.t_rcd_ns +
                 (s.col_steps - 1) * timing_.t_cl_ns;
      if (s.writeback) t += timing_.t_wr_ns;
      cost.time_ns = t;
      // Wordline energy: every opened row slice in every bank and chip.
      const double slices = static_cast<double>(s.rows) *
                            geo_.banks_per_chip * geo_.chips_per_rank;
      cost.energy.add(Energy::kPimActivate, slices * energy_.activate_row_pj());
      cost.energy.add(Energy::kPimSense,
                      energy_.sense_pj(hw_bits, s.rows, timing_.t_cl_ns));
      if (s.writeback)
        cost.energy.add(Energy::kPimWrite,
                        energy_.write_pj(static_cast<std::uint64_t>(ones),
                                         static_cast<std::uint64_t>(zeros)));
      return cost;
    }
    case StepKind::kInterSub:
    case StepKind::kInterBank: {
      const double stream = stream_ns(s.col_steps);
      double t = t_cmds + 2.0 * (timing_.t_rcd_ns + stream) +
                 (s.writeback ? timing_.t_wr_ns + stream : 0.0);
      // Reads: sensing + GDL + buffer latch for both operands.
      const double read_pj_bit =
          energy_.sense_pj(1, 1, timing_.t_cl_ns) + path_.gdl_pj_per_bit +
          path_.latch_pj_per_bit;
      cost.energy.add(Energy::kPimBufferRead, 2.0 * width * read_pj_bit);
      cost.energy.add(Energy::kPimBufferLogic, width * path_.logic_pj_per_bit);
      if (s.writeback) {
        cost.energy.add(Energy::kPimWrite,
                        energy_.write_pj(static_cast<std::uint64_t>(ones),
                                         static_cast<std::uint64_t>(zeros)));
        cost.energy.add(Energy::kPimBufferWb, width * path_.gdl_pj_per_bit);
      }
      if (s.kind == StepKind::kInterBank && s.crosses_rank) {
        // One operand hops over the DDR bus between ranks.
        t += width / 8.0 / bus_.data_gbps;
        cost.energy.add(Energy::kBusIo, energy_.io_pj(hw_bits));
      }
      cost.time_ns = t;
      return cost;
    }
    case StepKind::kHostRead: {
      // Result already latched; burst it to the CPU.
      cost.time_ns = t_cmds;
      cost += sim::host_read_cost(s.bits);
      return cost;
    }
  }
  PIN_UNREACHABLE("bad StepKind");
}

mem::Cost PinatuboCostModel::plan_cost(const OpPlan& plan) const {
  mem::Cost total;
  for (const auto& s : plan.steps) total += step_cost(s);
  return total;
}

std::uint64_t PinatuboCostModel::step_bus_bytes(const PlanStep& s) const {
  if (s.kind == StepKind::kHostRead) return s.bits / 8;
  if (s.kind == StepKind::kInterBank && s.crosses_rank)
    return sensed_bits(s) / 8;  // one operand hops between ranks
  return 0;
}

std::vector<mem::Command> PinatuboCostModel::lower(const OpPlan& plan) const {
  std::vector<mem::Command> cmds;
  for (const auto& s : plan.steps) lower_step(s, cmds);
  return cmds;
}

}  // namespace pinatubo::core
