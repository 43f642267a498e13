#include "sim/sdram_backend.hpp"

#include "common/error.hpp"

namespace pinatubo::sim {

using mem::Energy;

SdramBackend::SdramBackend(const mem::Geometry& geo, const CpuConfig& cpu)
    : geo_(geo), timing_(mem::dram_timing()),
      fallback_cpu_(cpu, MemKind::kDram) {
  geo_.validate();
}

mem::Cost SdramBackend::op_cost(std::size_t n_operands, std::uint64_t bits,
                                bool host_reads_result) const {
  PIN_CHECK(n_operands >= 2);
  PIN_CHECK(bits > 0);
  const std::uint64_t group_bits = geo_.row_group_bits();
  const std::uint64_t groups = (bits + group_bits - 1) / group_bits;
  // Row groups execute serially (the driver issues one group's command
  // sequence at a time — the behaviour behind the paper's turning point B).
  const std::uint64_t serial_groups = groups;

  // Per group: 2 operand copies + (n-2) accumulate copies, (n-1) triple-row
  // activations, 1 result copy out.  Every step is an AAP-class row cycle.
  const double aap = dram_.aap_ns(timing_);
  const auto steps_aap = static_cast<double>(n_operands + 1);
  const auto steps_tra = static_cast<double>(n_operands - 1);
  const double group_ns = (steps_aap + steps_tra) * aap;

  mem::Cost cost;
  cost.time_ns = static_cast<double>(serial_groups) * group_ns;

  // Energy: every AAP activates two full row groups; a TRA opens three rows
  // at once.  Last (partial) group still activates full rows.
  const double bits_per_group = static_cast<double>(group_bits);
  const double act_pj = dram_.act_pj_per_bit;
  const double e_group = steps_aap * 2.0 * bits_per_group * act_pj +
                         steps_tra * dram_.tra_row_factor * bits_per_group *
                             act_pj;
  cost.energy.add(Energy::kDramAct, static_cast<double>(groups) * e_group);

  // Off-chip transfer (the same DDR I/O as the NVM designs').
  if (host_reads_result) cost += host_read_cost(bits);
  return cost;
}

BackendResult SdramBackend::execute(const OpTrace& trace) {
  fallback_cpu_.reset();
  BackendResult result;
  for (const auto& op : trace.ops) {
    const bool supported = op.op == BitOp::kOr || op.op == BitOp::kAnd;
    if (supported) {
      result.bitwise += op_cost(op.srcs.size(), op.bits, op.host_reads_result);
    } else {
      // XOR / INV: unsupported by charge sharing — CPU does them.
      result.bitwise += fallback_cpu_.bulk_op(op);
    }
  }
  result.scalar = scalar_cost(fallback_cpu_.config(), fallback_cpu_.mem_kind(),
                              trace.scalar_ops, trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::sim
