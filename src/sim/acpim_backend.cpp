#include "sim/acpim_backend.hpp"

#include "common/error.hpp"
#include "sim/cpu_model.hpp"

namespace pinatubo::sim {

using mem::Energy;

AcPimBackend::AcPimBackend(const mem::Geometry& geo, nvm::Tech tech)
    : geo_(geo), timing_(mem::pcm_timing()),
      energy_(nvm::cell_params(tech)) {
  geo_.validate();
}

mem::Cost AcPimBackend::op_cost(BitOp op, std::size_t n_operands,
                                std::uint64_t bits, bool host_reads_result,
                                double result_density) const {
  PIN_CHECK(op == BitOp::kInv ? n_operands == 1 : n_operands >= 2);
  PIN_CHECK(bits > 0);
  const std::uint64_t group_bits = geo_.row_group_bits();
  const std::uint64_t groups = (bits + group_bits - 1) / group_bits;
  const std::uint64_t serial_groups = groups;
  const auto steps =
      static_cast<double>(op == BitOp::kInv ? 1 : n_operands - 1);

  // Per step (banks within the group work in parallel on their slices):
  // two reads through the GDL, logic (overlapped with streaming), write
  // back through the write drivers.  Only the column stripes the vector
  // touches are streamed (the column MUX selects them).
  const std::uint64_t step_bits = geo_.sense_step_bits();
  const std::uint64_t per_group_bits = std::min(bits, group_bits);
  const auto cols = static_cast<double>(
      (per_group_bits + step_bits - 1) / step_bits);
  const double stream =
      path_.stream_ns(geo_) * cols / static_cast<double>(geo_.sa_mux_share);
  const double step_ns = 2.0 * (timing_.t_rcd_ns + stream) +
                         (timing_.t_wr_ns + stream);

  mem::Cost cost;
  cost.time_ns = static_cast<double>(serial_groups) * steps * step_ns;

  // Energy per step over the whole op width (all groups).
  const auto width = static_cast<double>(bits);
  const double read_pj =
      energy_.sense_pj(1, 1, timing_.t_cl_ns) +  // per bit sense
      path_.gdl_pj_per_bit + path_.latch_pj_per_bit;
  const double logic_pj = path_.logic_pj_per_bit;
  const double write_pj_bit =
      (energy_.write_pj(1, 0) * result_density +
       energy_.write_pj(0, 1) * (1.0 - result_density)) +
      path_.gdl_pj_per_bit;
  cost.energy.add(Energy::kAcpimRead, steps * 2.0 * width * read_pj);
  cost.energy.add(Energy::kAcpimLogic, steps * width * logic_pj);
  cost.energy.add(Energy::kAcpimWrite, steps * width * write_pj_bit);
  cost.energy.add(Energy::kCtrlCmd,
                  static_cast<double>(groups) * steps * 4.0 *
                      energy_.command_pj() * geo_.banks_per_chip);

  if (host_reads_result) cost += host_read_cost(bits);
  return cost;
}

BackendResult AcPimBackend::execute(const OpTrace& trace) {
  BackendResult result;
  for (const auto& op : trace.ops)
    result.bitwise += op_cost(op.op, op.srcs.size(), op.bits,
                              op.host_reads_result, trace.result_density);
  // Scalar remainder runs on the host CPU over the same PCM memory.
  result.scalar =
      scalar_cost({}, MemKind::kPcm, trace.scalar_ops, trace.scalar_bytes);
  return result;
}

}  // namespace pinatubo::sim
