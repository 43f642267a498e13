// Parameters shared by the in-memory computing backends.
//
// The global-row-buffer datapath (GDL streaming + digital logic + latches)
// is used both by AC-PIM (for *every* op) and by Pinatubo (for inter-
// subarray / inter-bank ops only), so its constants live here and both
// backends price it identically — the architectural difference, not the
// constants, must explain the results.
//
// The DRAM constants price S-DRAM's charge-sharing primitives (RowClone
// AAP and triple-row activation), following the published mechanism.
//
// Every backend that leaves its result in memory prices handing it to the
// host the same way, with `host_read_cost`.
#pragma once

#include <cstdint>

#include "mem/energy.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/energy_model.hpp"

namespace pinatubo::sim {

/// Global-row-buffer op path (per rank-row step).
struct BufferPathParams {
  double gdl_beat_bits = 64;      ///< internal dataline width per chip
  double gdl_clk_ns = 1.25;       ///< internal bus clock
  double gdl_pj_per_bit = 2.0;    ///< long global wires (65 nm, full die)
  double logic_pj_per_bit = 1.0;  ///< synthesized wide ALU evaluate
  double latch_pj_per_bit = 0.1;  ///< row buffer capture

  /// Time to stream one rank-row slice through the GDL (chips parallel,
  /// one slice of `row_slice_bits` per chip).
  double stream_ns(const mem::Geometry& g) const {
    return static_cast<double>(g.row_slice_bits) / gdl_beat_bits * gdl_clk_ns;
  }
};

/// DRAM array energetics for the S-DRAM backend (DDR3, 65 nm class).
struct DramArrayParams {
  double act_pj_per_bit = 0.31;  ///< full-row activate+precharge, per bit
  double tra_row_factor = 3.0;   ///< triple-row activation opens 3 rows
  /// An AAP (ACT-ACT-PRE RowClone hop) costs two activations.
  double aap_ns(const mem::TimingParams& t) const {
    return t.t_ras_ns + t.t_rp_ns;
  }
};

/// Bursting a `bits`-wide result to the host over the DDR3-1600 data bus:
/// the transfer time and its off-chip I/O energy.
inline mem::Cost host_read_cost(std::uint64_t bits) {
  mem::Cost cost;
  cost.time_ns =
      static_cast<double>(bits) / 8.0 / mem::ddr3_1600_bus().data_gbps;
  cost.energy.add(mem::Energy::kBusIo, nvm::ArrayEnergyModel::io_pj(bits));
  return cost;
}

}  // namespace pinatubo::sim
