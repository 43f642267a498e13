// NVSim-style array energy model.
//
// The paper extracts analog energies (SA, WD, LWL) from HSPICE and digital
// energies (controllers, inter-subarray/bank logic) from synthesis, then
// feeds a heavily modified NVSim/CACTI-3DD.  This model reproduces that
// layer: per-primitive energies for every memory-system event, parameterized
// by the NVM technology.  All results are in picojoules.
//
// Primitives map 1:1 onto simulator events:
//   row activation (decode + local wordline swing), per chip-slice
//   sense step (CSA bias + bitline read current), per sensed bit
//   row write (SET/RESET mix, data dependent), per written bit
//   off-chip DDR I/O, per bit
// The global-row-buffer path (GDL, digital logic, latches) that AC-PIM and
// Pinatubo's inter-subarray/bank steps share is priced by
// sim::BufferPathParams.
#pragma once

#include <cstdint>

#include "nvm/technology.hpp"

namespace pinatubo::nvm {

class ArrayEnergyModel {
 public:
  explicit ArrayEnergyModel(const CellParams& cell);

  /// Decoder + LWL driver energy for opening one row in one chip-slice
  /// (8 Kb of cells): gate capacitance of the access transistors plus the
  /// address decode path.
  double activate_row_pj() const;

  /// One CSA sensing step for `bits` bits with `open_rows` rows on the
  /// bitline for `t_sense_ns`.  Includes amplifier bias current and the
  /// bitline read current (V^2 * G * t), assuming ~50% data density.
  double sense_pj(std::uint64_t bits, unsigned open_rows,
                  double t_sense_ns) const;

  /// Writing `ones` SET bits and `zeros` RESET bits through the WDs.
  double write_pj(std::uint64_t ones, std::uint64_t zeros) const;

  /// Off-chip DDR bus transfer (I/O drivers, termination).  The same for
  /// every technology, so DRAM backends price their bus with it too.
  static double io_pj(std::uint64_t bits) {
    return static_cast<double>(bits) * kIoPjPerBit;
  }

  /// Fixed controller/command decode energy per DDR command.
  double command_pj() const { return kCommandPj; }

  const CellParams& cell() const { return *cell_; }

 private:
  const CellParams* cell_;

  // Calibrated constants (65 nm class peripheral circuitry).
  static constexpr double kDecodePjPerRow = 2.0;
  static constexpr double kWordlinePjPerRow = 0.9;   // 8Kb of gate cap @ ~1V
  static constexpr double kSaBiasPjPerBit = 0.15;    // CSA static bias/sense
  static constexpr double kIoPjPerBit = 18.0;        // DDR3 off-chip
  static constexpr double kCommandPj = 5.0;
};

}  // namespace pinatubo::nvm
