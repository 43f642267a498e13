// Main-memory organization (paper §4.1, Fig. 3).
//
// Channels run in parallel; each channel has ranks sharing the bus; a rank
// has 8 chips in lock-step; a chip has banks; banks have subarrays; a
// subarray has MATs with private (MUX-shared) sense amplifiers.
//
// The evaluated machine: 1 channel x 2 ranks x 8 chips x 8 banks x
// 64 subarrays x 128 rows x 8 Kb row slice per chip-bank.  Two quantities
// drive the paper's Fig. 9 turning points:
//   row_group_bits  = chips * banks * row_slice = 2^19  (turning point B)
//   sense_step_bits = row_group / sa_mux_share  = 2^14  (turning point A)
#pragma once

#include <cstdint>

#include "common/config.hpp"

namespace pinatubo::mem {

struct Geometry {
  unsigned channels = 1;
  unsigned ranks_per_channel = 2;
  unsigned chips_per_rank = 8;
  unsigned banks_per_chip = 8;
  unsigned subarrays_per_bank = 64;
  unsigned mats_per_subarray = 8;
  unsigned rows_per_subarray = 128;
  std::uint64_t row_slice_bits = 8192;  ///< per chip, per bank row
  unsigned sa_mux_share = 32;           ///< columns per sense amplifier

  /// Throws if internally inconsistent (divisibility, non-zero fields).
  void validate() const;

  // ---- derived sizes --------------------------------------------------------
  /// Bits covered by one (subarray,row) coordinate across a whole rank's
  /// chips — the unit the functional store keeps per row address.
  std::uint64_t rank_row_bits() const {
    return row_slice_bits * chips_per_rank;
  }
  /// Bits processed fully in parallel when the same row coordinate is used
  /// in every bank of a rank (the paper's maximum-parallelism row group).
  std::uint64_t row_group_bits() const {
    return rank_row_bits() * banks_per_chip;
  }
  /// Bits resolved per sensing step (SA sharing limits a step to 1/mux of
  /// the row group).
  std::uint64_t sense_step_bits() const {
    return row_group_bits() / sa_mux_share;
  }
  std::uint64_t rows_per_bank() const {
    return static_cast<std::uint64_t>(subarrays_per_bank) * rows_per_subarray;
  }
  std::uint64_t rows_per_rank() const {
    return rows_per_bank() * banks_per_chip;
  }
  std::uint64_t rank_bits() const {
    return rows_per_rank() * rank_row_bits();
  }
  std::uint64_t total_bits() const {
    return rank_bits() * ranks_per_channel * channels;
  }
  std::uint64_t total_bytes() const { return total_bits() / 8; }
  unsigned total_ranks() const { return channels * ranks_per_channel; }
};

/// Builds a geometry from `geometry.*` config keys (missing keys keep the
/// defaults above); validates before returning.  Keys:
///   geometry.channels, geometry.ranks, geometry.chips, geometry.banks,
///   geometry.subarrays, geometry.mats, geometry.rows,
///   geometry.row_slice_bits, geometry.sa_mux_share
Geometry geometry_from_config(const Config& cfg);

}  // namespace pinatubo::mem
