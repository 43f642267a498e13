// The DDR-PIM command protocol (paper §5) as one transition function.
//
// Every plan step lowers to a self-contained command sequence:
//
//   intra-subarray: MRS4 -> PIM_RESET -> ACT... -> PIM_SENSE... [-> PIM_WB]
//   buffer path:    MRS4 -> PIM_LOAD{1,2} -> PIM_GDL | PIM_IO   [-> PIM_WB]
//   host read:      RD...  (plain column bursts, legal anywhere)
//
// `PimProtocol::advance` is the only statement of which orders are legal
// (DESIGN.md §11, rules P03/P08/P12): the static verifier reports its
// violations, and the command replayer throws them before moving data.
//
// Command `aux` encoding (bank 0 stands for the broadcast bank cluster):
//   MRS4, PIM_RESET  addr = dst row,      aux = 0 (the op rides in `op`)
//   ACT              addr = operand row,  aux = activation index
//   PIM_SENSE        addr = dst row,      aux = absolute column stripe
//   PIM_LOAD         addr = operand row,  aux = slot | (operand col << 8)
//   PIM_GDL/IO       addr = dst row,      aux = col_start | (col_steps << 8)
//   PIM_WB           addr = dst row,      aux = col_start | (col_steps << 8)
//   RD               addr = result row,   aux = column stripe
#pragma once

#include <cstdint>
#include <string>

#include "mem/commands.hpp"
#include "mem/geometry.hpp"

namespace pinatubo::mem {

/// `aux` of PIM_LOAD, PIM_GDL/IO and PIM_WB: `lo | (hi << 8)`.
constexpr std::uint32_t pack_aux(unsigned lo, unsigned hi) {
  return lo | (hi << 8);
}
constexpr unsigned aux_lo(std::uint32_t aux) { return aux & 0xffu; }
constexpr unsigned aux_hi(std::uint32_t aux) { return aux >> 8; }

/// Where the open sequence stands: idle (none open, or written back),
/// armed (mode-set), latching (reset, ACTs), sensing (SA results latched),
/// loading (buffer slots filling), oped (buffer logic result latched).
enum class Phase : std::uint8_t {
  kIdle, kArmed, kLatching, kSensing, kLoading, kOped
};

enum class Violation : std::uint8_t {
  kNone, kResetWithoutModeSet, kActOutsideWindow, kActForeignSubarray,
  kLatchOverflow, kSenseWithoutRows, kWritebackWithoutResult,
  kWritebackArity, kLoadWithoutModeSet, kLoadOverflow, kOpWithoutLoads,
  kNotPim
};

/// The bank cluster's protocol state.  Loads fill buffer slots in order:
/// the n-th load of a sequence lands in slot n - 1.
struct PimState {
  Phase phase = Phase::kIdle;
  BitOp mode = BitOp::kOr;  ///< MR4 contents
  unsigned acts = 0;        ///< ACTs since the reset
  unsigned loads = 0;       ///< buffer loads since the mode-set
  RowAddr reset;            ///< subarray the reset addressed
};

class PimProtocol {
 public:
  static constexpr unsigned kBufferSlots = 2;

  explicit PimProtocol(const Geometry& g) : latches_(g.rows_per_subarray) {}

  /// Moves `s` past `c`.  On a violation `s` still becomes the state a
  /// checker continues from, so one stream reports every rule it breaks;
  /// an executor that must not run the command keeps its own copy.
  Violation advance(PimState& s, const Command& c) const;
  /// Diagnostic text for a violation.
  std::string explain(Violation v) const;

 private:
  unsigned latches_;  ///< LWL driver latches per subarray
};

}  // namespace pinatubo::mem
