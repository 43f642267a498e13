// DDR command set plus Pinatubo's PIM extensions (paper §5).
//
// The driver library lowers bit-vector operations into these commands; the
// timing engine charges bus slots and bank occupancy per command; tests
// assert the lowering (e.g. an intra-subarray 4-row OR becomes
// PIM_RESET, 4x ACT, PIM_SENSE per column step, PIM_WRITEBACK).
#pragma once

#include <cstdint>
#include <string>

#include "bitvec/bitvector.hpp"  // BitOp
#include "mem/address.hpp"

namespace pinatubo::mem {

enum class CmdKind : std::uint8_t {
  kAct,           ///< activate a row (also each extra row of a multi-ACT)
  kRead,          ///< column read burst to the bus
  kWrite,         ///< column write burst from the bus
  kPrecharge,
  kModeSet,       ///< MR4 write: selects PIM op / reference (paper Fig. 4)
  kPimReset,      ///< release latched wordlines before multi-row activation
  kPimLoad,       ///< latch a row into a buffer slot (aux: mem/protocol.hpp)
  kPimSense,      ///< one PIM sensing step (one column group)
  kPimWriteback,  ///< SA result fed to local write drivers (in-place WD path)
  kPimGdlOp,      ///< inter-subarray op step at the global row buffer
  kPimIoOp,       ///< inter-bank op step at the IO buffer
};

const char* to_string(CmdKind k);

struct Command {
  CmdKind kind = CmdKind::kAct;
  RowAddr addr;           ///< target row (bank-level commands use bank part)
  BitOp op = BitOp::kOr;  ///< for kModeSet
  std::uint32_t aux = 0;  ///< per-kind operand; see mem/protocol.hpp

  std::string to_string() const;
};

}  // namespace pinatubo::mem
