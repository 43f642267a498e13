// DDR command-stream replay: the executable semantics of the PIM ISA.
//
// The driver lowers every operation into DDR commands (paper §5: extended
// instructions → DDR commands through the MR4-configured controller).
// `CommandReplayer` executes such a stream against a MainMemory image,
// modelling exactly what the modified chip does per command:
//
//   MRS4       latch the op into the mode register
//   PIM_RESET  release the latched wordlines
//   ACT        latch one more wordline (LwlDriverArray semantics)
//   PIM_SENSE  resolve one column stripe through the modified SA over the
//              currently open rows
//   PIM_LOAD   latch a row into the next global/IO buffer slot
//   PIM_GDL/IO evaluate the buffer logic over a column window
//   PIM_WB     feed the SA latches / buffer result to the write drivers
//              of the addressed row (the in-place-update path)
//
// `mem::PimProtocol` decides whether each command is legal; the replayer
// only moves data.  Every step's sequence is self-contained and recorded
// contiguously, so one protocol state and one set of latches serve the
// whole stream.
//
// Replaying a recorded stream on a fresh memory image must reproduce the
// functional runtime's results bit for bit — the integration tests assert
// this, which makes the lowering a complete, executable specification
// rather than documentation.
#pragma once

#include <array>
#include <vector>

#include "circuit/lwl_driver.hpp"
#include "mem/commands.hpp"
#include "mem/mainmem.hpp"
#include "mem/protocol.hpp"

namespace pinatubo::core {

class CommandReplayer {
 public:
  explicit CommandReplayer(mem::MainMemory& memory);

  /// Executes one command.  A protocol violation throws `Error` with the
  /// protocol's text and leaves the replayer unchanged.
  void execute(const mem::Command& cmd);
  void execute_all(const std::vector<mem::Command>& cmds) {
    for (const auto& c : cmds) execute(c);
  }

  struct Stats {
    std::uint64_t commands = 0;
    std::uint64_t activations = 0;
    std::uint64_t sense_steps = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t buffer_ops = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct BufferSlot {
    std::vector<BitVector> rows;  // per bank
    unsigned col = 0;             // operand's first column stripe
  };

  /// Writes the given stripes of `rows` into the addressed row via WDs.
  void write_stripes(const mem::RowAddr& dst,
                     const std::vector<BitVector>& rows,
                     const std::vector<unsigned>& stripes);

  mem::MainMemory& mem_;
  mem::PimProtocol protocol_;
  mem::PimState state_;
  circuit::LwlDriverArray lwl_;
  std::vector<mem::RowAddr> open_rows_;       // bank 0 coordinates
  std::vector<BitVector> sa_latch_;           // per bank, after sensing
  std::vector<unsigned> result_stripes_;      // stripes the result covers
  std::array<BufferSlot, mem::PimProtocol::kBufferSlots> buffer_;
  std::vector<BitVector> buffer_result_;      // per bank, after logic
  Stats stats_;
};

}  // namespace pinatubo::core
