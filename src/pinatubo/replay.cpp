#include "pinatubo/replay.hpp"

#include <utility>

#include "common/error.hpp"

namespace pinatubo::core {

CommandReplayer::CommandReplayer(mem::MainMemory& memory)
    : mem_(memory), protocol_(memory.geometry()),
      lwl_(memory.geometry().rows_per_subarray) {}

void CommandReplayer::write_stripes(const mem::RowAddr& dst,
                                    const std::vector<BitVector>& rows,
                                    const std::vector<unsigned>& stripes) {
  const auto& g = mem_.geometry();
  const std::size_t bank_share = g.sense_step_bits() / g.banks_per_chip;
  for (unsigned b = 0; b < g.banks_per_chip; ++b) {
    mem::RowAddr a = dst;
    a.bank = b;
    for (const unsigned stripe : stripes) {
      const std::size_t lo = stripe * bank_share;
      BitVector window(bank_share);
      copy_bits(window.words(), 0, rows[b].words(), lo, bank_share);
      mem_.write_row_partial(a, lo, window);
    }
  }
}

void CommandReplayer::execute(const mem::Command& cmd) {
  mem::PimState next = state_;
  const mem::Violation v = protocol_.advance(next, cmd);
  if (v != mem::Violation::kNone)
    throw Error(cmd.to_string() + ": " + protocol_.explain(v));
  const mem::Phase was = std::exchange(state_, next).phase;
  ++stats_.commands;
  const auto& g = mem_.geometry();

  switch (cmd.kind) {
    case mem::CmdKind::kPimReset:
      lwl_.reset();
      open_rows_.clear();
      result_stripes_.clear();
      return;
    case mem::CmdKind::kAct:
      ++stats_.activations;
      if (!lwl_.is_active(cmd.addr.row)) {
        lwl_.decode(cmd.addr.row);
        open_rows_.push_back(cmd.addr);
      }
      return;
    case mem::CmdKind::kPimSense:
      ++stats_.sense_steps;
      if (was == mem::Phase::kLatching) {
        // The SAs resolve all banks in lock-step; compute per bank once,
        // later sense commands add column stripes to the latch set.
        sa_latch_.clear();
        for (unsigned b = 0; b < g.banks_per_chip; ++b) {
          std::vector<mem::RowAddr> rows = open_rows_;
          for (auto& r : rows) r.bank = b;
          sa_latch_.push_back(mem_.sense_rows(rows, state_.mode));
        }
      }
      result_stripes_.push_back(cmd.aux);
      return;
    case mem::CmdKind::kPimLoad: {
      // Broadcast across banks into the slot the load's ordinal names.
      BufferSlot& slot = buffer_[state_.loads - 1];
      slot.col = mem::aux_hi(cmd.aux);
      slot.rows.clear();
      for (unsigned b = 0; b < g.banks_per_chip; ++b) {
        mem::RowAddr a = cmd.addr;
        a.bank = b;
        slot.rows.push_back(mem_.read_row(a));
      }
      return;
    }
    case mem::CmdKind::kPimGdlOp:
    case mem::CmdKind::kPimIoOp: {
      ++stats_.buffer_ops;
      // The datapath's alignment shifter maps each operand's column window
      // onto the destination's.
      const unsigned dst_col = mem::aux_lo(cmd.aux);
      const unsigned cols = mem::aux_hi(cmd.aux);
      const std::size_t bank_share =
          g.sense_step_bits() / g.banks_per_chip;
      auto shifted = [&](const BufferSlot& slot, unsigned bank) {
        BitVector out(g.rank_row_bits());
        for (unsigned c = 0; c < cols; ++c)
          copy_bits(out.words(), (dst_col + c) * bank_share,
                    slot.rows[bank].words(), (slot.col + c) * bank_share,
                    bank_share);
        return out;
      };
      // A one-operand fold of a binary op (a verify check) passes its
      // operand through; the protocol forbids writing that back.
      buffer_result_.clear();
      result_stripes_.clear();
      for (unsigned c = 0; c < cols; ++c)
        result_stripes_.push_back(dst_col + c);
      for (unsigned b = 0; b < g.banks_per_chip; ++b) {
        BitVector r = shifted(buffer_[0], b);
        if (state_.mode == BitOp::kInv)
          r = ~r;
        else if (state_.loads >= 2)
          r = apply(state_.mode, r, shifted(buffer_[1], b));
        buffer_result_.push_back(std::move(r));
      }
      return;
    }
    case mem::CmdKind::kPimWriteback:
      ++stats_.writebacks;
      write_stripes(cmd.addr,
                    was == mem::Phase::kSensing ? sa_latch_ : buffer_result_,
                    result_stripes_);
      return;
    case mem::CmdKind::kModeSet:  // MR4 lives in the protocol state
    case mem::CmdKind::kRead:     // host result burst: no PIM state change
    case mem::CmdKind::kWrite:
    case mem::CmdKind::kPrecharge:
      return;
  }
}

}  // namespace pinatubo::core
