#include "mem/protocol.hpp"

namespace pinatubo::mem {

Violation PimProtocol::advance(PimState& s, const Command& c) const {
  const Phase was = s.phase;
  auto unless = [](bool legal, Violation v) {
    return legal ? Violation::kNone : v;
  };
  switch (c.kind) {
    case CmdKind::kModeSet:
      s = PimState{Phase::kArmed, c.op, 0, 0, {}};
      return Violation::kNone;
    case CmdKind::kPimReset:
      s.phase = Phase::kLatching;
      s.acts = 0;
      s.reset = c.addr;
      return unless(was == Phase::kArmed, Violation::kResetWithoutModeSet);
    case CmdKind::kAct:
      if (was != Phase::kLatching) return Violation::kActOutsideWindow;
      if (!c.addr.same_subarray(s.reset))
        return Violation::kActForeignSubarray;
      return unless(++s.acts <= latches_, Violation::kLatchOverflow);
    case CmdKind::kPimSense:
      s.phase = Phase::kSensing;
      return unless(
          was == Phase::kSensing || (was == Phase::kLatching && s.acts >= 1),
          Violation::kSenseWithoutRows);
    case CmdKind::kPimWriteback:
      s.phase = Phase::kIdle;
      if (was == Phase::kSensing) return Violation::kNone;
      if (was != Phase::kOped) return Violation::kWritebackWithoutResult;
      return unless(s.loads >= (s.mode == BitOp::kInv ? 1u : 2u),
                    Violation::kWritebackArity);
    case CmdKind::kPimLoad:
      s.phase = Phase::kLoading;
      if (was != Phase::kArmed && was != Phase::kLoading)
        return Violation::kLoadWithoutModeSet;
      return unless(++s.loads <= kBufferSlots, Violation::kLoadOverflow);
    case CmdKind::kPimGdlOp:
    case CmdKind::kPimIoOp:
      s.phase = Phase::kOped;
      return unless(was == Phase::kLoading && s.loads >= 1,
                    Violation::kOpWithoutLoads);
    case CmdKind::kRead:
      return Violation::kNone;  // host column bursts leave the cluster alone
    case CmdKind::kWrite:
    case CmdKind::kPrecharge:
      break;
  }
  return Violation::kNotPim;
}

std::string PimProtocol::explain(Violation v) const {
  static constexpr const char* kText[] = {
      "",
      "wordline reset without a preceding mode-set",
      "activate outside a reset multi-ACT window",
      "activate outside the subarray the reset addressed",
      "more ACTs than LWL driver latches (",
      "sense with no activated rows",
      "write-driver bypass without a sense or buffer op result",
      "buffer writeback with fewer loaded operands than the op takes",
      "buffer load without a preceding mode-set",
      "more loads than buffer operand slots (2)",
      "buffer logic op with no loaded operands",
      "not part of a lowered PIM sequence",
  };
  std::string text = kText[static_cast<std::size_t>(v)];
  if (v == Violation::kLatchOverflow)
    text += std::to_string(latches_) + ")";
  return text;
}

}  // namespace pinatubo::mem
