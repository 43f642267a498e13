// Execution plans: what the driver's scheduler turns one logical bitwise
// operation into (paper §4.1's three op classes plus the host fallback).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bitvec/bitvector.hpp"
#include "mem/address.hpp"

namespace pinatubo::core {

enum class StepKind : std::uint8_t {
  kIntraSub,   ///< multi-row activation + modified SA, WD in-place update
  kInterSub,   ///< global-row-buffer digital logic (same bank cluster)
  kInterBank,  ///< IO-buffer digital logic; crosses clusters (bus hop)
  kHostRead,   ///< result streamed to the host over the DDR bus
};

/// Number of step classes (per-class accounting arrays index by StepKind).
inline constexpr std::size_t kStepKindCount = 4;
constexpr std::size_t step_index(StepKind k) {
  return static_cast<std::size_t>(k);
}

const char* to_string(StepKind k);

/// One scheduled hardware step.  Steps of a plan execute in order; the
/// parallelism (banks/chips in lock-step) lives *inside* a step.
struct PlanStep {
  StepKind kind = StepKind::kIntraSub;
  BitOp op = BitOp::kOr;
  unsigned rows = 2;          ///< rows opened (intra) / operands (inter)
  unsigned col_steps = 1;     ///< sensing steps (column groups touched)
  std::uint64_t bits = 0;     ///< logical bits this step processes
  bool writeback = true;      ///< result written through the WDs
  unsigned channel = 0;
  unsigned rank = 0;          ///< executing rank (multi-group ops rotate)
  unsigned subarray = 0;      ///< executing subarray (intra)
  unsigned row = 0;           ///< destination row coordinate
  unsigned col_start = 0;     ///< first column stripe the step touches
  std::uint64_t group = 0;    ///< group index within the op
  bool crosses_rank = false;  ///< inter-bank step needing a bus hop
  unsigned attempt = 0;       ///< reliability retry ordinal (0 = first try)

  /// Concrete operand rows this step opens (intra: all simultaneously
  /// activated rows; buffer: the rows latched into the buffer; host-read:
  /// the row burst out).  Bank fields are 0 — commands broadcast across
  /// the lock-step bank cluster.
  std::vector<mem::RowAddr> reads;
  /// First column stripe of each read (buffer path: the alignment shifter
  /// in the global row buffer maps each operand's window onto the dst's).
  std::vector<unsigned> read_cols;
  /// Destination row of the writeback (valid when `writeback`).
  mem::RowAddr write;
};

/// A lowered logical operation.
struct OpPlan {
  BitOp op = BitOp::kOr;
  std::uint64_t bits = 0;
  std::vector<PlanStep> steps;

  std::size_t count(StepKind k) const {
    std::size_t n = 0;
    for (const auto& s : steps) n += s.kind == k;
    return n;
  }
  std::string summary() const;
};

}  // namespace pinatubo::core
