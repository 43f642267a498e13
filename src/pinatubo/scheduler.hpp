// The driver library's operation scheduler (paper §5: "optimizes and
// reschedules the operation requests, and then issues extended
// instructions").
//
// Given the placements of an op's operands it picks the cheapest hardware
// path the placements allow:
//
//   all operands on distinct rows of one subarray, column-aligned
//       -> intra-subarray multi-row activations, chained when the operand
//          count exceeds what one activation can open (tech/table limit);
//   same rank (bank cluster), different subarrays / misaligned columns
//       -> inter-subarray chain at the global row buffer, 2 operands/step;
//   different rank or cluster
//       -> inter-bank chain at the IO buffer, with a bus hop;
//
// plus a trailing host-read step when the CPU consumes the result.
// Operations whose operands share a row (within-row vectors) are rejected —
// the paper's §4.1 explicitly leaves them to remapping.
#pragma once

#include <array>
#include <vector>

#include "mem/geometry.hpp"
#include "nvm/technology.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/plan.hpp"

namespace pinatubo::core {

struct SchedulerConfig {
  /// Cap on rows per activation (the "Pinatubo-2" / "Pinatubo-128"
  /// configurations); the technology margin may cap it lower.
  unsigned max_rows = 128;
  nvm::Tech tech = nvm::Tech::kPcm;
};

class OpScheduler {
 public:
  OpScheduler(const mem::Geometry& geo, const SchedulerConfig& cfg);

  /// Lowers one logical op.  `srcs` are operand placements, `dst` the
  /// destination.  Throws on impossible shapes (same-row operands,
  /// cross-channel operands, empty operand list).  The plan is the one
  /// spec of the op: `PimRuntime` executes its intra-subarray steps as
  /// written, and prices the recovery ladder as copies of them.
  OpPlan plan(BitOp op, const std::vector<Placement>& srcs,
              const Placement& dst, bool host_reads_result) const;

  /// Effective rows one activation may open for `op` (config cap and
  /// technology sensing margin combined).
  unsigned effective_max_rows(BitOp op) const {
    return max_rows_[static_cast<std::size_t>(op)];
  }

  const SchedulerConfig& config() const { return cfg_; }

 private:
  /// The fields every step of `dst`'s row group `g` shares: the group's
  /// bits and sensing steps, the executing rank/subarray/row, the first
  /// column stripe and the writeback row.
  PlanStep group_step(const Placement& dst, std::uint64_t g) const;
  /// Activation chain: dst-aliasing operands go first, each activation
  /// opens at most `effective_max_rows(op)` rows, later ones re-open dst
  /// as the accumulator.
  void plan_intra(OpPlan& out, BitOp op, const std::vector<Placement>& srcs,
                  const Placement& dst) const;
  void plan_buffer(OpPlan& out, BitOp op, StepKind kind,
                   const std::vector<Placement>& srcs,
                   const Placement& dst) const;

  mem::Geometry geo_;
  SchedulerConfig cfg_;
  /// Per-op sensing limits, read from the CSA model once at construction:
  /// whether the op's minimal activation senses reliably on the
  /// technology at all, and the rows one activation may open.
  std::array<bool, 4> intra_ok_{};
  std::array<unsigned, 4> max_rows_{};
};

}  // namespace pinatubo::core
