// Write-path verification and persistent-fault recovery (DESIGN.md §10).
//
// Every data write of a reliability-enabled runtime goes through
// `RecoveryManager::write`: the intended post-write image is known before
// the write, so verify-after-write (read-back compare or maintained
// per-word parity) detects persistent cell faults at the moment the true
// data is still in hand — and a failing row can be *healed* by remapping
// it to a spare and rewriting the intended content.
//
// Remaps are rank-wide: multi-row activation broadcasts one row index
// across the whole lock-step bank cluster, so a row coordinate that went
// bad in one bank moves to the same spare index in every bank (the
// healthy banks' contents are copied along).  The spare itself is
// verified after the copy; a bad spare burns another one.
//
// The manager also owns the run's reliability `Counters` (detections,
// retries, de-escalations, remaps, fallbacks) — the driver tallies its
// sense-path ladder into the same block, and `PimRuntime::Stats` reads
// them from here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bitvec/bitvector.hpp"
#include "mem/mainmem.hpp"
#include "reliability/policy.hpp"

namespace pinatubo::reliability {

struct Counters {
  std::uint64_t detected_faults = 0;  ///< verify mismatches (sense + write)
  std::uint64_t retries = 0;          ///< extra sense attempts
  std::uint64_t deescalations = 0;    ///< activation splits (128 -> 2x64..)
  std::uint64_t remaps = 0;           ///< rank-rows moved to spares
  std::uint64_t fallbacks = 0;        ///< ops completed on the CPU path
};

class RecoveryManager {
 public:
  /// Hands out the next spare row index of (channel, rank, subarray), or
  /// nullopt when the subarray's spares are exhausted.
  using SpareFn =
      std::function<std::optional<unsigned>(unsigned, unsigned, unsigned)>;

  RecoveryManager(mem::MainMemory& mem, const Policy& policy, SpareFn spares);

  struct WriteReport {
    unsigned detected = 0;  ///< verify mismatches seen
    unsigned remaps = 0;    ///< rank-row remaps performed
  };

  /// Writes `data` into the row at `bit_offset` with verify-after-write
  /// per the policy.  On persistent mismatch escalates to a rank-wide
  /// spare-row remap (when `retry.remap`); throws when spares run out.
  /// With `retry.remap` off, detections are counted but corruption stays —
  /// a diagnostic mode for measuring raw fault rates.
  WriteReport write(const mem::RowAddr& addr, std::size_t bit_offset,
                    const BitVector& data);

  /// Digital recompute of op over the stored operand rows, windowed —
  /// the read-back reference a sense attempt is verified against.
  BitVector expected_window(const std::vector<mem::RowAddr>& rows, BitOp op,
                            std::size_t win_lo, std::size_t win_len) const;

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Clears counters and the parity side-table (campaign teardown).
  void reset();

 private:
  /// Whether the stored row matches `expected` under the verify mode.
  bool row_ok(const mem::RowAddr& addr, const BitVector& expected) const;
  /// Moves the whole rank-row of `addr` to a fresh spare, rewriting
  /// `expected` for `addr`'s bank and the stored contents for the others;
  /// retries with further spares until the copy verifies.
  void remap_rank_row(const mem::RowAddr& addr, const BitVector& expected,
                      WriteReport& report);
  /// Updates the maintained parity words of `addr` from its intended image.
  void update_parity(const mem::RowAddr& addr, const BitVector& expected);

  mem::MainMemory& mem_;
  Policy policy_;
  SpareFn spares_;
  Counters counters_;
  /// Per-word parity of each row's intended content, keyed by encoded
  /// logical row id (WriteVerify::kParity only).
  std::unordered_map<std::uint64_t, std::vector<BitVector::Word>> parity_;
};

}  // namespace pinatubo::reliability
