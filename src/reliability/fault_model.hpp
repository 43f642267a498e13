// Deterministic, seeded NVM fault model (DESIGN.md §10).
//
// Implements the memory's `FaultHooks` seam with four fault mechanisms:
//
//   * manufacturing stuck-at cells — a pure function of (seed, physical
//     row, word): at most one stuck cell per 64-bit word with probability
//     64 * stuck_rate (a first-order approximation of per-cell i.i.d.
//     faults, exact to O(rate^2)).  Applied to the stored words on every
//     write, idempotently, so a row's corruption never depends on access
//     order.  The first write of a physical row lists its stuck cells from
//     the map once; later writes re-assert that list;
//   * endurance wear-out — once a row's cumulative write count (from the
//     existing WearTracker ledger) passes `endurance_cycles`, each further
//     write kills one cell of the written window with probability
//     `wearout_rate`.  Wear-out faults accumulate in a map (dynamic
//     state) and behave like stuck-at from then on;
//   * resistance drift — each row remembers the sense epoch of its last
//     write; a sense's BER scales by (1 + drift_rate * age), the
//     log-normal-resistance-drift story reduced to its margin effect;
//   * BER sense flips — per sensed output word, flip one bit with
//     probability 64 * sense_ber * scale, where scale folds in drift age
//     and the activation width (sense_ber is the 2-row baseline; an n-row
//     activation runs at n/2 of it — the narrowing-margin story that makes
//     de-escalation pay off).  Pure function of (seed, sense epoch, word),
//     so retried senses (new epoch) redraw and any thread count sees
//     identical flips.  The memory asks for a whole sense's flips in one
//     call; the per-word `sense_flips` overload draws the same flip.
//
// `ber_from_yield` ties `fault.sense_ber` to the circuit layer: the
// Monte-Carlo yield of `circuit::monte_carlo_yield` measures the fraction
// of correct sense decisions for an activation shape; 1 - yield IS the
// per-bit error rate this model injects.  For healthy shapes (PCM OR
// within the derived margin) that is ~0 — campaigns model end-of-life or
// out-of-margin corners by setting the rate explicitly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/fault_hooks.hpp"
#include "nvm/technology.hpp"
#include "reliability/policy.hpp"

namespace pinatubo::reliability {

class FaultModel final : public mem::FaultHooks {
 public:
  using Word = BitVector::Word;

  explicit FaultModel(const FaultConfig& cfg);

  // ---- FaultHooks ----------------------------------------------------------
  void on_write(std::uint64_t row_id, std::uint64_t write_count,
                std::uint64_t epoch, std::span<Word> row,
                std::size_t word_lo, std::size_t word_hi) override;
  double sense_scale(std::uint64_t epoch,
                     std::span<const std::uint64_t> row_ids) override;
  void sense_flips(std::uint64_t epoch, double scale,
                   std::span<Word> out) override;

  /// The flip mask of output word `word` of the sense at `epoch` — the
  /// same draw the span hook XORs into that word (and counted the same).
  Word sense_flips(std::uint64_t epoch, std::uint64_t word, double scale);

  // ---- introspection -------------------------------------------------------
  /// The static stuck-at fault of (physical row, word), if any.  Pure —
  /// tests and tools can audit the map without touching memory state.
  struct StuckFault {
    Word mask = 0;
    bool stuck_one = false;
  };
  std::optional<StuckFault> stuck_fault(std::uint64_t row_id,
                                        std::uint64_t word) const;

  /// Wear-out cells killed so far (dynamic state).
  std::uint64_t wearout_cells() const { return wearout_cells_; }
  /// Sensed words that received a BER flip so far.
  std::uint64_t flipped_words() const { return flipped_words_; }

  const FaultConfig& config() const { return cfg_; }

  /// Drops the dynamic state (wear-out faults, data ages, counters).  The
  /// static stuck-at map is a pure function of the seed and survives — the
  /// same chip, fresh campaign — and so does its per-row cache.
  void reset();

 private:
  /// One faulty cell of a row: stuck-at or worn out.
  struct CellFault {
    std::uint32_t word;
    Word mask;
    bool stuck_one;
  };
  /// The stuck cells of a `words`-word physical row, in word order, as
  /// `stuck_fault` defines them.
  struct StuckRow {
    std::size_t words = 0;
    std::vector<CellFault> cells;
  };

  /// `row_id`'s stuck cells for a row of `words` words, listed from
  /// `stuck_fault` on first use (and again if `words` changes).
  const std::vector<CellFault>& stuck_cells(std::uint64_t row_id,
                                            std::size_t words);
  /// Per-word flip probability of a sense at BER multiplier `scale`.
  double flip_probability(double scale) const;

  FaultConfig cfg_;
  std::uint64_t stuck_key_;
  std::uint64_t wear_key_;
  std::uint64_t flip_key_;
  std::unordered_map<std::uint64_t, StuckRow> stuck_rows_;
  std::unordered_map<std::uint64_t, std::vector<CellFault>> wearout_;
  std::unordered_map<std::uint64_t, std::uint64_t> last_write_epoch_;
  std::uint64_t wearout_cells_ = 0;
  std::uint64_t flipped_words_ = 0;
};

/// The injected-BER <-> circuit-margin bridge: 1 - Monte-Carlo yield of
/// (op, n_rows) on `tech`, i.e. the per-bit sense error rate the circuit
/// layer predicts for that activation shape.
double ber_from_yield(nvm::Tech tech, BitOp op, unsigned n_rows,
                      std::size_t trials = 4096, std::uint64_t seed = 1);

}  // namespace pinatubo::reliability
