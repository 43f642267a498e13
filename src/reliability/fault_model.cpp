#include "reliability/fault_model.hpp"

#include <algorithm>

#include "circuit/margin.hpp"
#include "common/random.hpp"

namespace pinatubo::reliability {

namespace {
// Domain separators so the three fault mechanisms draw from disjoint
// streams of one seed.
constexpr std::uint64_t kStuckSalt = 0x5b8f3a1dc96e7042ull;
constexpr std::uint64_t kWearSalt = 0x1d6a2f9c84b35e71ull;
constexpr std::uint64_t kFlipSalt = 0x9c41e87f25d0b3a6ull;

/// The one definition of a sense flip: output word `word` of the sense
/// whose flip stream is `sense_key` flips one bit with probability `p`.
inline FaultModel::Word flip_draw(std::uint64_t sense_key, std::uint64_t word,
                                  double p) {
  const std::uint64_t base = CounterRng::stream_base(sense_key, word);
  if (CounterRng::to_unit(CounterRng::draw(base, 0)) >= p) return 0;
  return FaultModel::Word{1} << (CounterRng::draw(base, 1) & 63);
}
}  // namespace

FaultModel::FaultModel(const FaultConfig& cfg)
    : cfg_(cfg),
      stuck_key_(CounterRng::mix64(cfg.seed ^ kStuckSalt)),
      wear_key_(CounterRng::mix64(cfg.seed ^ kWearSalt)),
      flip_key_(CounterRng::mix64(cfg.seed ^ kFlipSalt)) {}

std::optional<FaultModel::StuckFault> FaultModel::stuck_fault(
    std::uint64_t row_id, std::uint64_t word) const {
  if (cfg_.stuck_rate <= 0.0) return std::nullopt;
  const std::uint64_t base =
      CounterRng::stream_base(CounterRng::stream_base(stuck_key_, row_id),
                              word);
  const double p =
      std::min(1.0, BitVector::kWordBits * cfg_.stuck_rate);
  if (CounterRng::to_unit(CounterRng::draw(base, 0)) >= p)
    return std::nullopt;
  const std::uint64_t r = CounterRng::draw(base, 1);
  StuckFault f;
  f.mask = Word{1} << (r & 63);
  f.stuck_one = ((r >> 6) & 1) != 0;
  return f;
}

const std::vector<FaultModel::CellFault>& FaultModel::stuck_cells(
    std::uint64_t row_id, std::size_t words) {
  StuckRow& entry = stuck_rows_[row_id];
  if (entry.words != words) {
    entry.words = words;
    entry.cells.clear();
    for (std::size_t w = 0; w < words; ++w)
      if (const auto f = stuck_fault(row_id, w))
        entry.cells.push_back(
            {static_cast<std::uint32_t>(w), f->mask, f->stuck_one});
  }
  return entry.cells;
}

void FaultModel::on_write(std::uint64_t row_id, std::uint64_t write_count,
                          std::uint64_t epoch, std::span<Word> row,
                          std::size_t word_lo, std::size_t word_hi) {
  // Sample wear-out: past the endurance knee, each write kills at most one
  // cell of the window it touched.  Keyed on (row, write_count) so replays
  // of the same write history produce the same faults.
  if (cfg_.endurance_cycles > 0.0 && cfg_.wearout_rate > 0.0 &&
      static_cast<double>(write_count) > cfg_.endurance_cycles &&
      word_hi > word_lo) {
    const std::uint64_t base = CounterRng::stream_base(
        CounterRng::stream_base(wear_key_, row_id), write_count);
    if (CounterRng::to_unit(CounterRng::draw(base, 0)) < cfg_.wearout_rate) {
      const std::uint64_t r = CounterRng::draw(base, 1);
      CellFault f;
      f.word = static_cast<std::uint32_t>(word_lo + r % (word_hi - word_lo));
      f.mask = Word{1} << ((r >> 32) & 63);
      f.stuck_one = ((r >> 38) & 1) != 0;
      wearout_[row_id].push_back(f);
      ++wearout_cells_;
    }
  }

  // Persistent faults re-assert over the WHOLE row (idempotent): a stuck
  // cell holds its value no matter which window the write touched.
  const auto reassert = [&row](const std::vector<CellFault>& cells) {
    for (const CellFault& f : cells) {
      if (f.stuck_one)
        row[f.word] |= f.mask;
      else
        row[f.word] &= ~f.mask;
    }
  };
  if (cfg_.stuck_rate > 0.0) reassert(stuck_cells(row_id, row.size()));
  if (const auto it = wearout_.find(row_id); it != wearout_.end())
    reassert(it->second);

  if (cfg_.drift_rate > 0.0) last_write_epoch_[row_id] = epoch;
}

double FaultModel::sense_scale(std::uint64_t epoch,
                               std::span<const std::uint64_t> row_ids) {
  if (cfg_.sense_ber <= 0.0) return 0.0;
  // The sense margin narrows as more rows share the bitline (the paper's
  // Fig. 6 story): `sense_ber` is the 2-row baseline, wider activations
  // scale linearly — which is what makes de-escalation (128 -> 2x64 ->
  // ...) a real rung of the recovery ladder, not just another retry.
  const double width = row_ids.size() <= 2
                           ? 1.0
                           : static_cast<double>(row_ids.size()) / 2.0;
  if (cfg_.drift_rate <= 0.0) return width;
  // The oldest operand dominates: its resistance distribution has drifted
  // the furthest toward the sense boundary.
  std::uint64_t max_age = 0;
  for (const std::uint64_t id : row_ids) {
    const auto it = last_write_epoch_.find(id);
    // Rows with no recorded write (e.g. pre-attach data) count as fresh.
    const std::uint64_t written = it == last_write_epoch_.end() ? epoch
                                                                : it->second;
    max_age = std::max(max_age, epoch - std::min(epoch, written));
  }
  return width * (1.0 + cfg_.drift_rate * static_cast<double>(max_age));
}

double FaultModel::flip_probability(double scale) const {
  return std::min(1.0, BitVector::kWordBits * cfg_.sense_ber * scale);
}

void FaultModel::sense_flips(std::uint64_t epoch, double scale,
                             std::span<Word> out) {
  const double p = flip_probability(scale);
  if (p <= 0.0) return;
  const std::uint64_t key = CounterRng::stream_base(flip_key_, epoch);
  for (std::size_t w = 0; w < out.size(); ++w) {
    const Word f = flip_draw(key, w, p);
    if (f == 0) continue;
    out[w] ^= f;
    ++flipped_words_;
  }
}

FaultModel::Word FaultModel::sense_flips(std::uint64_t epoch,
                                         std::uint64_t word, double scale) {
  const double p = flip_probability(scale);
  if (p <= 0.0) return 0;
  const Word f = flip_draw(CounterRng::stream_base(flip_key_, epoch), word, p);
  if (f != 0) ++flipped_words_;
  return f;
}

void FaultModel::reset() {
  wearout_.clear();
  last_write_epoch_.clear();
  wearout_cells_ = 0;
  flipped_words_ = 0;
}

double ber_from_yield(nvm::Tech tech, BitOp op, unsigned n_rows,
                      std::size_t trials, std::uint64_t seed) {
  const circuit::CsaModel csa;
  Rng rng(seed);
  const auto y = circuit::monte_carlo_yield(nvm::cell_params(tech), op,
                                            n_rows, trials, csa, rng);
  return std::max(0.0, 1.0 - y.yield);
}

}  // namespace pinatubo::reliability
