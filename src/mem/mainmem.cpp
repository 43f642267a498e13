#include "mem/mainmem.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace pinatubo::mem {

MainMemory::MainMemory(const Geometry& geo, nvm::Tech tech,
                       SenseFidelity fidelity, std::uint64_t seed)
    : codec_(geo), tech_(tech), cell_(&nvm::cell_params(tech)),
      fidelity_(fidelity), seed_(seed),
      row_words_((geo.rank_row_bits() + BitVector::kWordBits - 1) /
                 BitVector::kWordBits),
      banks_(static_cast<std::size_t>(geo.channels) * geo.ranks_per_channel *
             geo.banks_per_chip),
      zero_row_(row_words_, 0) {}

std::size_t MainMemory::bank_index(const RowAddr& a) const {
  const auto& g = geometry();
  return (static_cast<std::size_t>(a.channel) * g.ranks_per_channel + a.rank) *
             g.banks_per_chip +
         a.bank;
}

std::size_t MainMemory::row_in_bank(const RowAddr& a) const {
  return static_cast<std::size_t>(a.subarray) *
             geometry().rows_per_subarray +
         a.row;
}

RowAddr MainMemory::physical(const RowAddr& logical) const {
  if (remap_.empty()) return logical;
  const auto it = remap_.find(codec_.encode(logical));
  return it == remap_.end() ? logical : codec_.decode(it->second);
}

void MainMemory::remap_row(const RowAddr& logical, const RowAddr& replacement) {
  codec_.check(logical);
  codec_.check(replacement);
  remap_[codec_.encode(logical)] = codec_.encode(replacement);
}

void MainMemory::reset_campaign() {
  for (BankArena& b : banks_) {
    b.slots.clear();
    b.slabs.clear();
    b.used = 0;
  }
  rows_written_ = 0;
  sense_epoch_ = 0;
  remap_.clear();
  wear_.reset();
}

const MainMemory::Word* MainMemory::find_row(const RowAddr& logical) const {
  codec_.check(logical);
  const RowAddr addr = physical(logical);
  const BankArena& bank = banks_[bank_index(addr)];
  if (bank.slots.empty()) return nullptr;
  const std::uint32_t slot = bank.slots[row_in_bank(addr)];
  if (slot == 0) return nullptr;
  const std::size_t idx = slot - 1;
  return bank.slabs[idx / kRowsPerSlab].get() +
         (idx % kRowsPerSlab) * row_words_;
}

MainMemory::Word* MainMemory::materialize_row(const RowAddr& logical) {
  codec_.check(logical);
  const RowAddr addr = physical(logical);
  BankArena& bank = banks_[bank_index(addr)];
  if (bank.slots.empty())
    bank.slots.assign(geometry().rows_per_bank(), 0);
  std::uint32_t& slot = bank.slots[row_in_bank(addr)];
  if (slot == 0) {
    if (bank.used % kRowsPerSlab == 0)
      bank.slabs.push_back(
          std::make_unique<Word[]>(kRowsPerSlab * row_words_));
    slot = ++bank.used;
    ++rows_written_;
  }
  const std::size_t idx = slot - 1;
  return bank.slabs[idx / kRowsPerSlab].get() +
         (idx % kRowsPerSlab) * row_words_;
}

void MainMemory::finish_write(const RowAddr& logical, Word* row,
                              std::size_t bits, std::size_t word_lo,
                              std::size_t word_hi) {
  // Wear and fault keying follow the PHYSICAL row: a remapped row wears
  // its spare, and the spare's own manufacturing faults apply to it.
  const std::uint64_t pid = codec_.encode(physical(logical));
  wear_.record(pid, bits);
  if (hooks_ == nullptr) return;
  hooks_->on_write(pid, wear_.writes_of(pid), sense_epoch_,
                   {row, row_words_}, word_lo, word_hi);
  // Re-establish the trailing-zero invariant (a stuck-at-1 cell past the
  // row width is physically real but outside the addressable array).
  const std::size_t tail = geometry().rank_row_bits() % BitVector::kWordBits;
  if (tail != 0) row[row_words_ - 1] &= (Word{1} << tail) - 1;
}

void MainMemory::write_row(const RowAddr& addr, const BitVector& data) {
  PIN_CHECK_MSG(data.size() == geometry().rank_row_bits(),
                "row write size " << data.size() << " != "
                                  << geometry().rank_row_bits());
  Word* dst = materialize_row(addr);
  const auto src = data.words();
  std::copy(src.begin(), src.end(), dst);
  finish_write(addr, dst, data.size(), 0, row_words_);
}

void MainMemory::write_row_partial(const RowAddr& addr,
                                   std::size_t bit_offset,
                                   const BitVector& data) {
  const std::size_t row_bits = geometry().rank_row_bits();
  PIN_CHECK_MSG(bit_offset + data.size() <= row_bits,
                "partial write [" << bit_offset << ", "
                                  << bit_offset + data.size() << ") exceeds row "
                                  << row_bits);
  Word* dst = materialize_row(addr);
  copy_bits({dst, row_words_}, bit_offset, data.words(), 0, data.size());
  finish_write(addr, dst, data.size(), bit_offset / BitVector::kWordBits,
               (bit_offset + data.size() + BitVector::kWordBits - 1) /
                   BitVector::kWordBits);
}

BitVector MainMemory::read_row(const RowAddr& addr) const {
  return BitVector::from_words(row_view(addr), geometry().rank_row_bits());
}

BitVector MainMemory::read_row_partial(const RowAddr& addr,
                                       std::size_t bit_offset,
                                       std::size_t bits) const {
  const std::size_t row_bits = geometry().rank_row_bits();
  PIN_CHECK_MSG(bit_offset + bits <= row_bits,
                "partial read beyond row width");
  BitVector out(bits);
  copy_bits(out.words(), 0, row_view(addr), bit_offset, bits);
  return out;
}

bool MainMemory::row_exists(const RowAddr& addr) const {
  return find_row(addr) != nullptr;
}

std::span<const MainMemory::Word> MainMemory::row_view(
    const RowAddr& addr) const {
  const Word* words = find_row(addr);
  return {words != nullptr ? words : zero_row_.data(), row_words_};
}

BitVector MainMemory::sense_rows(const std::vector<RowAddr>& rows, BitOp op) {
  PIN_CHECK(!rows.empty());
  const auto n = static_cast<unsigned>(rows.size());
  for (const auto& r : rows) {
    codec_.check(r);
    PIN_CHECK_MSG(r.same_subarray(rows.front()),
                  "intra-subarray op requires co-located rows: "
                      << r.to_string() << " vs " << rows.front().to_string());
  }
  PIN_CHECK_MSG(csa_.supports(op, n, *cell_),
                "unsupported sense shape: " << pinatubo::to_string(op)
                                            << " over " << n << " rows on "
                                            << nvm::to_string(tech_));

  // One epoch per sense: keys both the analog variation draws and the
  // fault model's flip draws, so every sense (and every re-sense retry)
  // samples fresh, thread-count-independent randomness.
  ++sense_epoch_;

  const std::size_t width = geometry().rank_row_bits();
  std::vector<std::span<const Word>> views;
  views.reserve(rows.size());
  for (const auto& r : rows) views.push_back(row_view(r));

  BitVector out(width);
  const auto outw = out.words();
  if (fidelity_ == SenseFidelity::kNominal) {
    // Word-parallel equivalent of nominal analog sensing, straight from the
    // row views (no operand copies).
    std::copy(views[0].begin(), views[0].end(), outw.begin());
    for (std::size_t r = 1; r < views.size(); ++r) {
      const auto v = views[r];
      switch (op) {
        case BitOp::kOr:
          for (std::size_t w = 0; w < row_words_; ++w) outw[w] |= v[w];
          break;
        case BitOp::kAnd:
          for (std::size_t w = 0; w < row_words_; ++w) outw[w] &= v[w];
          break;
        case BitOp::kXor:
          for (std::size_t w = 0; w < row_words_; ++w) outw[w] ^= v[w];
          break;
        case BitOp::kInv:
          PIN_UNREACHABLE("INV is 1-row");
      }
    }
    if (op == BitOp::kInv)
      for (std::size_t w = 0; w < row_words_; ++w) outw[w] = ~outw[w];
  } else {
    // Analog path: the batched kernel senses 64 bitlines per call; word
    // blocks are sharded over the pool.  Every word derives its own
    // counter-based draw stream from (seed, sense epoch, word index), so
    // results are bit-identical for any thread count.
    const circuit::SenseBatch batch(csa_, *cell_, op, n);
    const std::uint64_t key = CounterRng::stream_base(seed_, sense_epoch_);
    parallel_for(
        0, row_words_,
        [&](std::size_t lo, std::size_t hi) {
          std::vector<std::uint64_t> ops(views.size());
          for (std::size_t w = lo; w < hi; ++w) {
            for (std::size_t r = 0; r < views.size(); ++r) ops[r] = views[r][w];
            outw[w] =
                batch.sense_words(ops, CounterRng::stream_base(key, w));
          }
        },
        /*grain=*/16);
  }
  // BER-driven sense flips (fault model): transient read failures XOR into
  // the sensed output only; the array contents stay intact.  One serial
  // call per sense — the flips are a pure function of (epoch, word), so
  // the result is identical for any thread count either way.
  if (hooks_ != nullptr) {
    std::vector<std::uint64_t> ids;
    ids.reserve(rows.size());
    for (const auto& r : rows) ids.push_back(codec_.encode(physical(r)));
    const double scale = hooks_->sense_scale(sense_epoch_, ids);
    if (scale > 0.0) hooks_->sense_flips(sense_epoch_, scale, outw);
  }
  // Restore the trailing-zero invariant (INV, analog lanes and fault flips
  // can set tail bits past the row width).
  const std::size_t tail = width % BitVector::kWordBits;
  if (tail != 0) outw[row_words_ - 1] &= (Word{1} << tail) - 1;
  return out;
}

}  // namespace pinatubo::mem
