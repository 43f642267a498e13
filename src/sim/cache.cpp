#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

std::uint64_t set_count(const CacheLevelConfig& cfg) {
  PIN_CHECK(cfg.line_bytes > 0 && cfg.associativity > 0);
  return cfg.size_bytes / cfg.line_bytes / cfg.associativity;
}

/// Moves `tag` to the front of a W-way row and reports whether it was
/// there.  A hit moves the ways in front of it back by one; a miss moves
/// every way back, dropping the last (LRU or empty) one.  A tag sits in at
/// most one way, so the per-way matches have at most one bit set.
template <unsigned W>
bool touch_fixed(std::uint64_t* row, std::uint64_t tag) {
  unsigned match = 0;
  for (unsigned w = 0; w < W; ++w) match |= unsigned{row[w] == tag} << w;
  // The hit way; on a miss the last way, which moves every way as a hit
  // there does.
  const auto pos =
      static_cast<unsigned>(std::countr_zero(match | 1u << (W - 1)));
  for (unsigned w = W - 1; w > 0; --w) row[w] = w <= pos ? row[w - 1] : row[w];
  row[0] = tag;
  return match != 0;
}

/// touch_fixed for any associativity, with a scanning probe.  The Haswell
/// widths keep the fixed-width path because the scanning loop alone prices
/// the paper's SIMD cells ~11% slower (Release, GCC 12, 4-core x86 VM).
bool touch(std::uint64_t* row, unsigned ways, std::uint64_t tag) {
  switch (ways) {
    case 8:
      return touch_fixed<8>(row, tag);
    case 12:
      return touch_fixed<12>(row, tag);
    default: {
      unsigned w = 0;
      while (w < ways && row[w] != tag) ++w;
      const bool hit = w < ways;
      const unsigned moved = hit ? w : ways - 1;
      std::copy_backward(row, row + moved, row + moved + 1);
      row[0] = tag;
      return hit;
    }
  }
}

}  // namespace

SliceSweep::SliceSweep(std::vector<CacheLevelConfig> levels)
    : cfgs_(std::move(levels)) {
  PIN_CHECK(!cfgs_.empty());
  PIN_CHECK_MSG(cfgs_.size() <= kMaxLevels,
                cfgs_.size() << " cache levels, at most " << kMaxLevels);
  const std::uint64_t s = set_count(cfgs_.front());
  PIN_CHECK_MSG(s > 0 && std::has_single_bit(s),
                cfgs_.front().name << ": sets not 2^k");
  slices_ = static_cast<unsigned>(s);
  PIN_CHECK(std::has_single_bit(line_bytes()));
  for (unsigned l = 0; l < cfgs_.size(); ++l) {
    const CacheLevelConfig& cfg = cfgs_[l];
    PIN_CHECK_MSG(cfg.line_bytes == line_bytes(),
                  cfg.name << ": line size differs from L1's");
    const std::uint64_t sets = set_count(cfg);
    PIN_CHECK_MSG(sets > 0 && sets % slices_ == 0,
                  cfg.name << ": " << sets << " sets do not nest over L1's "
                           << slices_);
    PIN_CHECK_MSG(std::has_single_bit(sets), cfg.name << ": sets not 2^k");
    rows_[l] = {class_tags_, sets / slices_ - 1, cfg.associativity};
    class_tags_ += sets / slices_ * cfg.associativity;
  }
  flush();
}

const CacheLevelConfig& SliceSweep::level_config(unsigned i) const {
  PIN_CHECK(i < cfgs_.size());
  return cfgs_[i];
}

void SliceSweep::flush() {
  classes_.clear();
  classes_.push_back({0, std::vector<std::uint64_t>(class_tags_, kEmpty)});
}

void SliceSweep::split_at(unsigned d) {
  auto it = std::upper_bound(
      classes_.begin(), classes_.end(), d,
      [](unsigned v, const SliceClass& c) { return v < c.first; });
  // `it - 1` holds d; it is never begin() because classes_[0].first == 0.
  if (std::prev(it)->first == d) return;
  SliceClass split{d, std::prev(it)->tags};
  classes_.insert(it, std::move(split));
}

unsigned SliceSweep::access(std::uint64_t* tags, std::uint64_t tag) const {
  // Every level down to the serving one ends with the line at its front,
  // and the levels are independent, so each is updated as it is probed.
  const unsigned n = levels();
  for (unsigned l = 0; l < n; ++l) {
    const LevelRows& lv = rows_[l];
    if (touch(tags + lv.offset + (tag & lv.set_mask) * lv.ways, lv.ways, tag))
      return l;
  }
  return n;
}

SliceSweep::Served SliceSweep::sweep(std::span<const std::uint64_t> bases,
                                     std::uint64_t lines) {
  const std::uint64_t align = alignment_bytes();
  // Class 0 sees the most rounds; the sweep's tags run up to
  // tag0 + max_rounds - 1, which must stay below kEmpty.
  const std::uint64_t max_rounds = lines == 0 ? 0 : (lines - 1) / slices_ + 1;
  stream_tags_.clear();
  for (const auto b : bases) {
    PIN_CHECK_MSG(b % align == 0,
                  "sweep base " << b << " not aligned to " << align << " B");
    PIN_CHECK_MSG(b / align <= kEmpty - max_rounds,
                  "sweep base " << b << " + " << lines
                                << " lines reaches the empty-way tag");
    stream_tags_.push_back(b / align);
  }
  if (lines % slices_ != 0) split_at(static_cast<unsigned>(lines % slices_));

  Served served{};
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    SliceClass& cls = classes_[k];
    if (lines <= cls.first) break;  // this and every later class sit idle
    const unsigned end =
        k + 1 < classes_.size() ? classes_[k + 1].first : slices_;
    const std::uint64_t width = end - cls.first;
    // Slice d sees ceil((lines - d) / S) lines; no boundary cuts the
    // class, so every member sees as many as its first slice.
    const std::uint64_t rounds = (lines - cls.first - 1) / slices_ + 1;
    std::uint64_t* tags = cls.tags.data();
    for (std::uint64_t b = 0; b < rounds; ++b)
      for (const auto t : stream_tags_) served[access(tags, t + b)] += width;
  }
  return served;
}

std::vector<CacheLevelConfig> haswell_cache_config() {
  return {
      {"L1", 32 * 1024, 8, 64, 1.2, 60, 400.0},
      {"L2", 256 * 1024, 8, 64, 3.6, 300, 200.0},
      {"L3", 6 * 1024 * 1024, 12, 64, 12.0, 1000, 100.0},
  };
}

}  // namespace pinatubo::sim
