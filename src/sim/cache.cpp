#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

/// The one access rule both front ends share: probe from L1 down, fill
/// every level that missed (write-allocate).  Returns the serving level,
/// levels.size() for memory.
unsigned access_line(std::vector<CacheLevel>& levels, std::uint64_t line) {
  for (unsigned l = 0; l < levels.size(); ++l) {
    if (levels[l].access(line)) {
      for (unsigned u = 0; u < l; ++u) levels[u].install(line);
      return l;
    }
  }
  for (auto& lvl : levels) lvl.install(line);
  return static_cast<unsigned>(levels.size());
}

std::uint64_t set_count(const CacheLevelConfig& cfg) {
  PIN_CHECK(cfg.line_bytes > 0 && cfg.associativity > 0);
  return cfg.size_bytes / cfg.line_bytes / cfg.associativity;
}

}  // namespace

CacheLevel::CacheLevel(const CacheLevelConfig& cfg) : cfg_(cfg) {
  PIN_CHECK(cfg.size_bytes > 0);
  PIN_CHECK(cfg.associativity > 0);
  PIN_CHECK(cfg.line_bytes > 0 && std::has_single_bit(cfg.line_bytes));
  const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
  PIN_CHECK_MSG(lines % cfg.associativity == 0,
                cfg.name << ": lines not divisible by associativity");
  n_sets_ = lines / cfg.associativity;
  PIN_CHECK_MSG(std::has_single_bit(n_sets_), cfg.name << ": sets not 2^k");
  ways_.resize(lines);
}

bool CacheLevel::access(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr & (n_sets_ - 1);
  Way* base = &ways_[set * cfg_.associativity];
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    if (base[w].valid && base[w].tag == line_addr) {
      base[w].lru = ++tick_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  return false;
}

std::int64_t CacheLevel::install(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr & (n_sets_ - 1);
  Way* base = &ways_[set * cfg_.associativity];
  Way* victim = base;
  for (unsigned w = 0; w < cfg_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      victim->valid = true;
      victim->tag = line_addr;
      victim->lru = ++tick_;
      return -1;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  const auto evicted = static_cast<std::int64_t>(victim->tag);
  victim->tag = line_addr;
  victim->lru = ++tick_;
  return evicted;
}

void CacheLevel::invalidate(std::uint64_t line_addr) {
  const std::uint64_t set = line_addr & (n_sets_ - 1);
  Way* base = &ways_[set * cfg_.associativity];
  for (unsigned w = 0; w < cfg_.associativity; ++w)
    if (base[w].valid && base[w].tag == line_addr) base[w].valid = false;
}

void CacheLevel::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

CacheHierarchy::CacheHierarchy(std::vector<CacheLevelConfig> levels) {
  PIN_CHECK(!levels.empty());
  for (const auto& cfg : levels) levels_.emplace_back(cfg);
  served_.assign(levels_.size() + 1, 0);
}

AccessOutcome CacheHierarchy::access(std::uint64_t addr, bool is_write) {
  const std::uint64_t line = addr / levels_.front().config().line_bytes;
  if (is_write) ++write_lines_;
  const unsigned l = access_line(levels_, line);
  ++served_[l];
  if (l == levels_.size()) ++memory_lines_;
  return {l};
}

const CacheLevel& CacheHierarchy::level(unsigned i) const {
  PIN_CHECK(i < levels_.size());
  return levels_[i];
}

std::vector<std::uint64_t> CacheHierarchy::served_lines() const {
  return served_;
}

unsigned CacheHierarchy::line_bytes() const {
  return levels_.front().config().line_bytes;
}

void CacheHierarchy::reset_stats() {
  for (auto& l : levels_) l.reset_stats();
  served_.assign(levels_.size() + 1, 0);
  memory_lines_ = 0;
  write_lines_ = 0;
}

void CacheHierarchy::flush() {
  std::vector<CacheLevelConfig> cfgs;
  cfgs.reserve(levels_.size());
  for (const auto& l : levels_) cfgs.push_back(l.config());
  levels_.clear();
  for (const auto& cfg : cfgs) levels_.emplace_back(cfg);
  reset_stats();
}

SliceSweep::SliceSweep(std::vector<CacheLevelConfig> levels)
    : cfgs_(std::move(levels)) {
  PIN_CHECK(!cfgs_.empty());
  const std::uint64_t s = set_count(cfgs_.front());
  PIN_CHECK_MSG(s > 0 && std::has_single_bit(s),
                cfgs_.front().name << ": sets not 2^k");
  slices_ = static_cast<unsigned>(s);
  for (const auto& cfg : cfgs_) {
    PIN_CHECK_MSG(cfg.line_bytes == line_bytes(),
                  cfg.name << ": line size differs from L1's");
    const std::uint64_t sets = set_count(cfg);
    PIN_CHECK_MSG(sets > 0 && sets % slices_ == 0,
                  cfg.name << ": " << sets << " sets do not nest over L1's "
                           << slices_);
    CacheLevelConfig slice = cfg;
    slice.size_bytes = sets / slices_ * cfg.associativity * cfg.line_bytes;
    slice_cfgs_.push_back(slice);
  }
  flush();
}

const CacheLevelConfig& SliceSweep::level_config(unsigned i) const {
  PIN_CHECK(i < cfgs_.size());
  return cfgs_[i];
}

void SliceSweep::flush() {
  classes_.clear();
  classes_.push_back({0, {}});
  for (const auto& cfg : slice_cfgs_) classes_.back().levels.emplace_back(cfg);
}

void SliceSweep::split_at(unsigned d) {
  auto it = std::upper_bound(
      classes_.begin(), classes_.end(), d,
      [](unsigned v, const SliceClass& c) { return v < c.first; });
  // `it - 1` holds d; it is never begin() because classes_[0].first == 0.
  if (std::prev(it)->first == d) return;
  SliceClass split{d, std::prev(it)->levels};
  classes_.insert(it, std::move(split));
}

std::vector<std::uint64_t> SliceSweep::sweep(
    const std::vector<std::uint64_t>& bases, std::uint64_t lines) {
  const std::uint64_t align = alignment_bytes();
  std::vector<std::uint64_t> tags;  // slice-normalised tag of line 0
  tags.reserve(bases.size());
  for (const auto b : bases) {
    PIN_CHECK_MSG(b % align == 0,
                  "sweep base " << b << " not aligned to " << align << " B");
    tags.push_back(b / align);
  }
  if (lines % slices_ != 0) split_at(static_cast<unsigned>(lines % slices_));

  std::vector<std::uint64_t> served(cfgs_.size() + 1, 0);
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    SliceClass& cls = classes_[k];
    if (lines <= cls.first) break;  // this and every later class sit idle
    const unsigned end =
        k + 1 < classes_.size() ? classes_[k + 1].first : slices_;
    const std::uint64_t width = end - cls.first;
    // Slice d sees ceil((lines - d) / S) lines; no boundary cuts the
    // class, so every member sees as many as its first slice.
    const std::uint64_t rounds = (lines - cls.first - 1) / slices_ + 1;
    for (std::uint64_t b = 0; b < rounds; ++b)
      for (const auto t : tags) served[access_line(cls.levels, t + b)] += width;
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
