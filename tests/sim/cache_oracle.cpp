#include "cache_oracle.hpp"

#include <bit>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

/// The access rule SliceSweep reproduces: probe from L1 down, fill every
/// level that missed (write-allocate).  Returns the serving level,
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

}  // namespace pinatubo::sim
