// The line-by-line cache simulator that tests use as the oracle for
// sim::SliceSweep.  It keeps its own representation (per-way tag, valid
// flag and LRU tick) so that it stays independent of SliceSweep's tag rows.
// One access per call over the full-size levels: probe L1 down, fill every
// level that missed (write-allocate), true-LRU replacement.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache.hpp"

namespace pinatubo::sim {

/// One cache level with true-LRU replacement.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheLevelConfig& cfg);

  /// True if the line is present (and touches LRU state).
  bool access(std::uint64_t line_addr);
  /// Installs the line, evicting LRU if needed; returns evicted line or -1.
  std::int64_t install(std::uint64_t line_addr);
  void invalidate(std::uint64_t line_addr);

  const CacheLevelConfig& config() const { return cfg_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats();

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  CacheLevelConfig cfg_;
  std::vector<Way> ways_;  // sets * associativity
  std::uint64_t n_sets_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Result of one hierarchy access: the level index that served it
/// (0 = L1, levels() = memory).
struct AccessOutcome {
  unsigned served_by_level;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(std::vector<CacheLevelConfig> levels);

  /// Byte-address access; line extraction uses L1's line size.
  AccessOutcome access(std::uint64_t addr, bool is_write);

  unsigned levels() const { return static_cast<unsigned>(levels_.size()); }
  const CacheLevel& level(unsigned i) const;
  /// Lines served by each level since reset; index levels() = memory.
  std::vector<std::uint64_t> served_lines() const;
  std::uint64_t memory_lines() const { return memory_lines_; }
  std::uint64_t write_lines() const { return write_lines_; }
  unsigned line_bytes() const;
  void reset_stats();
  /// Drops all cached contents and stats.
  void flush();

 private:
  std::vector<CacheLevel> levels_;
  std::vector<std::uint64_t> served_;
  std::uint64_t memory_lines_ = 0;
  std::uint64_t write_lines_ = 0;
};

}  // namespace pinatubo::sim
