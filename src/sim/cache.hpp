// Set-associative cache hierarchy simulator (the Sniper stand-in's memory
// side).  Line-granularity, true-LRU, inclusive-enough for bandwidth/energy
// accounting: each access reports the level that served it, and the
// hierarchy keeps per-level hit counters the CPU model converts into time
// and energy.
//
// Two front ends share one access rule (probe L1 down, fill every level
// that missed):
//
//   CacheHierarchy — one access per call over the full-size levels.  The
//       reference model; tests use it as the oracle for SliceSweep.
//   SliceSweep — the CPU model's production path.  It prices the one access
//       pattern bulk ops make, an interleaved sweep of whole vectors, and
//       returns exactly the per-level counts CacheHierarchy would.
//
// Why the slice sweep is exact.  Let S be L1's set count.  Every level maps
// a line to set (line mod sets); when each level's set count is a multiple
// of S, L1 set d and the sets {d + S*j} of every lower level form a closed
// sub-hierarchy ("slice" d) that only lines with line mod S == d ever
// touch.  Slices are independent, and LRU order only matters within a set.
// If every vector base is aligned to S lines, then during a sweep of
// `lines` lines slice d sees base_v + S*b + d in (b, stream) order, for
// b < ceil((lines - d) / S).  With tags normalised to (line - d) / S, that
// sequence depends on d only through whether d < lines mod S.  So slices
// whose d lies between the same boundaries {lines mod S} of every sweep
// since the last flush hold identical states.  SliceSweep keeps one
// slice-sized hierarchy per such class, splits a class (copying its state)
// when a new boundary cuts it, runs each class's accesses once and counts
// them once per member slice.  Work per sweep drops by S / classes (64x on
// the Haswell config when vector sizes are multiples of 4 KiB).
//
// Preconditions, checked: all levels share one line size, every set count
// is a multiple of S, and every sweep base is aligned to S lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pinatubo::sim {

struct CacheLevelConfig {
  std::string name;
  std::uint64_t size_bytes = 0;
  unsigned associativity = 8;
  unsigned line_bytes = 64;
  double hit_latency_ns = 1.0;
  double hit_energy_pj = 100.0;   ///< per line access
  double bandwidth_gbps = 100.0;  ///< aggregate sustained
};

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

/// Exact per-level counts for interleaved whole-vector sweeps (see the
/// header comment): the cache state lives as one slice-sized hierarchy per
/// equivalence class of L1 sets.
class SliceSweep {
 public:
  explicit SliceSweep(std::vector<CacheLevelConfig> levels);

  /// Runs `for i < lines: for base in bases: access(base + i * line)` on
  /// the cached state and returns the lines each level served (index
  /// levels() = memory).  Every base must be a multiple of
  /// alignment_bytes().
  std::vector<std::uint64_t> sweep(const std::vector<std::uint64_t>& bases,
                                   std::uint64_t lines);

  unsigned levels() const { return static_cast<unsigned>(cfgs_.size()); }
  const CacheLevelConfig& level_config(unsigned i) const;
  unsigned line_bytes() const { return cfgs_.front().line_bytes; }
  /// Required base alignment: one line per slice.
  std::uint64_t alignment_bytes() const {
    return std::uint64_t{slices_} * line_bytes();
  }
  /// Drops all cached contents.
  void flush();

 private:
  struct SliceClass {
    unsigned first;                  ///< lowest slice index in the class
    std::vector<CacheLevel> levels;  ///< one slice of every level
  };
  /// Makes `d` the first slice of a class, splitting the class holding it.
  void split_at(unsigned d);

  std::vector<CacheLevelConfig> cfgs_;        ///< full-size levels
  std::vector<CacheLevelConfig> slice_cfgs_;  ///< one slice of each level
  unsigned slices_ = 0;                       ///< S = L1 set count
  std::vector<SliceClass> classes_;           ///< sorted by `first`
};

/// The paper's Haswell-class hierarchy: 32 KB L1 / 256 KB L2 / 6 MB L3.
std::vector<CacheLevelConfig> haswell_cache_config();

}  // namespace pinatubo::sim
