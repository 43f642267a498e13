// Set-associative cache model of the SIMD baseline (the Sniper stand-in's
// memory side).  Line-granularity and true-LRU: an access probes L1 down and
// fills every level that missed (write-allocate), and the CPU model converts
// the lines each level served into time and energy.
//
// SliceSweep prices the one access pattern bulk ops make, an interleaved
// sweep of whole vectors, and returns exactly the per-level counts a
// line-by-line simulator would.  That simulator, CacheHierarchy, lives with
// the tests (tests/sim/cache_oracle.hpp), which check SliceSweep against it
// op by op.
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
// since the last flush hold identical states.  SliceSweep keeps one slice's
// state per such class, splits a class (copying its state) when a new
// boundary cuts it, runs each class's accesses once and counts them once
// per member slice.  Work per sweep drops by S / classes (64x on the
// Haswell config when vector sizes are multiples of 4 KiB).
//
// A class's state is one flat array of normalised tags covering every
// level's slice.  Each set's row keeps its ways in MRU-first order, and an
// empty way holds kEmpty, so the valid ways are always a prefix of the row.
// Move-to-front is exactly true LRU under the access rule: a hit rotates the
// row up to the hit position, and every level above the serving one has
// just missed, so the line is shifted in at the front and the last entry
// (the LRU line, or an empty way) drops out.  One access therefore probes
// each level once; the 8- and 12-way Haswell rows use a fixed-width,
// branch-free compare.
//
// Preconditions, checked: all levels share one line size, every set count
// is a multiple of S, there are at most kMaxLevels levels, every sweep base
// is aligned to S lines, and no normalised tag of a sweep reaches kEmpty.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// Exact per-level counts for interleaved whole-vector sweeps (see the
/// header comment): the cache state lives as one slice's tag rows per
/// equivalence class of L1 sets.
class SliceSweep {
 public:
  static constexpr unsigned kMaxLevels = 4;
  /// Lines served by each level; index levels() = memory, later entries 0.
  using Served = std::array<std::uint64_t, kMaxLevels + 1>;

  explicit SliceSweep(std::vector<CacheLevelConfig> levels);

  /// Runs `for i < lines: for base in bases: access(base + i * line)` on
  /// the cached state and returns the lines each level served.  Every base
  /// must be a multiple of alignment_bytes().  Allocates only when a new
  /// `lines mod S` boundary splits a class (at most S - 1 times per flush).
  Served sweep(std::span<const std::uint64_t> bases, std::uint64_t lines);

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
  /// Tag of an empty way; no normalised tag may equal it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Where one level's slice sits in a class's tag array.
  struct LevelRows {
    std::size_t offset = 0;      ///< first tag of the level's set 0
    std::uint64_t set_mask = 0;  ///< slice sets - 1
    unsigned ways = 0;           ///< row length
  };
  struct SliceClass {
    unsigned first;                   ///< lowest slice index in the class
    std::vector<std::uint64_t> tags;  ///< every level's rows, MRU first
  };
  /// Makes `d` the first slice of a class, splitting the class holding it.
  void split_at(unsigned d);
  /// One line through a class's slice: probe L1 down, move the line to the
  /// front of every level that missed and of the one that served it.
  /// Returns the serving level, levels() for memory.
  unsigned access(std::uint64_t* tags, std::uint64_t tag) const;

  std::vector<CacheLevelConfig> cfgs_;      ///< full-size levels
  std::array<LevelRows, kMaxLevels> rows_{};
  std::size_t class_tags_ = 0;              ///< tags per class, all levels
  unsigned slices_ = 0;                     ///< S = L1 set count
  std::vector<SliceClass> classes_;         ///< sorted by `first`
  std::vector<std::uint64_t> stream_tags_;  ///< line-0 tag of each stream
};

/// The paper's Haswell-class hierarchy: 32 KB L1 / 256 KB L2 / 6 MB L3.
std::vector<CacheLevelConfig> haswell_cache_config();

}  // namespace pinatubo::sim
