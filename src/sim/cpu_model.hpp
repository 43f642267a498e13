// SIMD CPU cost model — the paper's conventional baseline (Sniper stand-in).
//
// A 4-core, 3.3 GHz, 4-issue Haswell-class processor with 128-bit SSE/AVX
// and the 32K/256K/6M cache hierarchy.  Bulk bitwise kernels are priced by
// driving their access stream through the cache model and converting
// per-level service counts into bandwidth/latency bounds:
//
//   t_op = max( SIMD compute,  L1/L2/L3 bandwidth,  memory bandwidth,
//               miss latency / MLP )
//
// which is the standard roofline treatment a cycle-accurate simulator
// converges to for these streaming kernels.  Very large ops (no reuse
// possible) switch to the closed-form streaming path — identical result,
// without simulating millions of lines.
//
// The access stream of one op is an interleaved sweep: line i of every
// source, then of dst, for i = 0, 1, ...  Each logical vector id sits at a
// 4 KiB-aligned virtual base (bulk_sweep()), which is exactly the
// alignment SliceSweep (sim/cache.hpp) needs on the Haswell hierarchy, so
// the cache state is one representative 64-line slice's MRU-ordered tag
// rows per equivalence class, not a line-by-line simulation.  The
// per-level counts, and so every priced time and energy, equal those of
// the line-by-line CacheHierarchy (tests/sim/cache_oracle.hpp); tests
// check that op by op.
//
// A warmed model prices an op without touching the heap: the stream bases
// go into a reused buffer and the per-level counts into a fixed array.
//
// The *scalar* remainder of applications (frontier scanning, query
// bookkeeping), which runs on the host in every backend, is priced by the
// cache-free scalar_cost().
#pragma once

#include <cstdint>
#include <vector>

#include "mem/energy.hpp"
#include "sim/backend.hpp"
#include "sim/cache.hpp"

namespace pinatubo::sim {

/// Which main memory the CPU streams from.  The paper compares SIMD-on-DRAM
/// against S-DRAM and SIMD-on-PCM against AC-PIM / Pinatubo.
enum class MemKind { kDram, kPcm };

const char* to_string(MemKind k);

/// Sustained streaming characteristics of the main memory, as a CPU sees
/// them (bus + bank effects folded into effective bandwidths).
struct MemStreamParams {
  double latency_ns;        ///< load-to-use miss latency
  double read_gbps;         ///< sustained streaming read bandwidth
  double write_gbps;        ///< sustained streaming write bandwidth
  double read_pj_per_bit;   ///< end-to-end (array + bus) read energy
  double write_pj_per_bit;  ///< end-to-end write energy
};

MemStreamParams stream_params(MemKind kind);

struct CpuConfig {
  unsigned cores = 4;
  double freq_ghz = 3.3;
  unsigned simd_bits = 128;   ///< SSE/AVX datapath width
  /// Cores running a bulk bitwise kernel.  The paper's applications
  /// (FastBit, bitmap BFS) are single-threaded codes, so the baseline's
  /// kernels are latency-bound on one core — the dominant term of its
  /// effective bandwidth.
  unsigned bulk_cores = 1;
  unsigned mlp = 4;           ///< outstanding misses per core
  double active_power_w = 40; ///< package power while the kernel runs
  double scalar_power_w = 15; ///< single-core scalar phases
  double scalar_ipc = 2.0;
  /// Fraction of scalar bytes that miss the caches (apps have locality).
  double scalar_miss_fraction = 0.3;
};

/// Prices the scalar aggregate of a trace on the host CPU.  Needs no cache
/// state, so backends call it without building a SimdCpuModel.
mem::Cost scalar_cost(const CpuConfig& cfg, MemKind mem, std::uint64_t ops,
                      std::uint64_t bytes);

/// The access stream `SimdCpuModel::bulk_op` prices for one op: for every
/// line i < lines, one access at bases[s] + i * line_bytes for each stream
/// s — the sources in order, then dst.
struct BulkSweep {
  std::uint64_t bytes = 0;            ///< word-aligned operand footprint
  std::uint64_t lines = 0;            ///< lines per stream
  std::vector<std::uint64_t> bases;   ///< one 4 KiB-aligned base per stream
  /// Too many accesses for any reuse: priced in closed form, and the cache
  /// state is left untouched.
  bool streaming() const;
};

/// Lays out `op` in the virtual address space (disjoint 4 KiB-aligned
/// arenas per vector id) into `out`, reusing the storage of `out.bases`.
/// Rejects ops whose footprint arithmetic would wrap.
void bulk_sweep(const TraceOp& op, unsigned line_bytes, BulkSweep& out);

class SimdCpuModel {
 public:
  SimdCpuModel(const CpuConfig& cfg, MemKind mem);

  /// Prices one bulk bitwise op.  Cache state persists across calls so
  /// small working sets (BFS frontiers, hot bitmaps) hit in L2/L3.
  mem::Cost bulk_op(const TraceOp& op);

  /// Clears cache contents (call between independent traces).  Cheap: the
  /// state is one slice of each level.
  void reset();

  MemKind mem_kind() const { return mem_; }
  const CpuConfig& config() const { return cfg_; }

  /// SIMD throughput ceiling in bytes/ns (GB/s).
  double compute_gbps() const;

 private:
  mem::Cost price(std::uint64_t processed_bytes,
                  const SliceSweep::Served& served_lines,
                  std::uint64_t mem_read_lines,
                  std::uint64_t mem_write_lines) const;

  CpuConfig cfg_;
  MemKind mem_;
  MemStreamParams mem_params_;
  SliceSweep cache_;
  BulkSweep op_sweep_;  ///< the op being priced; storage reused across ops
  std::vector<mem::Energy> level_energy_;  ///< cache level -> "cpu.<level>"
};

}  // namespace pinatubo::sim
