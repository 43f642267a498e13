#include "sim/cpu_model.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace pinatubo::sim {

using mem::Energy;
namespace {

/// Above this many line accesses an op cannot have cache reuse (the
/// operands dwarf the LLC), so the closed-form streaming path is exact.
constexpr std::uint64_t kDirectPathAccesses = 1u << 20;

/// Virtual base address for a logical vector id: ids get disjoint, 4 KiB-
/// aligned arenas so cache behaviour matches a real allocator's.
std::uint64_t vector_base(std::uint64_t id, std::uint64_t bytes) {
  const std::uint64_t stride = std::max<std::uint64_t>(
      4096, (bytes + 4095) / 4096 * 4096);
  return 0x100000000ull + id * stride;
}

}  // namespace

const char* to_string(MemKind k) {
  return k == MemKind::kDram ? "DRAM" : "PCM";
}

MemStreamParams stream_params(MemKind kind) {
  switch (kind) {
    case MemKind::kDram:
      // DDR3-1600, 1 channel, ~80% bus efficiency on streams.
      return {50.0, 10.2, 8.0, 6.0, 6.0};
    case MemKind::kPcm:
      // Longer row cycle (tRCD 18.3) and 151 ns write recovery depress
      // sustained bandwidth; write energy includes the SET/RESET pulses.
      return {70.0, 7.7, 5.1, 10.0, 28.0};
  }
  PIN_UNREACHABLE("bad MemKind");
}

SimdCpuModel::SimdCpuModel(const CpuConfig& cfg, MemKind mem)
    : cfg_(cfg), mem_(mem), mem_params_(stream_params(mem)),
      cache_(haswell_cache_config()) {
  PIN_CHECK(cfg.cores >= 1);
  PIN_CHECK(cfg.bulk_cores >= 1 && cfg.bulk_cores <= cfg.cores);
  PIN_CHECK(cfg.freq_ghz > 0);
  PIN_CHECK(cfg.simd_bits >= 8);
  PIN_CHECK(cfg.mlp >= 1);
  for (unsigned l = 0; l < cache_.levels(); ++l) {
    const std::string name = "cpu." + cache_.level_config(l).name;
    const auto e = mem::energy_from_string(name);
    PIN_CHECK_MSG(e, "no energy component " << name);
    level_energy_.push_back(*e);
  }
}

double SimdCpuModel::compute_gbps() const {
  // One SIMD logic op per participating core per cycle.
  return cfg_.bulk_cores * (cfg_.simd_bits / 8.0) * cfg_.freq_ghz;
}

bool BulkSweep::streaming() const {
  return lines * bases.size() > kDirectPathAccesses;
}

void bulk_sweep(const TraceOp& op, unsigned line_bytes, BulkSweep& out) {
  PIN_CHECK(!op.srcs.empty());
  PIN_CHECK(op.bits > 0);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  PIN_CHECK_MSG(op.bits <= kMax - 63, "op of " << op.bits << " bits");
  // Word-aligned footprint: the host kernels (BitVector) process whole
  // 64-bit words, so the baseline is charged for the same word count the
  // PIM functional layer touches.  Identical to (bits+7)/8 for the word-
  // multiple sizes of every figure; only sub-word tails round up.
  out.bytes = (op.bits + 63) / 64 * 8;
  out.lines = (out.bytes + line_bytes - 1) / line_bytes;
  const std::uint64_t n_streams = op.srcs.size() + 1;  // +dst
  // Bounds bytes * streams, hence processed bytes and line accesses too.
  PIN_CHECK_MSG(out.bytes <= kMax / n_streams,
                n_streams << " streams of " << out.bytes << " B wrap");
  out.bases.clear();
  for (const auto src : op.srcs)
    out.bases.push_back(vector_base(src, out.bytes));
  out.bases.push_back(vector_base(op.dst, out.bytes));
}

mem::Cost SimdCpuModel::bulk_op(const TraceOp& op) {
  bulk_sweep(op, cache_.line_bytes(), op_sweep_);
  const BulkSweep& s = op_sweep_;
  const std::uint64_t n_streams = s.bases.size();
  const std::uint64_t processed = s.bytes * op.srcs.size();

  if (s.streaming()) {
    // Streaming: every source line comes from memory, every dst line is
    // write-allocated and eventually written back.
    SliceSweep::Served served{};
    served[cache_.levels()] = s.lines * n_streams;
    return price(processed, served, s.lines * n_streams, s.lines);
  }

  const SliceSweep::Served served = cache_.sweep(s.bases, s.lines);
  // Dirty dst lines that will eventually be written back: approximate as
  // the dst lines that missed everywhere (streaming stores); cached dst
  // lines get rewritten in place.
  const std::uint64_t mem_lines = served[cache_.levels()];
  // Split memory traffic: dst allocations among the misses cause
  // writebacks; assume misses distribute evenly across streams.
  const std::uint64_t wb_lines = mem_lines / n_streams;
  return price(processed, served, mem_lines, wb_lines);
}

mem::Cost SimdCpuModel::price(std::uint64_t processed_bytes,
                              const SliceSweep::Served& served_lines,
                              std::uint64_t mem_read_lines,
                              std::uint64_t mem_write_lines) const {
  const double line = cache_.line_bytes();
  double t = static_cast<double>(processed_bytes) / compute_gbps();
  mem::Cost cost;
  for (unsigned l = 0; l < cache_.levels(); ++l) {
    const auto& cfg = cache_.level_config(l);
    const double bytes = static_cast<double>(served_lines[l]) * line;
    t = std::max(t, bytes / cfg.bandwidth_gbps);
    cost.energy.add(level_energy_[l], static_cast<double>(served_lines[l]) *
                                          cfg.hit_energy_pj);
  }
  const double rd_bytes = static_cast<double>(mem_read_lines) * line;
  const double wr_bytes = static_cast<double>(mem_write_lines) * line;
  t = std::max(t, rd_bytes / mem_params_.read_gbps +
                      wr_bytes / mem_params_.write_gbps);
  // Latency bound: misses overlap up to MLP per participating core —
  // the binding constraint for the paper's single-threaded kernels.
  t = std::max(t, static_cast<double>(mem_read_lines) *
                      mem_params_.latency_ns / (cfg_.mlp * cfg_.bulk_cores));
  cost.energy.add(Energy::kMemRead,
                  rd_bytes * 8.0 * mem_params_.read_pj_per_bit);
  cost.energy.add(Energy::kMemWrite,
                  wr_bytes * 8.0 * mem_params_.write_pj_per_bit);
  // W * ns -> pJ
  cost.energy.add(Energy::kCpuCore, cfg_.active_power_w * t * 1e3);
  cost.time_ns = t;
  return cost;
}

mem::Cost scalar_cost(const CpuConfig& cfg, MemKind mem, std::uint64_t ops,
                      std::uint64_t bytes) {
  const MemStreamParams mp = stream_params(mem);
  mem::Cost cost;
  const double t_compute =
      static_cast<double>(ops) / (cfg.scalar_ipc * cfg.freq_ghz);
  const double miss_bytes =
      static_cast<double>(bytes) * cfg.scalar_miss_fraction;
  const double t_mem = miss_bytes / mp.read_gbps;
  cost.time_ns = t_compute + t_mem;
  cost.energy.add(Energy::kCpuCore, cfg.scalar_power_w * cost.time_ns * 1e3);
  cost.energy.add(Energy::kMemRead, miss_bytes * 8.0 * mp.read_pj_per_bit);
  // Cached portion still pays cache energy (cheap, L2-class).
  cost.energy.add(Energy::kCpuL2, static_cast<double>(bytes) *
                                      (1.0 - cfg.scalar_miss_fraction) /
                                      64.0 * 300.0);
  return cost;
}

void SimdCpuModel::reset() { cache_.flush(); }

}  // namespace pinatubo::sim
