#include "sim/cpu_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

TraceOp or2(std::uint64_t bits, std::uint64_t base_id = 0) {
  TraceOp op;
  op.op = BitOp::kOr;
  op.srcs = {base_id, base_id + 1};
  op.dst = base_id + 2;
  op.bits = bits;
  return op;
}

TEST(StreamParams, PcmSlowerThanDram) {
  const auto d = stream_params(MemKind::kDram);
  const auto p = stream_params(MemKind::kPcm);
  EXPECT_GT(d.read_gbps, p.read_gbps);
  EXPECT_GT(d.write_gbps, p.write_gbps);
  EXPECT_LT(d.latency_ns, p.latency_ns);
  EXPECT_GT(p.write_pj_per_bit, d.write_pj_per_bit);
}

TEST(SimdCpuModel, ComputeCeiling) {
  SimdCpuModel cpu({}, MemKind::kDram);
  // Single-threaded kernel: 1 core * 16 B * 3.3 GHz = 52.8 GB/s.
  EXPECT_NEAR(cpu.compute_gbps(), 52.8, 0.1);
  CpuConfig all;
  all.bulk_cores = 4;
  SimdCpuModel wide(all, MemKind::kDram);
  EXPECT_NEAR(wide.compute_gbps(), 211.2, 0.1);
}

TEST(SimdCpuModel, LargeOpIsMemoryBound) {
  SimdCpuModel cpu({}, MemKind::kDram);
  const std::uint64_t bits = 1ull << 26;  // 8 MiB per operand
  const auto cost = cpu.bulk_op(or2(bits));
  const double bytes = 3.0 * (bits / 8.0);
  // Time must be at least read+write streaming time and far above the
  // compute ceiling's time.
  EXPECT_GT(cost.time_ns, bytes / 12.0);
  EXPECT_GT(cost.time_ns, 3 * bytes / cpu.compute_gbps());
}

TEST(SimdCpuModel, CacheResidentOpIsFast) {
  SimdCpuModel cpu({}, MemKind::kDram);
  const std::uint64_t bits = 1ull << 17;  // 16 KiB operands, fit in caches
  cpu.bulk_op(or2(bits));                 // warm
  const auto warm = cpu.bulk_op(or2(bits));
  // Served from caches: no memory reads.
  EXPECT_EQ(warm.energy.get("mem.read"), 0.0);
  // And much faster than the same op streamed from memory.
  SimdCpuModel cold({}, MemKind::kDram);
  const auto first = cold.bulk_op(or2(bits));
  EXPECT_LT(warm.time_ns, first.time_ns);
}

TEST(SimdCpuModel, PcmWritePenaltyShows) {
  const std::uint64_t bits = 1ull << 26;
  SimdCpuModel dram({}, MemKind::kDram);
  SimdCpuModel pcm({}, MemKind::kPcm);
  const double td = dram.bulk_op(or2(bits)).time_ns;
  const double tp = pcm.bulk_op(or2(bits)).time_ns;
  EXPECT_GT(tp, 1.2 * td);
}

TEST(SimdCpuModel, EnergyHasCoreAndMemoryParts) {
  SimdCpuModel cpu({}, MemKind::kPcm);
  const auto cost = cpu.bulk_op(or2(1ull << 26));
  EXPECT_GT(cost.energy.get("cpu.core"), 0.0);
  EXPECT_GT(cost.energy.get("mem.read"), 0.0);
  EXPECT_GT(cost.energy.get("mem.write"), 0.0);
  // Core power dominates on streaming kernels (40 W for the whole op).
  EXPECT_GT(cost.energy.get("cpu.core"), cost.energy.get("mem.read"));
}

TEST(SimdCpuModel, MultiOperandScalesLinearly) {
  SimdCpuModel cpu({}, MemKind::kPcm);
  TraceOp op128 = or2(1ull << 23);
  op128.srcs.clear();
  for (std::uint64_t i = 0; i < 128; ++i) op128.srcs.push_back(i);
  const auto c2 = cpu.bulk_op(or2(1ull << 23, 1000));
  const auto c128 = cpu.bulk_op(op128);
  // Both ops are miss-latency bound on one core, so the ratio follows the
  // read-line counts: 130/3 ~= 43.
  EXPECT_NEAR(c128.time_ns / c2.time_ns, 43.0, 5.0);
}

TEST(SimdCpuModel, ScalarCost) {
  const auto c = scalar_cost({}, MemKind::kDram, 6'600'000, 0);
  // 6.6e6 ops at 2 IPC, 3.3 GHz -> 1 ms.
  EXPECT_NEAR(c.time_ns, 1e6, 1e3);
  EXPECT_GT(c.energy.get("cpu.core"), 0.0);
  const auto with_mem = scalar_cost({}, MemKind::kDram, 1000, 1 << 20);
  EXPECT_GT(with_mem.time_ns, c.time_ns / 1000);
  EXPECT_GT(with_mem.energy.get("mem.read"), 0.0);
}

TEST(SimdCpuModel, WordAlignedFootprint) {
  // The host kernels process whole 64-bit words, so the baseline is charged
  // per word: a sub-word tail costs the same as the rounded-up size, and
  // word-multiple sizes (every figure's operand size) are charged exactly
  // (bits+7)/8 bytes — the figure 10/11 baseline ratios are unaffected by
  // the word-parallel refactor.
  SimdCpuModel a({}, MemKind::kPcm), b({}, MemKind::kPcm);
  const auto exact = a.bulk_op(or2(1ull << 20));
  const auto tail = b.bulk_op(or2((1ull << 20) - 17));
  EXPECT_EQ(tail.time_ns, exact.time_ns);
  EXPECT_EQ(tail.energy.get("mem.read"), exact.energy.get("mem.read"));
  EXPECT_EQ(tail.energy.get("mem.write"), exact.energy.get("mem.write"));
  // And a whole extra word does cost more.
  SimdCpuModel c({}, MemKind::kPcm);
  const auto wider = c.bulk_op(or2((1ull << 20) + 64 * 64 * 8));
  EXPECT_GT(wider.time_ns, exact.time_ns);
}

TEST(SimdCpuModel, RejectsBadOps) {
  SimdCpuModel cpu({}, MemKind::kDram);
  TraceOp empty;
  empty.bits = 100;
  EXPECT_THROW(cpu.bulk_op(empty), Error);
  TraceOp zero = or2(0);
  EXPECT_THROW(cpu.bulk_op(zero), Error);
}

TEST(SimdCpuModel, RejectsFootprintsThatWrap) {
  SimdCpuModel cpu({}, MemKind::kDram);
  // bits + 63 wraps: this op used to be priced as free.
  EXPECT_THROW(cpu.bulk_op(or2(~0ull)), Error);
  EXPECT_THROW(cpu.bulk_op(or2(~0ull - 62)), Error);
  // lines * streams wraps: 2^54 lines in each of 1025 streams.
  TraceOp wide = or2(1ull << 63);
  wide.srcs.clear();
  for (std::uint64_t i = 0; i < 1024; ++i) wide.srcs.push_back(i);
  EXPECT_THROW(cpu.bulk_op(wide), Error);
  // The largest op that fits still prices (closed-form streaming path).
  EXPECT_GT(cpu.bulk_op(or2(1ull << 60)).time_ns, 0.0);
}

TEST(MemKindNames, Printable) {
  EXPECT_STREQ(to_string(MemKind::kDram), "DRAM");
  EXPECT_STREQ(to_string(MemKind::kPcm), "PCM");
}

}  // namespace
}  // namespace pinatubo::sim
