// pim_copy and the batched-submission API.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pinatubo/driver.hpp"
#include "pinatubo/replay.hpp"

namespace pinatubo::core {
namespace {

class DriverExtTest : public ::testing::Test {
 protected:
  PimRuntime rt_;
  Rng rng_{321};
};

TEST_F(DriverExtTest, CopyCoLocated) {
  const auto a = rt_.pim_malloc(1ull << 14);
  const auto b = rt_.pim_malloc(1ull << 14);
  const auto v = BitVector::random(1ull << 14, 0.4, rng_);
  rt_.pim_write(a, v);
  rt_.pim_copy(a, b);
  EXPECT_EQ(rt_.pim_read(b), v);
  // Source untouched.
  EXPECT_EQ(rt_.pim_read(a), v);
  EXPECT_EQ(rt_.stats().intra_steps, 1u);
  EXPECT_GT(rt_.cost().time_ns, 0.0);
}

TEST_F(DriverExtTest, CopyAcrossSubarrays) {
  std::vector<PimRuntime::Handle> hs;
  for (int i = 0; i < 4097; ++i) hs.push_back(rt_.pim_malloc(1ull << 14));
  const auto v = BitVector::random(1ull << 14, 0.6, rng_);
  rt_.pim_write(hs[0], v);
  rt_.pim_copy(hs[0], hs[4096]);  // different subarray
  EXPECT_EQ(rt_.pim_read(hs[4096]), v);
  EXPECT_GE(rt_.stats().inter_sub_steps, 1u);
}

TEST_F(DriverExtTest, CopyLengthMismatchThrows) {
  const auto a = rt_.pim_malloc(1000);
  const auto b = rt_.pim_malloc(2000);
  EXPECT_THROW(rt_.pim_copy(a, b), Error);
}

TEST_F(DriverExtTest, BatchMatchesSequential) {
  const std::uint64_t bits = 1ull << 14;
  std::vector<PimRuntime::Handle> h;
  std::vector<BitVector> vals;
  for (int i = 0; i < 8; ++i) {
    h.push_back(rt_.pim_malloc(bits));
    vals.push_back(BitVector::random(bits, 0.3, rng_));
    rt_.pim_write(h.back(), vals.back());
  }
  // Two independent ops + one dependent.
  rt_.pim_begin();
  rt_.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
  rt_.pim_op(BitOp::kAnd, {h[3], h[4]}, h[5]);
  rt_.pim_op(BitOp::kXor, {h[2], h[5]}, h[6]);
  rt_.pim_barrier();

  const auto r_or = vals[0] | vals[1];
  const auto r_and = vals[3] & vals[4];
  EXPECT_EQ(rt_.pim_read(h[2]), r_or);
  EXPECT_EQ(rt_.pim_read(h[5]), r_and);
  EXPECT_EQ(rt_.pim_read(h[6]), (r_or ^ r_and));
  EXPECT_EQ(rt_.stats().ops, 3u);
}

TEST_F(DriverExtTest, BatchNeverCostsMoreThanSequential) {
  const std::uint64_t bits = 1ull << 14;
  PimRuntime seq;
  std::vector<PimRuntime::Handle> hb, hs;
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    hb.push_back(rt_.pim_malloc(bits));
    hs.push_back(seq.pim_malloc(bits));
    const auto v = BitVector::random(bits, 0.5, rng);
    rt_.pim_write(hb.back(), v);
    seq.pim_write(hs.back(), v);
  }
  rt_.pim_begin();
  for (int i = 0; i + 2 < 12; i += 3) {
    rt_.pim_op(BitOp::kOr, {hb[i], hb[i + 1]}, hb[i + 2]);
    seq.pim_op(BitOp::kOr, {hs[i], hs[i + 1]}, hs[i + 2]);
  }
  rt_.pim_barrier();
  EXPECT_LE(rt_.cost().time_ns, seq.cost().time_ns + 1e-9);
  // Same functional results.
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(rt_.pim_read(hb[i]), seq.pim_read(hs[i]));
  // Same total energy (scheduling cannot change physics).
  EXPECT_NEAR(rt_.cost().energy.total_pj(), seq.cost().energy.total_pj(),
              1e-6 * seq.cost().energy.total_pj());
}

TEST_F(DriverExtTest, BatchRecordsCommands) {
  PimRuntime::Options opts;
  opts.record_commands = true;
  PimRuntime rt(mem::Geometry{}, opts);
  const auto a = rt.pim_malloc(512);
  const auto b = rt.pim_malloc(512);
  const auto c = rt.pim_malloc(512);
  rt.pim_begin();
  rt.pim_op(BitOp::kOr, {a, b}, c);
  rt.pim_barrier();
  EXPECT_FALSE(rt.commands().empty());
}

TEST_F(DriverExtTest, BeginBarrierDefersPricingNotResults) {
  const std::uint64_t bits = 1ull << 14;
  const auto a = rt_.pim_malloc(bits);
  const auto b = rt_.pim_malloc(bits);
  const auto c = rt_.pim_malloc(bits);
  const auto va = BitVector::random(bits, 0.5, rng_);
  const auto vb = BitVector::random(bits, 0.5, rng_);
  rt_.pim_write(a, va);
  rt_.pim_write(b, vb);

  rt_.pim_begin();
  EXPECT_TRUE(rt_.in_batch());
  rt_.pim_op(BitOp::kOr, {a, b}, c);
  // Results are visible immediately (program order)...
  EXPECT_EQ(rt_.pim_read(c), (va | vb));
  // ...but pricing waits for the barrier.
  EXPECT_DOUBLE_EQ(rt_.cost().time_ns, 0.0);
  rt_.pim_barrier();
  EXPECT_FALSE(rt_.in_batch());
  EXPECT_GT(rt_.cost().time_ns, 0.0);
  EXPECT_EQ(rt_.stats().batches, 1u);
}

TEST_F(DriverExtTest, BarrierWithoutBeginThrows) {
  EXPECT_THROW(rt_.pim_barrier(), Error);
  rt_.pim_begin();
  EXPECT_THROW(rt_.pim_begin(), Error);
  rt_.pim_barrier();  // empty batch is fine
  EXPECT_EQ(rt_.stats().batches, 0u);  // nothing was flushed
}

TEST_F(DriverExtTest, BatchedAndSyncBitIdentical) {
  // The same random program, once synchronous and once inside a single
  // batch window, must leave every vector bit-identical.
  const std::uint64_t bits = 1ull << 14;
  PimRuntime sync;
  std::vector<PimRuntime::Handle> hb, hs;
  Rng rng(77);
  for (int i = 0; i < 10; ++i) {
    hb.push_back(rt_.pim_malloc(bits));
    hs.push_back(sync.pim_malloc(bits));
    const auto v = BitVector::random(bits, 0.4, rng);
    rt_.pim_write(hb.back(), v);
    sync.pim_write(hs.back(), v);
  }
  struct Op {
    BitOp op;
    std::vector<PimRuntime::Handle> srcs;
    PimRuntime::Handle dst;
  };
  const std::vector<Op> prog = {
      {BitOp::kOr, {hb[0], hb[1]}, hb[2]},
      {BitOp::kAnd, {hb[2], hb[3]}, hb[4]},   // depends on op 0
      {BitOp::kXor, {hb[5], hb[6]}, hb[7]},   // independent
      {BitOp::kInv, {hb[4]}, hb[8]},          // depends on op 1
      {BitOp::kOr, {hb[7], hb[8]}, hb[9]},    // joins both chains
  };
  rt_.pim_begin();
  for (const auto& o : prog) rt_.pim_op(o.op, o.srcs, o.dst);
  rt_.pim_barrier();
  // Mirror the program on the synchronous runtime (handles align 1:1).
  sync.pim_op(BitOp::kOr, {hs[0], hs[1]}, hs[2]);
  sync.pim_op(BitOp::kAnd, {hs[2], hs[3]}, hs[4]);
  sync.pim_op(BitOp::kXor, {hs[5], hs[6]}, hs[7]);
  sync.pim_op(BitOp::kInv, {hs[4]}, hs[8]);
  sync.pim_op(BitOp::kOr, {hs[7], hs[8]}, hs[9]);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(rt_.pim_read(hb[i]), sync.pim_read(hs[i])) << "vector " << i;
  // Batched pricing never exceeds the synchronous serial sum.
  EXPECT_LE(rt_.cost().time_ns, sync.cost().time_ns + 1e-9);
  EXPECT_NEAR(rt_.cost().energy.total_pj(), sync.cost().energy.total_pj(),
              1e-6 * sync.cost().energy.total_pj());
}

TEST_F(DriverExtTest, SerialExecutionOptionReproducesSerialSum) {
  // Large vectors span both ranks, so the default engine overlaps even a
  // single op's group steps; the serial_execution knob turns that off.
  const std::uint64_t bits = 1ull << 20;
  PimRuntime::Options serial_opts;
  serial_opts.serial_execution = true;
  PimRuntime fast, slow(mem::Geometry{}, serial_opts);
  Rng rng(5);
  std::vector<PimRuntime::Handle> hf, hl;
  for (int i = 0; i < 3; ++i) {
    hf.push_back(fast.pim_malloc(bits));
    hl.push_back(slow.pim_malloc(bits));
    const auto v = BitVector::random(bits, 0.5, rng);
    fast.pim_write(hf.back(), v);
    slow.pim_write(hl.back(), v);
  }
  fast.pim_op(BitOp::kOr, {hf[0], hf[1]}, hf[2]);
  slow.pim_op(BitOp::kOr, {hl[0], hl[1]}, hl[2]);
  EXPECT_EQ(fast.pim_read(hf[2]), slow.pim_read(hl[2]));
  // Identical serial baseline, strictly faster overlapped makespan.
  EXPECT_NEAR(fast.stats().serial_time_ns, slow.cost().time_ns,
              1e-9 * slow.cost().time_ns);
  EXPECT_LT(fast.cost().time_ns, slow.cost().time_ns - 1e-6);
  EXPECT_NEAR(fast.cost().energy.total_pj(), slow.cost().energy.total_pj(),
              1e-9 * slow.cost().energy.total_pj());
}

TEST_F(DriverExtTest, StatsBreakdownCoversCost) {
  const std::uint64_t bits = 1ull << 14;
  const auto a = rt_.pim_malloc(bits);
  const auto b = rt_.pim_malloc(bits);
  const auto c = rt_.pim_malloc(bits);
  rt_.pim_write(a, BitVector::random(bits, 0.5, rng_));
  rt_.pim_write(b, BitVector::random(bits, 0.5, rng_));
  rt_.pim_op(BitOp::kOr, {a, b}, c, /*host_reads_result=*/true);
  const auto& st = rt_.stats();
  double time = 0.0, energy = 0.0;
  std::uint64_t steps = 0;
  for (std::size_t k = 0; k < kStepKindCount; ++k) {
    time += st.by_class[k].time_ns;
    energy += st.by_class[k].energy_pj;
    steps += st.by_class[k].steps;
  }
  EXPECT_NEAR(time, st.serial_time_ns, 1e-9 * st.serial_time_ns);
  EXPECT_NEAR(energy, rt_.cost().energy.total_pj(),
              1e-9 * rt_.cost().energy.total_pj());
  EXPECT_EQ(steps,
            st.intra_steps + st.inter_sub_steps + st.inter_bank_steps +
                st.host_reads);
  EXPECT_EQ(st.bus_bytes, bits / 8);  // one host burst
  EXPECT_EQ(st.by_class[step_index(StepKind::kHostRead)].steps, 1u);
}

TEST_F(DriverExtTest, StatsCountEveryPlanByTheSyncPointsThatPriceIt) {
  // Stats step counts come from the priced batches, so after every
  // synchronous op and every pim_barrier() they equal the step counts of
  // all plans submitted so far (re-planned here with the runtime's own
  // placements), and the per-class breakdown is the engine's profile.
  const std::uint64_t bits = 2 * rt_.geometry().row_group_bits();
  std::vector<PimRuntime::Handle> h;
  for (int i = 0; i < 6; ++i) {
    h.push_back(rt_.pim_malloc(bits));
    rt_.pim_write(h.back(), BitVector::random(bits, 0.5, rng_));
  }
  const OpScheduler sched(rt_.geometry(), SchedulerConfig{});
  std::uint64_t want[kStepKindCount] = {}, ops = 0, batches = 0;
  auto issue = [&](BitOp op, std::vector<PimRuntime::Handle> srcs,
                   PimRuntime::Handle dst, bool host_reads) {
    std::vector<Placement> sp;
    for (const auto s : srcs) sp.push_back(rt_.placement(s));
    const OpPlan plan = sched.plan(op, sp, rt_.placement(dst), host_reads);
    for (std::size_t k = 0; k < kStepKindCount; ++k)
      want[k] += plan.count(static_cast<StepKind>(k));
    rt_.pim_op(op, srcs, dst, host_reads);
    ++ops;
  };
  auto expect_counts = [&](const char* where) {
    SCOPED_TRACE(where);
    const auto st = rt_.stats();
    EXPECT_EQ(st.ops, ops);
    EXPECT_EQ(st.batches, batches);
    EXPECT_EQ(st.intra_steps, want[step_index(StepKind::kIntraSub)]);
    EXPECT_EQ(st.inter_sub_steps, want[step_index(StepKind::kInterSub)]);
    EXPECT_EQ(st.inter_bank_steps, want[step_index(StepKind::kInterBank)]);
    EXPECT_EQ(st.host_reads, want[step_index(StepKind::kHostRead)]);
    EXPECT_EQ(st.bus_bytes, rt_.profile().bus_bytes);
    for (std::size_t k = 0; k < kStepKindCount; ++k) {
      EXPECT_EQ(st.by_class[k].steps, want[k]);
      EXPECT_EQ(st.by_class[k].time_ns, rt_.profile().time_ns[k]);
      EXPECT_EQ(st.by_class[k].energy_pj, rt_.profile().energy_pj[k]);
    }
  };
  issue(BitOp::kOr, {h[0], h[1], h[2]}, h[3], false);
  ++batches;
  expect_counts("after a synchronous op");
  rt_.pim_begin();
  issue(BitOp::kAnd, {h[0], h[4]}, h[5], true);
  issue(BitOp::kXor, {h[1], h[2]}, h[1], false);
  issue(BitOp::kInv, {h[3]}, h[4], true);
  rt_.pim_barrier();
  ++batches;
  expect_counts("after pim_barrier");
  issue(BitOp::kOr, {h[5], h[4]}, h[0], true);
  ++batches;
  expect_counts("after a second synchronous op");
}

TEST_F(DriverExtTest, BatchedCommandStreamReplays) {
  // Record an overlapped batch's interleaved command stream, replay it on
  // a twin memory image, and expect bit-identical vectors.
  PimRuntime::Options opts;
  opts.record_commands = true;
  PimRuntime rt(mem::Geometry{}, opts);
  const std::uint64_t bits = 1ull << 20;  // groups span both ranks
  std::vector<PimRuntime::Handle> h;
  std::vector<BitVector> vals;
  Rng rng(13);
  for (int i = 0; i < 6; ++i) {
    h.push_back(rt.pim_malloc(bits));
    vals.push_back(BitVector::random(bits, 0.5, rng));
    rt.pim_write(h[static_cast<std::size_t>(i)], vals.back());
  }
  // Twin runtime shares the data but executes nothing.
  PimRuntime twin(mem::Geometry{}, opts);
  std::vector<PimRuntime::Handle> ht;
  for (int i = 0; i < 6; ++i) {
    ht.push_back(twin.pim_malloc(bits));
    twin.pim_write(ht[static_cast<std::size_t>(i)],
                   vals[static_cast<std::size_t>(i)]);
  }
  rt.pim_begin();
  rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
  rt.pim_op(BitOp::kAnd, {h[3], h[4]}, h[5]);
  rt.pim_barrier();
  CommandReplayer replayer(twin.memory());
  replayer.execute_all(rt.commands());
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(twin.pim_read(ht[static_cast<std::size_t>(i)]),
              rt.pim_read(h[static_cast<std::size_t>(i)]))
        << "vector " << i;
}

}  // namespace
}  // namespace pinatubo::core
