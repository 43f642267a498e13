// ExecutionEngine: dependency-aware batched scheduling over OpPlans.
#include "pinatubo/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "pinatubo/allocator.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/scheduler.hpp"
#include "verify/verifier.hpp"

namespace pinatubo::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : alloc_(geo_, AllocPolicy::kPimAware),
        sched_(geo_, SchedulerConfig{128, nvm::Tech::kPcm}),
        model_(geo_, nvm::Tech::kPcm) {}

  Placement vec(std::uint64_t index, std::uint64_t bits) {
    return alloc_.virtual_placement(index, bits);
  }
  OpPlan or_plan(const std::vector<Placement>& srcs, const Placement& dst,
                 bool host_read = false) {
    return sched_.plan(BitOp::kOr, srcs, dst, host_read);
  }
  mem::Cost serial_sum(const std::vector<OpPlan>& plans) {
    mem::Cost c;
    for (const auto& p : plans) c += model_.plan_cost(p);
    return c;
  }

  /// First vector index placed in rank 1 (full-group vectors walk 128
  /// rows x 64 subarrays of rank 0 first).
  static constexpr std::uint64_t kRank1 = 64ull * 128;
  static constexpr std::uint64_t kGroupBits = 1ull << 19;

  mem::Geometry geo_;
  RowAllocator alloc_;
  OpScheduler sched_;
  PinatuboCostModel model_;
};

TEST_F(EngineTest, EmptyBatchIsFree) {
  const ExecutionEngine engine(model_);
  const auto r = engine.run({});
  EXPECT_DOUBLE_EQ(r.cost.time_ns, 0.0);
  EXPECT_DOUBLE_EQ(r.cost.energy.total_pj(), 0.0);
  EXPECT_TRUE(r.schedule.empty());
}

TEST_F(EngineTest, SerialModeIsProgramOrderSum) {
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(kRank1, kGroupBits), vec(kRank1 + 1, kGroupBits)},
                          vec(kRank1 + 2, kGroupBits)));
  const ExecutionEngine engine(model_, EngineOptions{true});
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  EXPECT_DOUBLE_EQ(r.cost.time_ns, serial.time_ns);
  EXPECT_DOUBLE_EQ(r.serial_time_ns, serial.time_ns);
  // Schedule stays in program order.
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0].plan, 0u);
  EXPECT_EQ(r.schedule[1].plan, 1u);
  EXPECT_GE(r.schedule[1].start_ns, r.schedule[0].done_ns - 1e-9);
}

TEST_F(EngineTest, BatchOfOneChainMatchesPlanCost) {
  // A 200-operand OR exceeds the 128-row activation cap, so it lowers to
  // a chain of dependent intra steps (the dst row is the accumulator) on
  // one rank: no overlap is possible and the engine must reproduce the
  // serial sum.
  std::vector<Placement> srcs;
  for (std::uint64_t i = 0; i < 200; ++i) srcs.push_back(vec(i, kGroupBits));
  const auto plan = or_plan(srcs, vec(200, kGroupBits), true);
  ASSERT_GT(plan.steps.size(), 1u);
  const ExecutionEngine engine(model_);
  const auto r = engine.run({plan});
  const auto serial = model_.plan_cost(plan);
  EXPECT_NEAR(r.cost.time_ns, serial.time_ns, 1e-9 * serial.time_ns);
  EXPECT_NEAR(r.cost.energy.total_pj(), serial.energy.total_pj(),
              1e-9 * serial.energy.total_pj());
}

TEST_F(EngineTest, IndependentRanksOverlap) {
  // Same shape of work on rank 0 and rank 1: the engine should hide one
  // behind the other almost entirely.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(kRank1, kGroupBits), vec(kRank1 + 1, kGroupBits)},
                          vec(kRank1 + 2, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  const double single = model_.plan_cost(plans[0]).time_ns;
  EXPECT_LT(r.cost.time_ns, serial.time_ns - 1e-6);  // strictly overlapped
  EXPECT_GE(r.cost.time_ns, single - 1e-9);          // but not free
  EXPECT_LT(r.cost.time_ns, 1.1 * single);           // near-perfect overlap
  EXPECT_NEAR(r.cost.energy.total_pj(), serial.energy.total_pj(),
              1e-9 * serial.energy.total_pj());
  EXPECT_NEAR(r.serial_time_ns, serial.time_ns, 1e-9 * serial.time_ns);
}

TEST_F(EngineTest, SameRankSerializesOnTheBankCluster) {
  // Independent data, but both ops execute on rank 0: the lock-step bank
  // cluster is one resource, so no overlap.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(3, kGroupBits), vec(4, kGroupBits)},
                          vec(5, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  EXPECT_NEAR(r.cost.time_ns, serial.time_ns, 1e-9 * serial.time_ns);
}

TEST_F(EngineTest, MultiGroupOpOverlapsItsOwnGroups) {
  // 2^20-bit vectors span two row groups that rotate across the ranks, so
  // a single op's group steps are independent and overlap.
  const std::uint64_t bits = 1ull << 20;
  const auto plan = or_plan({vec(0, bits), vec(1, bits)}, vec(2, bits));
  ASSERT_EQ(plan.steps.size(), 2u);
  const ExecutionEngine engine(model_);
  const auto r = engine.run({plan});
  EXPECT_LT(r.cost.time_ns, model_.plan_cost(plan).time_ns - 1e-6);
}

TEST_F(EngineTest, HostReadWaitsForAllGroups) {
  const std::uint64_t bits = 1ull << 20;  // 2 groups -> both ranks busy
  const auto plan = or_plan({vec(0, bits), vec(1, bits)}, vec(2, bits), true);
  const ExecutionEngine engine(model_);
  const auto r = engine.run({plan});
  ASSERT_EQ(r.schedule.size(), 3u);
  double compute_done = 0.0;
  double host_start = -1.0;
  for (const auto& ss : r.schedule) {
    const auto& step = plan.steps[ss.step];
    if (step.kind == StepKind::kHostRead)
      host_start = ss.start_ns;
    else
      compute_done = std::max(compute_done, ss.done_ns);
  }
  ASSERT_GE(host_start, 0.0);
  // The RAW dependencies on every group's result gate the burst.
  EXPECT_GE(host_start, compute_done - 1e-9);
}

TEST_F(EngineTest, WriteAfterWriteKeepsProgramOrder) {
  // Both ops write the same destination row: the schedule must keep
  // program order between them regardless of readiness ties.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(3, kGroupBits), vec(4, kGroupBits)},
                          vec(2, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(r.schedule[0].plan, 0u);
  EXPECT_EQ(r.schedule[1].plan, 1u);
  EXPECT_GE(r.schedule[1].start_ns, r.schedule[0].done_ns - 1e-9);
}

TEST_F(EngineTest, ReadAfterWriteChainsAcrossOps) {
  // Op B consumes op A's destination: B waits even though B's rank-1
  // operand would otherwise be free to start.
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits)));
  plans.push_back(or_plan({vec(2, kGroupBits), vec(3, kGroupBits)},
                          vec(4, kGroupBits)));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  EXPECT_NEAR(r.cost.time_ns, serial.time_ns, 1e-9 * serial.time_ns);
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_GE(r.schedule[1].start_ns, r.schedule[0].done_ns - 1e-9);
}

TEST_F(EngineTest, HostBurstsSerializeOnTheDataBus) {
  // Two overlapped ops both burst their results to the host: compute
  // overlaps across ranks, but the channel's data bus carries one burst
  // at a time.
  const std::uint64_t bits = kGroupBits;
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, bits), vec(1, bits)}, vec(2, bits), true));
  plans.push_back(or_plan({vec(kRank1, bits), vec(kRank1 + 1, bits)},
                          vec(kRank1 + 2, bits), true));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  const auto serial = serial_sum(plans);
  const double burst_ns =
      static_cast<double>(bits) / 8.0 / model_.bus().data_gbps;
  EXPECT_LT(r.cost.time_ns, serial.time_ns - 1e-6);
  // Two bursts cannot co-occupy the bus.
  EXPECT_GE(r.cost.time_ns, 2.0 * burst_ns);
  EXPECT_EQ(r.profile.bus_bytes, 2 * bits / 8);
}

TEST_F(EngineTest, ProfileAccountsEveryStep) {
  std::vector<OpPlan> plans;
  plans.push_back(or_plan({vec(0, kGroupBits), vec(1, kGroupBits)},
                          vec(2, kGroupBits), true));
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  std::uint64_t steps = 0;
  double time = 0.0, energy = 0.0;
  for (std::size_t k = 0; k < kStepKindCount; ++k) {
    steps += r.profile.steps[k];
    time += r.profile.time_ns[k];
    energy += r.profile.energy_pj[k];
  }
  EXPECT_EQ(steps, plans[0].steps.size());
  EXPECT_NEAR(time, r.serial_time_ns, 1e-9 * r.serial_time_ns);
  EXPECT_NEAR(energy, r.cost.energy.total_pj(),
              1e-9 * r.cost.energy.total_pj());
  EXPECT_EQ(r.profile.steps[step_index(StepKind::kHostRead)], 1u);
}

// ---- two channels ----------------------------------------------------------
// The paper's machine has one channel, so no other test schedules a second
// one.  This batch spans all four (channel, rank) clusters of a 2-channel
// geometry and pins both engines' schedules bit for bit: a change to how the
// overlapped engine orders or times steps across channels fails here.

/// FNV-1a over every scheduled step's (plan, step, start, done, bus), the
/// doubles by bit pattern, so a one-ulp move changes the digest.
std::uint64_t schedule_digest(
    const std::vector<ExecutionEngine::ScheduledStep>& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& ss : schedule) {
    mix(ss.plan);
    mix(ss.step);
    mix(std::bit_cast<std::uint64_t>(ss.start_ns));
    mix(std::bit_cast<std::uint64_t>(ss.done_ns));
    mix(std::bit_cast<std::uint64_t>(ss.bus_ns));
  }
  return h;
}

/// Multi-row ORs, dependent chains (some read by the host), same-rank
/// inter-subarray ANDs and cross-rank AND/XOR buffer ops that rewrite one
/// destination row, on every (channel, rank) cluster.
sim::OpTrace two_channel_trace() {
  constexpr std::uint64_t kBits = 1ull << 19;     // one full row group
  constexpr std::uint64_t kRankIds = 64ull * 128;  // ids per rank
  const auto id = [](unsigned ch, unsigned rk, std::uint64_t off) {
    return (ch * 2 + rk) * kRankIds + off;
  };
  sim::OpTrace t;
  t.name = "two_channel";
  for (unsigned round = 0; round < 4; ++round)
    for (unsigned ch = 0; ch < 2; ++ch)
      for (unsigned rk = 0; rk < 2; ++rk) {
        std::vector<std::uint64_t> srcs;
        for (unsigned i = 0; i < 2 + (round + rk + ch) % 4; ++i)
          srcs.push_back(id(ch, rk, 8 * round + i));
        t.ops.push_back({BitOp::kOr, srcs, id(ch, rk, 64 + round), kBits,
                         false});
        if (round > 0)
          t.ops.push_back({BitOp::kOr,
                           {id(ch, rk, 64 + round), id(ch, rk, 63 + round)},
                           id(ch, rk, 100 + round), kBits, round % 2 == 1});
        if (rk == 0)  // subarray 1 of the same rank: inter-subarray
          t.ops.push_back({BitOp::kAnd,
                           {id(ch, 0, 8 * round), id(ch, 0, 128 + round)},
                           id(ch, 0, 136 + round), kBits, false});
        if (rk == 1)  // both ranks of the channel: inter-bank
          t.ops.push_back({round % 2 == 0 ? BitOp::kAnd : BitOp::kXor,
                           {id(ch, 0, 64 + round), id(ch, 1, 64 + round)},
                           id(ch, round % 2, 120), kBits, ch == round % 2});
      }
  return t;
}

struct Pinned {
  std::size_t steps;
  std::uint64_t digest;
  double makespan_ns, serial_ns, energy_pj;
};

void expect_pinned(const ExecutionEngine::Result& r, const Pinned& want) {
  EXPECT_EQ(r.schedule.size(), want.steps);
  EXPECT_EQ(schedule_digest(r.schedule), want.digest);
  EXPECT_EQ(r.cost.time_ns, want.makespan_ns);
  EXPECT_EQ(r.serial_time_ns, want.serial_ns);
  EXPECT_EQ(r.cost.energy.total_pj(), want.energy_pj);
}

TEST(EngineTwoChannel, SchedulePinned) {
  mem::Geometry geo;
  geo.channels = 2;
  const PinatuboBackend backend(geo);
  const std::vector<OpPlan> plans = backend.plan(two_channel_trace());
  const PinatuboCostModel model(geo, nvm::Tech::kPcm);
  const verify::Verifier verifier(model);

  std::uint64_t kinds[kStepKindCount] = {};
  for (const auto& p : plans)
    for (const auto& s : p.steps) ++kinds[step_index(s.kind)];
  for (std::size_t k = 0; k < kStepKindCount; ++k)
    EXPECT_GT(kinds[k], 0u) << to_string(static_cast<StepKind>(k));

  const auto overlapped = ExecutionEngine(model).run(plans);
  const auto serial = ExecutionEngine(model, EngineOptions{true}).run(plans);

  std::size_t on_channel[2] = {};
  for (const auto& ss : overlapped.schedule)
    ++on_channel[plans[ss.plan].steps[ss.step].channel];
  EXPECT_GT(on_channel[0], 0u);
  EXPECT_GT(on_channel[1], 0u);
  EXPECT_LT(overlapped.cost.time_ns, overlapped.serial_time_ns);

  const verify::Report rep_o = verifier.check(plans, overlapped, false);
  EXPECT_TRUE(rep_o.ok()) << rep_o.to_string();
  const verify::Report rep_s = verifier.check(plans, serial, true);
  EXPECT_TRUE(rep_s.ok()) << rep_s.to_string();

  // Captured from the engine as it stood when this test was written.
  expect_pinned(overlapped, {56, 0x20845feca1a12a4full, 0x1.77d7666666667p+15,
                             0x1.af0099999999bp+16, 0x1.1b6ba64c7fbafp+29});
  expect_pinned(serial, {56, 0x153cb2f3145d72d4ull, 0x1.af0099999999bp+16,
                         0x1.af0099999999bp+16, 0x1.1b6ba64c7fbafp+29});
}

}  // namespace
}  // namespace pinatubo::core
