// Property sweeps over the scheduler + cost model: invariants that must
// hold for every (op, operand count, vector length, row cap) combination.
#include <gtest/gtest.h>

#include <tuple>

#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"

namespace pinatubo::core {
namespace {

using Params = std::tuple<unsigned /*n_ops*/, std::uint64_t /*bits*/,
                          unsigned /*max_rows*/>;

class SchedulerProps : public ::testing::TestWithParam<Params> {
 protected:
  SchedulerProps()
      : alloc_(geo_, AllocPolicy::kPimAware),
        sched_(geo_, SchedulerConfig{std::get<2>(GetParam()), nvm::Tech::kPcm}),
        model_(geo_, nvm::Tech::kPcm) {}

  OpPlan make_plan(BitOp op) {
    const auto [n, bits, max_rows] = GetParam();
    (void)max_rows;
    std::vector<Placement> srcs;
    const unsigned count = op == BitOp::kInv ? 1 : n;
    for (unsigned i = 0; i < count; ++i)
      srcs.push_back(alloc_.allocate(bits));
    return sched_.plan(op, srcs, srcs.back(), false);
  }

  mem::Geometry geo_;
  RowAllocator alloc_;
  OpScheduler sched_;
  PinatuboCostModel model_;
};

TEST_P(SchedulerProps, EveryStepWithinActivationLimit) {
  const auto plan = make_plan(BitOp::kOr);
  const unsigned limit = sched_.effective_max_rows(BitOp::kOr);
  for (const auto& s : plan.steps) EXPECT_LE(s.rows, limit);
}

TEST_P(SchedulerProps, ChainCoversAllOperands) {
  // Total NEW operands opened across the chain == operand count:
  // first step opens k0, each later step opens rows-1 new (1 accumulator).
  const auto [n, bits, max_rows] = GetParam();
  (void)bits;
  (void)max_rows;
  const auto plan = make_plan(BitOp::kOr);
  const auto groups = plan.steps.empty() ? 1 : plan.steps.back().group + 1;
  std::map<std::uint64_t, unsigned> opened;
  std::map<std::uint64_t, unsigned> steps_per_group;
  for (const auto& s : plan.steps) {
    const bool first = steps_per_group[s.group]++ == 0;
    opened[s.group] += first ? s.rows : s.rows - 1;
  }
  for (std::uint64_t g = 0; g < groups; ++g)
    EXPECT_EQ(opened[g], n) << "group " << g;
}

TEST_P(SchedulerProps, BitsConserved) {
  const auto [n, bits, max_rows] = GetParam();
  (void)n;
  (void)max_rows;
  const auto plan = make_plan(BitOp::kOr);
  std::map<std::uint64_t, std::uint64_t> bits_per_group;
  for (const auto& s : plan.steps)
    bits_per_group[s.group] = s.bits;  // all steps of a group agree
  std::uint64_t total = 0;
  for (const auto& [g, b] : bits_per_group) total += b;
  EXPECT_EQ(total, bits);
}

TEST_P(SchedulerProps, CostPositiveAndMonotoneInSteps) {
  const auto or_plan = make_plan(BitOp::kOr);
  const auto cost = model_.plan_cost(or_plan);
  EXPECT_GT(cost.time_ns, 0.0);
  EXPECT_GT(cost.energy.total_pj(), 0.0);
  // Prefix sums are monotone.
  mem::Cost acc;
  for (const auto& s : or_plan.steps) {
    const auto before = acc.time_ns;
    acc += model_.step_cost(s);
    EXPECT_GT(acc.time_ns, before);
  }
  EXPECT_NEAR(acc.time_ns, cost.time_ns, 1e-9);
}

TEST_P(SchedulerProps, LoweringCountsAgree) {
  const auto plan = make_plan(BitOp::kOr);
  std::uint64_t expect = 0;
  for (const auto& s : plan.steps) expect += model_.command_count(s);
  EXPECT_EQ(model_.lower(plan).size(), expect);
}

TEST_P(SchedulerProps, EngineNeverSlowerThanSerial) {
  std::vector<OpPlan> plans;
  mem::Cost serial;
  for (int i = 0; i < 4; ++i) {
    plans.push_back(make_plan(BitOp::kOr));
    serial += model_.plan_cost(plans.back());
  }
  const ExecutionEngine engine(model_);
  const auto r = engine.run(plans);
  EXPECT_LE(r.cost.time_ns, serial.time_ns + 1e-6);
  EXPECT_NEAR(r.serial_time_ns, serial.time_ns, 1e-6 * serial.time_ns);
  EXPECT_NEAR(r.cost.energy.total_pj(), serial.energy.total_pj(),
              1e-6 * serial.energy.total_pj());
  // The serial knob reproduces the synchronous-driver sum exactly.
  const ExecutionEngine serial_engine(model_, EngineOptions{true});
  EXPECT_NEAR(serial_engine.run(plans).cost.time_ns, serial.time_ns,
              1e-9 * serial.time_ns);
}

TEST_P(SchedulerProps, SmallerRowCapNeverFaster) {
  // This cap against both ends of the swept range, 2 and 128 rows, so every
  // instance compares two different caps: the smaller one is never faster.
  // The cap-2 and cap-128 instances check the same pair; both are kept so
  // the sweep's instance names stay one per parameter triple.
  const auto [n, bits, max_rows] = GetParam();
  std::vector<Placement> srcs;
  for (unsigned i = 0; i < n; ++i) srcs.push_back(alloc_.allocate(bits));
  const double t_this =
      model_.plan_cost(sched_.plan(BitOp::kOr, srcs, srcs.back(), false))
          .time_ns;
  for (const unsigned cap : {2u, 128u}) {
    if (cap == max_rows) continue;
    const OpScheduler other(geo_, SchedulerConfig{cap, nvm::Tech::kPcm});
    const double t_other =
        model_.plan_cost(other.plan(BitOp::kOr, srcs, srcs.back(), false))
            .time_ns;
    if (cap < max_rows)
      EXPECT_LE(t_this, t_other + 1e-9) << "cap " << cap;
    else
      EXPECT_LE(t_other, t_this + 1e-9) << "cap " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProps,
    ::testing::Combine(
        ::testing::Values<unsigned>(2, 3, 5, 16, 100, 128),
        ::testing::Values<std::uint64_t>(100, 1ull << 14, (1ull << 14) + 1,
                                         1ull << 19, 1ull << 21),
        ::testing::Values<unsigned>(2, 16, 128)));

}  // namespace
}  // namespace pinatubo::core
