#include "pinatubo/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/csa.hpp"
#include "common/error.hpp"
#include "pinatubo/allocator.hpp"

namespace pinatubo::core {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : alloc_(geo_, AllocPolicy::kPimAware),
        sched_(geo_, SchedulerConfig{128, nvm::Tech::kPcm}) {}

  std::vector<Placement> alloc_n(std::size_t n, std::uint64_t bits) {
    std::vector<Placement> ps;
    for (std::size_t i = 0; i < n; ++i) ps.push_back(alloc_.allocate(bits));
    return ps;
  }

  mem::Geometry geo_;
  RowAllocator alloc_;
  OpScheduler sched_;
};

TEST_F(SchedulerTest, EffectiveMaxRows) {
  EXPECT_EQ(sched_.effective_max_rows(BitOp::kOr), 128u);
  EXPECT_EQ(sched_.effective_max_rows(BitOp::kAnd), 2u);
  EXPECT_EQ(sched_.effective_max_rows(BitOp::kXor), 2u);
  EXPECT_EQ(sched_.effective_max_rows(BitOp::kInv), 1u);
  // Config cap below the tech limit.
  OpScheduler two(geo_, SchedulerConfig{2, nvm::Tech::kPcm});
  EXPECT_EQ(two.effective_max_rows(BitOp::kOr), 2u);
  // Tech limit below the config cap.
  OpScheduler stt(geo_, SchedulerConfig{128, nvm::Tech::kSttMram});
  EXPECT_EQ(stt.effective_max_rows(BitOp::kOr), 2u);
}

TEST_F(SchedulerTest, CoLocatedTwoRowOrIsSingleIntraStep) {
  auto ps = alloc_n(3, 1ull << 14);
  const auto plan = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], false);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kIntraSub);
  EXPECT_EQ(plan.steps[0].rows, 2u);
  EXPECT_EQ(plan.steps[0].col_steps, 1u);
}

TEST_F(SchedulerTest, MultiRowOrSingleActivation) {
  auto ps = alloc_n(129, 1ull << 14);
  std::vector<Placement> srcs(ps.begin(), ps.begin() + 128);
  // 129th placement is in the next column window -> NOT column aligned,
  // so use a co-located dst: reuse the last src as dst (in-place).
  const auto plan = sched_.plan(BitOp::kOr, srcs, ps[127], false);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kIntraSub);
  EXPECT_EQ(plan.steps[0].rows, 128u);
}

TEST_F(SchedulerTest, OrChainBeyondMaxRows) {
  OpScheduler sched2(geo_, SchedulerConfig{2, nvm::Tech::kPcm});
  auto ps = alloc_n(9, 1ull << 14);
  std::vector<Placement> srcs(ps.begin(), ps.begin() + 8);
  const auto plan = sched2.plan(BitOp::kOr, srcs, ps[7], false);
  // First step merges 2, each further step folds 1 more: 1 + 6 steps.
  EXPECT_EQ(plan.steps.size(), 7u);
  for (const auto& s : plan.steps) {
    EXPECT_EQ(s.kind, StepKind::kIntraSub);
    EXPECT_LE(s.rows, 2u);
  }
}

TEST_F(SchedulerTest, OrChainWith128Cap) {
  auto ps = alloc_n(128, 1ull << 14);
  // 200 operands from 128 slots: reuse some placements? Rows must be
  // distinct; instead allocate a second window and accept inter-sub? No —
  // verify the chain arithmetic with 128 distinct rows and max 16.
  OpScheduler sched16(geo_, SchedulerConfig{16, nvm::Tech::kPcm});
  std::vector<Placement> srcs(ps.begin(), ps.begin() + 128);
  const auto plan = sched16.plan(BitOp::kOr, srcs, ps[127], false);
  // 16 + 15*k >= 128 -> k = 8 extra steps; total 9.
  EXPECT_EQ(plan.steps.size(), 9u);
}

TEST_F(SchedulerTest, AndXorAreTwoRowChains) {
  auto ps = alloc_n(5, 1ull << 14);
  std::vector<Placement> srcs(ps.begin(), ps.begin() + 4);
  for (BitOp op : {BitOp::kAnd, BitOp::kXor}) {
    const auto plan = sched_.plan(op, srcs, ps[4], false);
    EXPECT_EQ(plan.steps.size(), 3u) << to_string(op);
    for (const auto& s : plan.steps) EXPECT_LE(s.rows, 2u);
  }
}

TEST_F(SchedulerTest, InvIsSingleRowStep) {
  auto ps = alloc_n(2, 1ull << 14);
  const auto plan = sched_.plan(BitOp::kInv, {ps[0]}, ps[1], false);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].rows, 1u);
  EXPECT_THROW(sched_.plan(BitOp::kInv, {ps[0], ps[1]}, ps[1], false), Error);
}

TEST_F(SchedulerTest, CrossSubarrayGoesInterSub) {
  // Fill a subarray (4096 one-stripe slots), next alloc lands elsewhere.
  auto ps = alloc_n(4097, 1ull << 14);
  const auto plan = sched_.plan(BitOp::kOr, {ps[0], ps[4096]}, ps[1], false);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kInterSub);
}

TEST_F(SchedulerTest, MisalignedColumnsGoInterSub) {
  auto ps = alloc_n(200, 1ull << 14);
  // ps[0] is window 0, ps[128] is window 1: same subarray, misaligned.
  const auto plan = sched_.plan(BitOp::kOr, {ps[0], ps[128]}, ps[1], false);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kInterSub);
}

TEST_F(SchedulerTest, SameOperandTwiceGoesBufferPath) {
  auto ps = alloc_n(2, 1ull << 14);
  // a OP a: rows overlap -> cannot double-open one wordline.
  const auto plan = sched_.plan(BitOp::kXor, {ps[0], ps[0]}, ps[1], false);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kInterSub);
}

TEST_F(SchedulerTest, CrossRankGoesInterBank) {
  // Exhaust rank 0 (64 subarrays x 4096 slots) lazily: jump with virtual
  // placements instead.
  const auto p0 = alloc_.virtual_placement(0, 1ull << 14);
  const auto far = alloc_.virtual_placement(64ull * 4096, 1ull << 14);
  ASSERT_NE(p0.rank, far.rank);
  const auto plan = sched_.plan(BitOp::kOr, {p0, far}, p0, false);
  EXPECT_EQ(plan.steps[0].kind, StepKind::kInterBank);
  EXPECT_TRUE(plan.steps[0].crosses_rank);
}

TEST_F(SchedulerTest, MultiGroupVectorMakesPerGroupSteps) {
  auto ps = alloc_n(3, 1ull << 20);  // 2 groups each
  const auto plan = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], false);
  EXPECT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].group, 0u);
  EXPECT_EQ(plan.steps[1].group, 1u);
  for (const auto& s : plan.steps) {
    EXPECT_EQ(s.kind, StepKind::kIntraSub);
    EXPECT_EQ(s.col_steps, 32u);
  }
}

TEST_F(SchedulerTest, HostReadAppendsStep) {
  auto ps = alloc_n(3, 1ull << 14);
  const auto plan = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], true);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps.back().kind, StepKind::kHostRead);
}

TEST_F(SchedulerTest, RejectsBadShapes) {
  auto ps = alloc_n(2, 1ull << 14);
  EXPECT_THROW(sched_.plan(BitOp::kOr, {}, ps[0], false), Error);
  EXPECT_THROW(sched_.plan(BitOp::kOr, {ps[0]}, ps[1], false), Error);
  // Length mismatch.
  const auto big = alloc_.allocate(1ull << 15);
  EXPECT_THROW(sched_.plan(BitOp::kOr, {ps[0], big}, ps[1], false), Error);
}

TEST_F(SchedulerTest, SttAndDemotesToBufferPath) {
  // STT-MRAM's 2-row AND boundary ratio (n/(n-1+1/rho) = 1.43 at rho=2.5)
  // is below the CSA threshold: the scheduler must route AND through the
  // digital buffer path even for perfectly co-located operands, while OR
  // and XOR (plain-read margins) stay intra-subarray.
  OpScheduler stt(geo_, SchedulerConfig{128, nvm::Tech::kSttMram});
  auto ps = alloc_n(3, 1ull << 14);
  const auto and_plan = stt.plan(BitOp::kAnd, {ps[0], ps[1]}, ps[2], false);
  EXPECT_EQ(and_plan.steps[0].kind, StepKind::kInterSub);
  const auto or_plan = stt.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], false);
  EXPECT_EQ(or_plan.steps[0].kind, StepKind::kIntraSub);
  const auto xor_plan = stt.plan(BitOp::kXor, {ps[0], ps[1]}, ps[2], false);
  EXPECT_EQ(xor_plan.steps[0].kind, StepKind::kIntraSub);
}

TEST_F(SchedulerTest, CachedCsaLimitsMatchTheCsaModel) {
  // The scheduler reads the CSA model once, at construction; its per-op
  // row caps and its 2-row intra gate must be what the model says for
  // every technology, op and configured cap.
  const circuit::CsaModel csa;
  const auto ps = alloc_n(3, 1ull << 14);  // co-located, column-aligned
  for (const nvm::Tech tech :
       {nvm::Tech::kPcm, nvm::Tech::kSttMram, nvm::Tech::kReRam}) {
    const auto& cell = nvm::cell_params(tech);
    for (const unsigned cap : {2u, 3u, 4u, 8u, 64u, 128u, 256u, 1024u}) {
      SCOPED_TRACE(std::string(nvm::to_string(tech)) + " cap " +
                   std::to_string(cap));
      const OpScheduler s(geo_, SchedulerConfig{cap, tech});
      EXPECT_EQ(s.effective_max_rows(BitOp::kOr),
                std::min(cap, csa.max_rows(BitOp::kOr, cell)));
      EXPECT_EQ(s.effective_max_rows(BitOp::kAnd), 2u);
      EXPECT_EQ(s.effective_max_rows(BitOp::kXor), 2u);
      EXPECT_EQ(s.effective_max_rows(BitOp::kInv), 1u);
      for (const BitOp op : {BitOp::kOr, BitOp::kAnd, BitOp::kXor}) {
        const auto plan = s.plan(op, {ps[0], ps[1]}, ps[2], false);
        EXPECT_EQ(plan.steps[0].kind == StepKind::kIntraSub,
                  csa.supports(op, 2, cell))
            << to_string(op);
      }
      EXPECT_EQ(s.plan(BitOp::kInv, {ps[0]}, ps[2], false).steps[0].kind,
                StepKind::kIntraSub);
    }
  }
}

TEST_F(SchedulerTest, PlanSummaryReadable) {
  auto ps = alloc_n(3, 1ull << 14);
  const auto plan = sched_.plan(BitOp::kOr, {ps[0], ps[1]}, ps[2], false);
  EXPECT_NE(plan.summary().find("intra=1"), std::string::npos);
}

}  // namespace
}  // namespace pinatubo::core
