// The DDR command stream as an executable specification: replaying the
// commands a runtime recorded, on a FRESH memory image with the same
// initial data, must reproduce the runtime's results bit for bit.
#include "pinatubo/replay.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "pinatubo/driver.hpp"

namespace pinatubo::core {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  static PimRuntime::Options recording(nvm::Tech tech = nvm::Tech::kPcm,
                                       AllocPolicy policy =
                                           AllocPolicy::kPimAware) {
    PimRuntime::Options o;
    o.tech = tech;
    o.policy = policy;
    o.record_commands = true;
    return o;
  }

  /// Runs `body` on a recording runtime, checks the recorded command
  /// stream against the protocol, then replays it on a twin runtime
  /// holding the same initial data but no op results; asserts every vector
  /// matches afterwards.
  template <typename Body>
  void check_replay(std::uint64_t bits, std::size_t n_vectors, Body&& body,
                    const PimRuntime::Options& opts = recording()) {
    PimRuntime live(mem::Geometry{}, opts);
    PimRuntime twin(mem::Geometry{}, opts);
    Rng rng(2718);
    std::vector<PimRuntime::Handle> lh, th;
    for (std::size_t i = 0; i < n_vectors; ++i) {
      const auto v = BitVector::random(bits, 0.4, rng);
      lh.push_back(live.pim_malloc(bits));
      th.push_back(twin.pim_malloc(bits));
      live.pim_write(lh.back(), v);
      twin.pim_write(th.back(), v);
    }
    body(live, lh);
    const PinatuboCostModel model(live.geometry(), opts.tech);
    const verify::Report rep =
        verify::Verifier(model).check_commands(live.commands());
    ASSERT_TRUE(rep.ok()) << rep.to_string();
    CommandReplayer replayer(twin.memory());
    replayer.execute_all(live.commands());
    for (std::size_t i = 0; i < n_vectors; ++i)
      ASSERT_EQ(twin.pim_read(th[i]), live.pim_read(lh[i]))
          << "vector " << i;
    EXPECT_EQ(replayer.stats().commands, live.commands().size());
  }
};

TEST_F(ReplayTest, TwoRowOr) {
  check_replay(1ull << 14, 3, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
  });
}

TEST_F(ReplayTest, AllOpsSequence) {
  check_replay(5000, 4, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[3]);
    rt.pim_op(BitOp::kAnd, {h[3], h[2]}, h[3]);
    rt.pim_op(BitOp::kXor, {h[0], h[3]}, h[2]);
    rt.pim_op(BitOp::kInv, {h[2]}, h[1]);
  });
}

TEST_F(ReplayTest, MultiRowActivation) {
  check_replay(1ull << 14, 64, [](PimRuntime& rt, auto& h) {
    std::vector<PimRuntime::Handle> srcs(h.begin(), h.begin() + 63);
    rt.pim_op(BitOp::kOr, srcs, h[63]);
  });
}

TEST_F(ReplayTest, ChainedOrWithTwoRowCap) {
  auto opts = recording();
  opts.max_rows = 2;
  check_replay(
      2000, 8,
      [](PimRuntime& rt, auto& h) {
        std::vector<PimRuntime::Handle> srcs(h.begin(), h.end() - 1);
        rt.pim_op(BitOp::kOr, srcs, h.back());
      },
      opts);
}

TEST_F(ReplayTest, InPlaceAccumulation) {
  check_replay(1ull << 14, 8, [](PimRuntime& rt, auto& h) {
    // dst is also an operand: the chain must consume it first.
    std::vector<PimRuntime::Handle> srcs(h.begin(), h.end());
    rt.pim_op(BitOp::kXor, srcs, h[3]);
  });
}

TEST_F(ReplayTest, FullRowVectors) {
  check_replay(1ull << 19, 4, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1], h[2]}, h[3]);
  });
}

TEST_F(ReplayTest, MultiGroupRankMirroredVectors) {
  check_replay((1ull << 20) + 777, 3, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
    rt.pim_op(BitOp::kAnd, {h[2], h[0]}, h[2]);
  });
}

TEST_F(ReplayTest, BufferPathViaNaivePolicy) {
  // Naive placement scatters operands -> inter-subarray / inter-bank
  // command sequences (PIM_LOAD / PIM_GDL / PIM_IO).
  check_replay(
      1ull << 14, 4,
      [](PimRuntime& rt, auto& h) {
        rt.pim_op(BitOp::kOr, {h[0], h[1]}, h[2]);
        rt.pim_op(BitOp::kXor, {h[2], h[3]}, h[0]);
        rt.pim_op(BitOp::kInv, {h[0]}, h[1]);
      },
      recording(nvm::Tech::kPcm, AllocPolicy::kNaive));
}

TEST_F(ReplayTest, MisalignedColumnsUseTheShifter) {
  // 200 one-stripe vectors span two column windows; an op between window-0
  // and window-1 vectors exercises the buffer path's alignment shifter.
  check_replay(1ull << 14, 200, [](PimRuntime& rt, auto& h) {
    rt.pim_op(BitOp::kOr, {h[0], h[150]}, h[1]);
    rt.pim_op(BitOp::kAnd, {h[150], h[151]}, h[2]);
  });
}

TEST_F(ReplayTest, SttDemotedAndReplays) {
  check_replay(
      3000, 3,
      [](PimRuntime& rt, auto& h) {
        rt.pim_op(BitOp::kAnd, {h[0], h[1]}, h[2]);  // buffer path on STT
        rt.pim_op(BitOp::kOr, {h[0], h[2]}, h[1]);   // intra
      },
      recording(nvm::Tech::kSttMram));
}

TEST_F(ReplayTest, RecordedStreamsReplayUnderEveryVerifyPolicy) {
  // The recovery ladder appends verify steps to what it executes: a second
  // shadow sense, read-back folds at the global row buffer, and parity or
  // read-back write checks that load rows without writing anything back.
  using reliability::SenseVerify;
  using reliability::WriteVerify;
  for (const SenseVerify sense :
       {SenseVerify::kNone, SenseVerify::kDouble, SenseVerify::kReadback})
    for (const WriteVerify writes :
         {WriteVerify::kNone, WriteVerify::kParity, WriteVerify::kReadback}) {
      SCOPED_TRACE(std::string("verify.sense = ") + to_string(sense) +
                   ", verify.writes = " + to_string(writes));
      auto opts = recording();
      opts.reliability.verify.sense = sense;
      opts.reliability.verify.writes = writes;
      check_replay(
          5000, 5,
          [](PimRuntime& rt, auto& h) {
            rt.pim_op(BitOp::kOr, {h[0], h[1], h[2]}, h[3]);
            rt.pim_op(BitOp::kAnd, {h[3], h[2]}, h[4]);
            rt.pim_op(BitOp::kXor, {h[0], h[4]}, h[2]);
            rt.pim_op(BitOp::kInv, {h[2]}, h[1]);
          },
          opts);
    }
}

TEST(ReplayProtocol, ViolationsThrow) {
  mem::MainMemory memory({}, nvm::Tech::kPcm);
  CommandReplayer rp(memory);
  // Sensing with no open rows.
  EXPECT_THROW(rp.execute({mem::CmdKind::kPimSense, {}, BitOp::kOr, 0}),
               Error);
  // ACT without a preceding reset on that subarray.
  EXPECT_THROW(rp.execute({mem::CmdKind::kAct, {}, BitOp::kOr, 0}), Error);
  // Writeback with nothing latched.
  EXPECT_THROW(
      rp.execute({mem::CmdKind::kPimWriteback, {}, BitOp::kOr, 1 << 8}),
      Error);
  // Buffer op with empty buffer.
  EXPECT_THROW(rp.execute({mem::CmdKind::kPimGdlOp, {}, BitOp::kOr, 1 << 8}),
               Error);
}

TEST(ReplayProtocol, RejectedCommandsChangeNothing) {
  mem::MainMemory memory({}, nvm::Tech::kPcm);
  CommandReplayer rp(memory);
  const mem::RowAddr row{};
  mem::RowAddr other = row;
  other.subarray = 1;
  // A reset needs the mode-set; plain WR/PRE never belong to a sequence;
  // ACTs stay on the subarray the reset addressed.
  EXPECT_THROW(rp.execute({mem::CmdKind::kPimReset, row}), Error);
  rp.execute({mem::CmdKind::kModeSet, row, BitOp::kOr});
  EXPECT_THROW(rp.execute({mem::CmdKind::kWrite, row}), Error);
  EXPECT_THROW(rp.execute({mem::CmdKind::kPrecharge, row}), Error);
  rp.execute({mem::CmdKind::kPimReset, row});
  try {
    rp.execute({mem::CmdKind::kAct, other, BitOp::kOr, 0});
    ADD_FAILURE() << "ACT on another subarray replayed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "activate outside the subarray the reset addressed"),
              std::string::npos)
        << e.what();
  }
  // The rejected commands left the sequence where it was.
  mem::RowAddr second = row;
  second.row = 1;
  rp.execute({mem::CmdKind::kAct, row, BitOp::kOr, 0});
  rp.execute({mem::CmdKind::kAct, second, BitOp::kOr, 1});
  rp.execute({mem::CmdKind::kPimSense, row, BitOp::kOr, 0});
  rp.execute({mem::CmdKind::kPimWriteback, row, BitOp::kOr, 0});
  EXPECT_EQ(rp.stats().commands, 6u);
  EXPECT_EQ(rp.stats().activations, 2u);
  EXPECT_EQ(rp.stats().writebacks, 1u);
}

TEST(ReplayStats, CountsCommandClasses) {
  PimRuntime::Options o;
  o.record_commands = true;
  PimRuntime rt(mem::Geometry{}, o);
  const auto a = rt.pim_malloc(1024);
  const auto b = rt.pim_malloc(1024);
  const auto c = rt.pim_malloc(1024);
  rt.pim_op(BitOp::kOr, {a, b}, c);

  mem::MainMemory memory({}, nvm::Tech::kPcm);
  CommandReplayer rp(memory);
  rp.execute_all(rt.commands());
  EXPECT_EQ(rp.stats().activations, 2u);
  EXPECT_EQ(rp.stats().sense_steps, 1u);
  EXPECT_EQ(rp.stats().writebacks, 1u);
  EXPECT_EQ(rp.stats().buffer_ops, 0u);
}

}  // namespace
}  // namespace pinatubo::core
