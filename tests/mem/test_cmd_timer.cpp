#include "mem/cmd_timer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::mem {
namespace {

BusParams bus() { return ddr3_1600_bus(); }

TEST(ChannelTimer, SingleCommand) {
  ChannelTimer t(8, bus());
  EXPECT_DOUBLE_EQ(t.issue_after(0, 0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(t.finish_ns(), 10.0);
}

TEST(ChannelTimer, BanksRunInParallel) {
  ChannelTimer t(8, bus());
  // 8 commands of 100 ns to 8 different banks: serialized only by the
  // command bus (1.25 ns each), so finish ~= 7*1.25 + 100.
  double last = 0;
  for (unsigned b = 0; b < 8; ++b) last = t.issue_after(b, 0.0, 100.0);
  EXPECT_NEAR(last, 7 * 1.25 + 100.0, 1e-9);
}

TEST(ChannelTimer, SameBankSerializes) {
  ChannelTimer t(8, bus());
  t.issue_after(3, 0.0, 100.0);
  EXPECT_NEAR(t.issue_after(3, 0.0, 50.0), 150.0, 1e-9);
}

TEST(ChannelTimer, CommandBusSerializesZeroWork) {
  ChannelTimer t(5, bus());
  // Even zero-occupancy commands consume bus slots: bank 4 stays idle, so
  // its earliest start is where the command bus frees up.
  for (int i = 0; i < 10; ++i)
    t.issue_after(static_cast<unsigned>(i % 4), 0.0, 0.0);
  EXPECT_NEAR(t.bank_free_ns(4), 10 * 1.25, 1e-9);
}

TEST(ChannelTimer, DataBurstUsesChannelBandwidth) {
  ChannelTimer t(8, bus());
  // 128 bytes at 12.8 GB/s = 10 ns after the 20 ns bank op.
  EXPECT_NEAR(t.issue_data_after(0, 0.0, 20.0, 128), 30.0, 1e-9);
}

TEST(ChannelTimer, DataBusSerializesTransfers) {
  ChannelTimer t(8, bus());
  t.issue_data_after(0, 0.0, 0.0, 1280);  // 100 ns of data
  const double done = t.issue_data_after(1, 0.0, 0.0, 1280);
  EXPECT_GT(done, 200.0 - 1e-9);
}

TEST(ChannelTimer, DataAfterHonorsDependencyAndBus) {
  ChannelTimer t(8, bus());
  // Dependency delays the command even though bank and bus are free.
  EXPECT_NEAR(t.issue_data_after(0, 100.0, 20.0, 128), 130.0, 1e-9);
  // A second burst on another bank overlaps the bank op but serializes
  // its data behind the first burst.
  const double done = t.issue_data_after(1, 0.0, 0.0, 1280);
  EXPECT_GE(done, 230.0 - 1e-9);
}

TEST(ChannelTimer, DependentDataChainIsSerialSum) {
  // compute -> burst -> compute -> burst chained by ready times lands on
  // the exact serial sum (what a batch of one dependent op costs).
  ChannelTimer t(2, bus());
  const double d1 = t.issue_after(0, 0.0, 100.0);
  const double d2 = t.issue_data_after(0, d1, 10.0, 128);  // +10 +10 ns
  EXPECT_NEAR(d2, 120.0, 1e-9);
  const double d3 = t.issue_after(0, d2, 50.0);
  EXPECT_NEAR(d3, 170.0, 1e-9);
}

TEST(ChannelTimer, IssueAfterHonorsDependencies) {
  ChannelTimer t(2, bus());
  // Bank free and bus free, but the data dependency isn't ready yet.
  EXPECT_NEAR(t.issue_after(0, 500.0, 10.0), 510.0, 1e-9);
  // Later command to the other bank can still start immediately... no:
  // the command bus slot was consumed at 500; a new issue waits for it.
  EXPECT_GE(t.issue_after(1, 0.0, 1.0), 501.25 - 1e-9);
}

TEST(ChannelTimer, Validates) {
  EXPECT_THROW(ChannelTimer(0, bus()), Error);
  ChannelTimer t(2, bus());
  EXPECT_THROW(t.issue_after(2, 0.0, 1.0), Error);
  EXPECT_THROW(t.issue_after(0, 0.0, -1.0), Error);
  EXPECT_THROW(t.issue_after(0, -1.0, 1.0), Error);
  EXPECT_THROW(t.bank_free_ns(2), Error);
}

TEST(ChannelTimer, BankStaysBusyUntilBurstDrains) {
  // Regression: the data issue left the bank free at bank-op completion
  // while the burst was still draining its buffers, so a follow-up command
  // to the same bank could start mid-burst and clobber the latched data.
  ChannelTimer t(8, bus());
  // Bank op [0, 10], burst [10, 110] (1280 B at 12.8 GB/s).
  EXPECT_NEAR(t.issue_data_after(0, 0.0, 10.0, 1280), 110.0, 1e-9);
  // Other banks are unaffected by the burst...
  EXPECT_NEAR(t.bank_free_ns(1), 1.25, 1e-9);
  // ...but the bursting bank is held until the transfer drains: the next
  // command to it starts at 110, not at bank-op completion (would be 15).
  EXPECT_NEAR(t.issue_after(0, 0.0, 5.0), 115.0, 1e-9);
}

TEST(ChannelTimer, FinishMonotoneOverRandomSequence) {
  // Invariant sweep: under any interleaving of plain and bursting issues,
  // finish_ns never moves backwards, every returned completion is within
  // the horizon, and a bursting bank is never reported free mid-burst.
  ChannelTimer t(4, bus());
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  double horizon = 0.0;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const unsigned bank = static_cast<unsigned>((state >> 33) % 4);
    const double occ = static_cast<double>((state >> 11) % 100);
    const std::uint64_t bytes = (state >> 3) % 2048;
    double done = 0.0;
    if ((state >> 62) & 1) {
      done = t.issue_data_after(bank, 0.0, occ, bytes);
      EXPECT_GE(t.bank_free_ns(bank), done - 1e-9);
    } else {
      done = t.issue_after(bank, 0.0, occ);
    }
    EXPECT_LE(done, t.finish_ns() + 1e-9);
    EXPECT_GE(t.finish_ns(), horizon - 1e-9);
    horizon = t.finish_ns();
  }
}

TEST(Timing, PaperConstants) {
  const auto pcm = pcm_timing();
  EXPECT_DOUBLE_EQ(pcm.t_rcd_ns, 18.3);
  EXPECT_DOUBLE_EQ(pcm.t_cl_ns, 8.9);
  EXPECT_DOUBLE_EQ(pcm.t_wr_ns, 151.1);
  const auto dram = dram_timing();
  EXPECT_DOUBLE_EQ(dram.t_rcd_ns, 13.75);
  EXPECT_DOUBLE_EQ(ddr3_1600_bus().data_gbps, 12.8);
}

}  // namespace
}  // namespace pinatubo::mem
