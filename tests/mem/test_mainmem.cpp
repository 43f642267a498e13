#include "mem/mainmem.hpp"
#include "mem/commands.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace pinatubo::mem {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.ranks_per_channel = 1;
  g.banks_per_chip = 2;
  g.subarrays_per_bank = 2;
  g.rows_per_subarray = 8;
  g.chips_per_rank = 2;
  g.row_slice_bits = 64;
  g.mats_per_subarray = 2;
  g.sa_mux_share = 4;
  return g;
}

class MainMemoryTest : public ::testing::Test {
 protected:
  MainMemoryTest() : mem_(small_geometry(), nvm::Tech::kPcm) {}

  BitVector random_row(std::uint64_t seed) {
    Rng rng(seed);
    return BitVector::random(mem_.geometry().rank_row_bits(), 0.5, rng);
  }

  MainMemory mem_;
};

TEST_F(MainMemoryTest, UnwrittenRowsReadZero) {
  EXPECT_FALSE(mem_.row_exists({0, 0, 0, 0, 0}));
  EXPECT_TRUE(mem_.read_row({0, 0, 0, 0, 0}).none());
}

TEST_F(MainMemoryTest, WriteReadRoundTrip) {
  const auto data = random_row(1);
  const RowAddr a{0, 0, 1, 1, 3};
  mem_.write_row(a, data);
  EXPECT_TRUE(mem_.row_exists(a));
  EXPECT_EQ(mem_.read_row(a), data);
}

TEST_F(MainMemoryTest, WriteSizeChecked) {
  EXPECT_THROW(mem_.write_row({0, 0, 0, 0, 0}, BitVector(7)), Error);
}

TEST_F(MainMemoryTest, PartialWriteRead) {
  const RowAddr a{0, 0, 0, 1, 2};
  mem_.write_row_partial(a, 10, BitVector::from_string("1101"));
  const auto back = mem_.read_row_partial(a, 10, 4);
  EXPECT_EQ(back.to_string(), "1101");
  // Neighbouring bits untouched.
  EXPECT_FALSE(mem_.read_row(a).get(9));
  EXPECT_FALSE(mem_.read_row(a).get(14));
}

TEST_F(MainMemoryTest, PartialBoundsChecked) {
  const RowAddr a{0, 0, 0, 0, 0};
  const auto row_bits = mem_.geometry().rank_row_bits();
  EXPECT_THROW(mem_.write_row_partial(a, row_bits - 2, BitVector(4)), Error);
  EXPECT_THROW(mem_.read_row_partial(a, row_bits, 1), Error);
}

TEST_F(MainMemoryTest, SenseRowsOrMatchesBoolean) {
  const RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1}, r2{0, 0, 0, 0, 2};
  const auto a = random_row(2), b = random_row(3), c = random_row(4);
  mem_.write_row(r0, a);
  mem_.write_row(r1, b);
  mem_.write_row(r2, c);
  // 2-row and 3-row... 3 is not a supported power-of-two shape? The CSA
  // supports any n with sufficient ratio; 3-row OR ratio on PCM is ample.
  EXPECT_EQ(mem_.sense_rows({r0, r1}, BitOp::kOr), (a | b));
  EXPECT_EQ(mem_.sense_rows({r0, r1, r2}, BitOp::kOr), (a | b | c));
  EXPECT_EQ(mem_.sense_rows({r0, r1}, BitOp::kAnd), (a & b));
  EXPECT_EQ(mem_.sense_rows({r0, r1}, BitOp::kXor), (a ^ b));
}

TEST_F(MainMemoryTest, SenseRejectsCrossSubarray) {
  const RowAddr r0{0, 0, 0, 0, 0}, other_sub{0, 0, 0, 1, 0};
  EXPECT_THROW(mem_.sense_rows({r0, other_sub}, BitOp::kOr), Error);
}

TEST_F(MainMemoryTest, SenseRejectsUnsupportedShapes) {
  std::vector<RowAddr> four;
  for (unsigned i = 0; i < 4; ++i) four.push_back({0, 0, 0, 0, i});
  EXPECT_THROW(mem_.sense_rows(four, BitOp::kAnd), Error);  // 4-row AND
  EXPECT_THROW(mem_.sense_rows({four[0], four[1], four[2]}, BitOp::kXor),
               Error);
}

TEST_F(MainMemoryTest, SttLimitedToTwoRowOr) {
  MainMemory stt(small_geometry(), nvm::Tech::kSttMram);
  std::vector<RowAddr> rows;
  for (unsigned i = 0; i < 4; ++i) rows.push_back({0, 0, 0, 0, i});
  EXPECT_NO_THROW(stt.sense_rows({rows[0], rows[1]}, BitOp::kOr));
  EXPECT_THROW(stt.sense_rows(rows, BitOp::kOr), Error);
}

TEST_F(MainMemoryTest, BufferOpAnyPlacement) {
  // Buffer-path operands may sit anywhere: the runtime reads each row back
  // and combines them in digital logic.
  const RowAddr a{0, 0, 0, 0, 0}, b{0, 0, 1, 1, 5};  // different banks
  const auto va = random_row(5), vb = random_row(6);
  mem_.write_row(a, va);
  mem_.write_row(b, vb);
  EXPECT_EQ(mem_.read_row(a), va);
  EXPECT_EQ(mem_.read_row(b), vb);
}

TEST_F(MainMemoryTest, AnalogFidelityMatchesNominalWithinMargin) {
  MainMemory analog(small_geometry(), nvm::Tech::kPcm,
                    SenseFidelity::kAnalog, 99);
  const RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1};
  const auto a = random_row(7), b = random_row(8);
  analog.write_row(r0, a);
  analog.write_row(r1, b);
  // PCM 2-row OR has huge margin: analog sensing (with variation) must
  // still be bit-exact.
  EXPECT_EQ(analog.sense_rows({r0, r1}, BitOp::kOr), (a | b));
  EXPECT_EQ(analog.sense_rows({r0, r1}, BitOp::kAnd), (a & b));
}

TEST_F(MainMemoryTest, AnalogSensingMultiRowOrStaysExactAt128) {
  // 128-row OR at the derived margin edge: with the preset variation the
  // MC yield is ~1, so a full row op should still be exact w.h.p.
  Geometry g = small_geometry();
  g.rows_per_subarray = 128;
  MainMemory analog(g, nvm::Tech::kPcm, SenseFidelity::kAnalog, 7);
  std::vector<RowAddr> rows;
  BitVector expect(g.rank_row_bits());
  Rng rng(123);
  for (unsigned i = 0; i < 128; ++i) {
    const RowAddr r{0, 0, 0, 0, i};
    const auto data = BitVector::random(g.rank_row_bits(), 0.02, rng);
    analog.write_row(r, data);
    expect |= data;
    rows.push_back(r);
  }
  EXPECT_EQ(analog.sense_rows(rows, BitOp::kOr), expect);
}

TEST_F(MainMemoryTest, PartialReadWriteAtWordBoundaries) {
  // Exercise the masked whole-word path at offset 0, mid-word, exact word
  // boundaries, and a ragged tail; compare against a per-bit shadow row.
  const RowAddr a{0, 0, 1, 0, 4};
  const std::size_t row_bits = mem_.geometry().rank_row_bits();
  BitVector shadow(row_bits);
  Rng rng(42);
  const struct {
    std::size_t offset, len;
  } cases[] = {{0, 64}, {0, 37}, {5, 64}, {37, 91}, {64, 64},
               {63, 2},  {100, 27}, {row_bits - 13, 13}};
  for (const auto& c : cases) {
    const auto chunk = BitVector::random(c.len, 0.5, rng);
    mem_.write_row_partial(a, c.offset, chunk);
    for (std::size_t i = 0; i < c.len; ++i)
      shadow.set(c.offset + i, chunk.get(i));
    EXPECT_EQ(mem_.read_row(a), shadow);
    EXPECT_EQ(mem_.read_row_partial(a, c.offset, c.len), chunk);
  }
  // Partial reads at the same boundary mix.
  EXPECT_EQ(mem_.read_row_partial(a, 60, 10).to_string(),
            mem_.read_row(a).to_string().substr(60, 10));
}

TEST_F(MainMemoryTest, ArenaUnwrittenRowsReadZeroWithoutMaterializing) {
  const RowAddr never{0, 0, 1, 1, 7};
  EXPECT_TRUE(mem_.read_row(never).none());
  EXPECT_TRUE(mem_.read_row_partial(never, 3, 50).none());
  EXPECT_EQ(mem_.rows_written(), 0u);  // reads must not allocate
  EXPECT_FALSE(mem_.row_exists(never));
  // A partial write materializes the row zero-filled around the data.
  mem_.write_row_partial(never, 64, BitVector::from_string("11"));
  EXPECT_EQ(mem_.rows_written(), 1u);
  EXPECT_TRUE(mem_.row_exists(never));
  EXPECT_EQ(mem_.read_row(never).popcount(), 2u);
}

TEST_F(MainMemoryTest, RowViewZeroCopyTracksWrites) {
  const RowAddr a{0, 0, 0, 1, 1};
  EXPECT_EQ(mem_.row_view(a).size(),
            (mem_.geometry().rank_row_bits() + 63) / 64);
  const auto data = random_row(12);
  mem_.write_row(a, data);
  const auto view = mem_.row_view(a);
  EXPECT_EQ(BitVector::from_words(view, data.size()), data);
  // Views of written rows are stable across later writes to other rows
  // (slabs never move) and follow in-place updates.
  const auto other = random_row(13);
  for (unsigned r = 0; r < 4; ++r) mem_.write_row({0, 0, 1, 0, r}, other);
  const auto update = random_row(14);
  mem_.write_row(a, update);
  EXPECT_EQ(BitVector::from_words(view, update.size()), update);
}

TEST_F(MainMemoryTest, AnalogSensingDeterministicAcrossThreadCounts) {
  // Same seed => bit-identical analog results for 1, 2, and N threads —
  // the counter-based RNG contract of the batched sensing path.
  Geometry g = small_geometry();
  g.row_slice_bits = 1024;  // enough words for real sharding
  const auto run = [&](unsigned threads) {
    ThreadPool::set_global_threads(threads);
    MainMemory analog(g, nvm::Tech::kSttMram, SenseFidelity::kAnalog, 77);
    const RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1};
    Rng rng(5);
    analog.write_row(r0, BitVector::random(g.rank_row_bits(), 0.5, rng));
    analog.write_row(r1, BitVector::random(g.rank_row_bits(), 0.5, rng));
    // STT-MRAM's thin margins make occasional analog flips likely, which
    // is exactly what must reproduce across thread counts.
    // OR-2, XOR-2 and INV are the shapes the SA supports on STT-MRAM
    // (AND-2's boundary ratio is below the reliability floor).
    std::vector<BitVector> out;
    out.push_back(analog.sense_rows({r0, r1}, BitOp::kOr));
    out.push_back(analog.sense_rows({r0, r1}, BitOp::kXor));
    out.push_back(analog.sense_rows({r0}, BitOp::kInv));
    return out;
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(7));
  ThreadPool::set_global_threads(0);
}

TEST_F(MainMemoryTest, AnalogSensesDifferOverEpochs) {
  // Each sense draws a fresh variation sample: two identical marginal ops
  // are keyed by different epochs, so their (noisy) results may differ —
  // and reconstructing the memory reproduces the exact same sequence.
  Geometry g = small_geometry();
  g.row_slice_bits = 1024;
  const auto run = [&] {
    MainMemory analog(g, nvm::Tech::kSttMram, SenseFidelity::kAnalog, 3);
    const RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1};
    Rng rng(5);
    analog.write_row(r0, BitVector::random(g.rank_row_bits(), 0.5, rng));
    analog.write_row(r1, BitVector::random(g.rank_row_bits(), 0.5, rng));
    std::vector<BitVector> out;
    out.push_back(analog.sense_rows({r0, r1}, BitOp::kXor));
    out.push_back(analog.sense_rows({r0, r1}, BitOp::kXor));
    return out;
  };
  const auto first = run(), second = run();
  EXPECT_EQ(first, second);  // same seed, same epoch sequence
}

TEST_F(MainMemoryTest, RowsWrittenCountsDistinct) {
  EXPECT_EQ(mem_.rows_written(), 0u);
  mem_.write_row({0, 0, 0, 0, 0}, random_row(9));
  mem_.write_row({0, 0, 0, 0, 0}, random_row(10));
  mem_.write_row({0, 0, 0, 0, 1}, random_row(11));
  EXPECT_EQ(mem_.rows_written(), 2u);
}

TEST(Commands, ToStringReadable) {
  Command c{CmdKind::kModeSet, {0, 0, 1, 2, 3}, BitOp::kXor, 0};
  EXPECT_EQ(c.to_string(), "MRS4 ch0.rk0.bk1.sa2.row3 op=XOR");
  Command s{CmdKind::kPimSense, {0, 0, 0, 0, 0}, BitOp::kOr, 5};
  EXPECT_NE(s.to_string().find("PIM_SENSE"), std::string::npos);
  EXPECT_NE(s.to_string().find("aux=5"), std::string::npos);
}

}  // namespace
}  // namespace pinatubo::mem
