// The memory's reliability seams: FaultHooks callbacks fire at the right
// places with the right (physical) coordinates, spare-row remaps redirect
// every access, and reset_campaign restores a factory-fresh array.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "mem/fault_hooks.hpp"
#include "mem/mainmem.hpp"

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

/// Scriptable hooks: records every callback, optionally corrupts writes
/// or flips sensed words.
struct StubHooks final : FaultHooks {
  using Word = BitVector::Word;

  struct WriteEvent {
    std::uint64_t row_id, write_count, epoch;
    std::size_t word_lo, word_hi;
  };
  std::vector<WriteEvent> writes;
  Word corrupt_mask = 0;   ///< OR'd into word 0 of every written row
  Word flip_mask = 0;      ///< XOR'd into word 0 of every sense
  std::uint64_t senses = 0;       ///< sense_flips calls
  std::size_t sensed_words = 0;   ///< output span size of the last call

  void on_write(std::uint64_t row_id, std::uint64_t write_count,
                std::uint64_t epoch, std::span<Word> row,
                std::size_t word_lo, std::size_t word_hi) override {
    writes.push_back({row_id, write_count, epoch, word_lo, word_hi});
    if (corrupt_mask && !row.empty()) row[0] |= corrupt_mask;
  }
  double sense_scale(std::uint64_t, std::span<const std::uint64_t>) override {
    return 1.0;
  }
  void sense_flips(std::uint64_t, double, std::span<Word> out) override {
    ++senses;
    sensed_words = out.size();
    if (!out.empty()) out[0] ^= flip_mask;
  }
};

class FaultHooksTest : public ::testing::Test {
 protected:
  FaultHooksTest() : mem_(small_geometry(), nvm::Tech::kPcm) {
    mem_.set_fault_hooks(&hooks_);
  }
  BitVector random_row(std::uint64_t seed) {
    Rng rng(seed);
    return BitVector::random(mem_.geometry().rank_row_bits(), 0.5, rng);
  }
  MainMemory mem_;
  StubHooks hooks_;
};

TEST_F(FaultHooksTest, WriteHookCorruptsStoredWords) {
  hooks_.corrupt_mask = 0b101;
  const RowAddr a{0, 0, 0, 0, 2};
  BitVector zeros(mem_.geometry().rank_row_bits());
  mem_.write_row(a, zeros);
  // The corruption landed in the ARRAY, not just the write's view.
  EXPECT_TRUE(mem_.read_row(a).get(0));
  EXPECT_FALSE(mem_.read_row(a).get(1));
  EXPECT_TRUE(mem_.read_row(a).get(2));
  ASSERT_EQ(hooks_.writes.size(), 1u);
  EXPECT_EQ(hooks_.writes[0].row_id, mem_.codec().encode(a));
  EXPECT_EQ(hooks_.writes[0].write_count, 1u);
}

TEST_F(FaultHooksTest, PartialWritesReportTheirWordWindow) {
  const RowAddr a{0, 0, 0, 0, 1};
  mem_.write_row_partial(a, 60, BitVector(10));  // bits 60..69: words 0 and 1
  ASSERT_EQ(hooks_.writes.size(), 1u);
  EXPECT_EQ(hooks_.writes[0].word_lo, 0u);
  EXPECT_EQ(hooks_.writes[0].word_hi, 2u);
}

TEST_F(FaultHooksTest, SenseFlipsHitTheOutputNotTheArray) {
  hooks_.flip_mask = BitVector::Word{1} << 5;
  const RowAddr r0{0, 0, 0, 0, 0}, r1{0, 0, 0, 0, 1};
  const auto a = random_row(1), b = random_row(2);
  mem_.write_row(r0, a);
  mem_.write_row(r1, b);
  const auto sensed = mem_.sense_rows({r0, r1}, BitOp::kOr);
  auto expect = a | b;
  expect.set(5, !expect.get(5));  // word 0, bit 5 flipped
  EXPECT_EQ(sensed, expect);
  // One flip call per sense, over the whole output row.
  EXPECT_EQ(hooks_.senses, 1u);
  EXPECT_EQ(hooks_.sensed_words, sensed.word_count());
  // The stored rows are untouched: a clean hook re-senses exactly.
  hooks_.flip_mask = 0;
  EXPECT_EQ(mem_.sense_rows({r0, r1}, BitOp::kOr), (a | b));
  // Each sense advances the epoch (the fault model's time proxy).
  EXPECT_EQ(mem_.sense_epoch(), 2u);
}

TEST_F(FaultHooksTest, RemapRedirectsAllAccessAndFaultKeying) {
  const RowAddr logical{0, 0, 0, 0, 3}, spare{0, 0, 0, 0, 7};
  const auto data = random_row(3);
  mem_.write_row(logical, data);
  mem_.remap_row(logical, spare);
  EXPECT_EQ(mem_.remapped_rows(), 1u);
  EXPECT_EQ(mem_.codec().encode(mem_.physical(logical)),
            mem_.codec().encode(spare));
  // Data is NOT copied by the remap: the logical row now reads the
  // (empty) spare until rewritten.
  EXPECT_TRUE(mem_.read_row(logical).none());
  mem_.write_row(logical, data);
  EXPECT_EQ(mem_.read_row(logical), data);
  // The write hook saw the PHYSICAL id — fault keying follows the remap.
  EXPECT_EQ(hooks_.writes.back().row_id, mem_.codec().encode(spare));
  // Unmapped rows resolve to themselves.
  const RowAddr other{0, 0, 1, 0, 0};
  EXPECT_EQ(mem_.codec().encode(mem_.physical(other)),
            mem_.codec().encode(other));
}

TEST_F(FaultHooksTest, ResetCampaignRestoresFactoryState) {
  const RowAddr a{0, 0, 0, 0, 0}, spare{0, 0, 0, 0, 6};
  mem_.write_row(a, random_row(4));
  mem_.sense_rows({a}, BitOp::kInv);
  mem_.remap_row(a, spare);
  ASSERT_GT(mem_.rows_written(), 0u);
  ASSERT_GT(mem_.wear().total_row_writes(), 0u);

  mem_.reset_campaign();
  EXPECT_EQ(mem_.rows_written(), 0u);
  EXPECT_EQ(mem_.remapped_rows(), 0u);
  EXPECT_EQ(mem_.sense_epoch(), 0u);
  EXPECT_EQ(mem_.wear().total_row_writes(), 0u);
  EXPECT_TRUE(mem_.read_row(a).none());
  // Hooks stay attached (reset separately by their owner).
  mem_.write_row(a, random_row(5));
  EXPECT_EQ(hooks_.writes.back().write_count, 1u);  // wear ledger restarted
}

TEST_F(FaultHooksTest, DetachingHooksStopsCallbacks) {
  mem_.set_fault_hooks(nullptr);
  mem_.write_row({0, 0, 0, 0, 0}, random_row(6));
  EXPECT_TRUE(hooks_.writes.empty());
}

}  // namespace
}  // namespace pinatubo::mem
