#include "bitvec/bitvector.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo {
namespace {

TEST(BitVector, ConstructsZeroed) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.word_count(), 3u);
  EXPECT_TRUE(v.none());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, SetGetClearFlip) {
  BitVector v(100);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(99);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.clear(63);
  EXPECT_FALSE(v.get(63));
  v.flip(1);
  EXPECT_TRUE(v.get(1));
  v.flip(1);
  EXPECT_FALSE(v.get(1));
}

TEST(BitVector, BoundsChecked) {
  BitVector v(10);
  EXPECT_THROW(v.get(10), Error);
  EXPECT_THROW(v.set(10), Error);
  EXPECT_THROW(v.flip(10), Error);
}

TEST(BitVector, FromToString) {
  const auto v = BitVector::from_string("1011001");
  EXPECT_EQ(v.size(), 7u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.to_string(), "1011001");
  EXPECT_THROW(BitVector::from_string("10x"), Error);
}

TEST(BitVector, BulkOps) {
  const auto a = BitVector::from_string("1100");
  const auto b = BitVector::from_string("1010");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((~a).to_string(), "0011");
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(8), b(9);
  EXPECT_THROW(a |= b, Error);
  EXPECT_THROW(a &= b, Error);
  EXPECT_THROW(a ^= b, Error);
  EXPECT_THROW(BitVector::and_not(a, b), Error);
}

TEST(BitVector, InvertKeepsTailZero) {
  BitVector v(70);
  v.invert();
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_TRUE(v.all());
  // The packing invariant: trailing word bits past size stay zero.
  EXPECT_EQ(v.words()[1] >> 6, 0u);
}

TEST(BitVector, AndNot) {
  const auto a = BitVector::from_string("1111");
  const auto b = BitVector::from_string("0101");
  EXPECT_EQ(BitVector::and_not(a, b).to_string(), "1010");
}

TEST(BitVector, ReduceMultiOperand) {
  const auto a = BitVector::from_string("1000");
  const auto b = BitVector::from_string("0100");
  const auto c = BitVector::from_string("0010");
  const BitVector* ops[] = {&a, &b, &c};
  EXPECT_EQ(BitVector::reduce(BitOp::kOr, ops).to_string(), "1110");
  EXPECT_EQ(BitVector::reduce(BitOp::kAnd, ops).to_string(), "0000");
  EXPECT_EQ(BitVector::reduce(BitOp::kXor, ops).to_string(), "1110");
}

TEST(BitVector, ReduceInvTakesOneOperand) {
  const auto a = BitVector::from_string("10");
  const BitVector* one[] = {&a};
  EXPECT_EQ(BitVector::reduce(BitOp::kInv, one).to_string(), "01");
  const BitVector* two[] = {&a, &a};
  EXPECT_THROW(BitVector::reduce(BitOp::kInv, two), Error);
}

TEST(BitVector, FindFirstNext) {
  auto v = BitVector(200);
  EXPECT_EQ(v.find_first(), 200u);
  v.set(5);
  v.set(64);
  v.set(199);
  EXPECT_EQ(v.find_first(), 5u);
  EXPECT_EQ(v.find_next(5), 64u);
  EXPECT_EQ(v.find_next(64), 199u);
  EXPECT_EQ(v.find_next(199), 200u);
  EXPECT_EQ(v.find_next(0), 5u);
}

TEST(BitVector, ForEachSetAscending) {
  auto v = BitVector(150);
  v.set(3);
  v.set(77);
  v.set(149);
  std::vector<std::size_t> seen;
  v.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 77, 149}));
}

TEST(BitVector, FillAndAll) {
  BitVector v(65);
  v.fill(true);
  EXPECT_TRUE(v.all());
  EXPECT_EQ(v.popcount(), 65u);
  v.fill(false);
  EXPECT_TRUE(v.none());
}

TEST(BitVector, ResizePreservesAndZeroes) {
  BitVector v(10);
  v.set(9);
  v.resize(100);
  EXPECT_TRUE(v.get(9));
  EXPECT_EQ(v.popcount(), 1u);
  v.resize(9);
  EXPECT_EQ(v.popcount(), 0u);
  v.resize(64);
  EXPECT_TRUE(v.none());
}

TEST(BitVector, BytesRoundTrip) {
  Rng rng(5);
  const auto v = BitVector::random(1234, 0.3, rng);
  const auto bytes = v.to_bytes();
  EXPECT_EQ(bytes.size(), (1234u + 7) / 8);
  const auto back = BitVector::from_bytes(bytes, 1234);
  EXPECT_EQ(v, back);
}

TEST(BitVector, RandomDensity) {
  Rng rng(9);
  const auto sparse = BitVector::random(100000, 0.1, rng);
  const auto dense = BitVector::random(100000, 0.9, rng);
  EXPECT_NEAR(sparse.popcount() / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(dense.popcount() / 100000.0, 0.9, 0.01);
  const auto half = BitVector::random(100000, 0.5, rng);
  EXPECT_NEAR(half.popcount() / 100000.0, 0.5, 0.02);
}

TEST(BitVector, EqualityAndApply) {
  const auto a = BitVector::from_string("110");
  const auto b = BitVector::from_string("011");
  EXPECT_EQ(apply(BitOp::kOr, a, b).to_string(), "111");
  EXPECT_EQ(apply(BitOp::kAnd, a, b).to_string(), "010");
  EXPECT_EQ(apply(BitOp::kXor, a, b).to_string(), "101");
  EXPECT_EQ(apply(BitOp::kInv, a, b).to_string(), "001");
}

TEST(BitVector, FromWordsRoundTrip) {
  Rng rng(71);
  const auto v = BitVector::random(300, 0.5, rng);
  const auto back = BitVector::from_words(v.words(), 300);
  EXPECT_EQ(back, v);
  // Tail bits of the source words are masked off.
  std::vector<BitVector::Word> words = {~BitVector::Word{0},
                                        ~BitVector::Word{0}};
  const auto masked = BitVector::from_words(words, 70);
  EXPECT_EQ(masked.popcount(), 70u);
  EXPECT_EQ(masked.size(), 70u);
}

TEST(BitVector, RandomDensityWordPathMatchesBitPath) {
  // The word-assembled threshold path must consume draws exactly like the
  // historical one-uniform-per-bit loop, so seeds reproduce old outputs.
  Rng rng(101);
  const auto v = BitVector::random(517, 0.3, rng);
  Rng ref_rng(101);
  BitVector ref(517);
  for (std::size_t i = 0; i < 517; ++i)
    if (ref_rng.chance(0.3)) ref.set(i);
  EXPECT_EQ(v, ref);
}

TEST(CopyBits, MatchesPerBitReferenceAtAllAlignments) {
  Rng rng(72);
  const auto src = BitVector::random(500, 0.5, rng);
  for (const std::size_t src_off : {0u, 1u, 63u, 64u, 65u, 130u}) {
    for (const std::size_t dst_off : {0u, 7u, 63u, 64u, 128u}) {
      for (const std::size_t len : {0u, 1u, 37u, 64u, 200u}) {
        auto dst = BitVector::random(500, 0.5, rng);
        auto expect = dst;
        for (std::size_t i = 0; i < len; ++i)
          expect.set(dst_off + i, src.get(src_off + i));
        copy_bits(dst.words(), dst_off, src.words(), src_off, len);
        EXPECT_EQ(dst, expect) << "src_off=" << src_off
                               << " dst_off=" << dst_off << " len=" << len;
      }
    }
  }
}

TEST(CopyBits, PreservesBitsOutsideRange) {
  BitVector dst(200);
  dst.fill(true);
  BitVector src(100);  // all zero
  copy_bits(dst.words(), 50, src.words(), 10, 40);
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_EQ(dst.get(i), i < 50 || i >= 90) << i;
}

TEST(CopyBits, BoundsChecked) {
  BitVector dst(128), src(128);
  EXPECT_THROW(copy_bits(dst.words(), 100, src.words(), 0, 29), Error);
  EXPECT_THROW(copy_bits(dst.words(), 0, src.words(), 100, 29), Error);
  EXPECT_NO_THROW(copy_bits(dst.words(), 100, src.words(), 99, 28));
}

TEST(CopyBits, RejectsOverlappingRanges) {
  Rng rng(73);
  auto v = BitVector::random(256, 0.5, rng);
  const auto orig = v;
  const auto w = v.words();
  // Same array, intersecting bit ranges: aligned, shifted, identical.
  EXPECT_THROW(copy_bits(w, 64, w, 0, 128), Error);
  EXPECT_THROW(copy_bits(w, 10, w, 0, 11), Error);
  EXPECT_THROW(copy_bits(w, 5, w, 5, 1), Error);
  // Different spans over one buffer still share storage.
  EXPECT_THROW(copy_bits(w.subspan(1), 0, w, 64, 64), Error);
  EXPECT_EQ(v, orig);  // a rejected copy writes nothing
  // Disjoint ranges of one array are fine, even inside one word.
  copy_bits(w, 10, w, 0, 10);
  copy_bits(w, 128, w, 0, 128);
  auto expect = orig;
  for (std::size_t i = 0; i < 10; ++i) expect.set(10 + i, orig.get(i));
  for (std::size_t i = 0; i < 128; ++i) expect.set(128 + i, expect.get(i));
  EXPECT_EQ(v, expect);
}

TEST(BitOpNames, AllNamed) {
  EXPECT_STREQ(to_string(BitOp::kOr), "OR");
  EXPECT_STREQ(to_string(BitOp::kAnd), "AND");
  EXPECT_STREQ(to_string(BitOp::kXor), "XOR");
  EXPECT_STREQ(to_string(BitOp::kInv), "INV");
}

}  // namespace
}  // namespace pinatubo
