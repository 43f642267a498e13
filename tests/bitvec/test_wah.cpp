#include "bitvec/wah.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/error.hpp"

namespace pinatubo {
namespace {

TEST(Wah, RoundTripSimple) {
  const auto v = BitVector::from_string("101100111000");
  const auto w = WahBitmap::compress(v);
  EXPECT_EQ(w.decompress(), v);
  EXPECT_EQ(w.size_bits(), 12u);
}

TEST(Wah, CompressesRuns) {
  // 10k zeros with a couple of set bits: tiny compressed form.
  BitVector v(10000);
  v.set(5000);
  const auto w = WahBitmap::compress(v);
  EXPECT_LT(w.word_count(), 8u);
  EXPECT_LT(w.compression_ratio(), 0.05);
  EXPECT_EQ(w.decompress(), v);
}

TEST(Wah, AllOnesCompresses) {
  BitVector v(31 * 100);
  v.fill(true);
  const auto w = WahBitmap::compress(v);
  EXPECT_EQ(w.word_count(), 1u);  // one fill word, run 100
  EXPECT_EQ(w.decompress(), v);
  EXPECT_EQ(w.popcount(), v.size());
}

TEST(Wah, RandomDataBarelyCompresses) {
  Rng rng(3);
  const auto v = BitVector::random(10000, 0.5, rng);
  const auto w = WahBitmap::compress(v);
  EXPECT_GT(w.compression_ratio(), 0.9);  // literals + 3% group overhead
  EXPECT_EQ(w.decompress(), v);
}

TEST(Wah, PopcountMatchesAcrossTails) {
  Rng rng(5);
  for (const std::size_t bits : {1u, 30u, 31u, 32u, 62u, 1000u, 4096u}) {
    for (const double d : {0.0, 0.01, 0.5, 1.0}) {
      const auto v = BitVector::random(bits, d, rng);
      const auto w = WahBitmap::compress(v);
      EXPECT_EQ(w.popcount(), v.popcount()) << bits << "/" << d;
    }
  }
}

class WahProps
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(WahProps, OpsMatchUncompressed) {
  const auto [bits, density] = GetParam();
  Rng rng(bits * 31 + static_cast<std::uint64_t>(density * 100));
  const auto a = BitVector::random(bits, density, rng);
  const auto b = BitVector::random(bits, 1.0 - density, rng);
  const auto wa = WahBitmap::compress(a);
  const auto wb = WahBitmap::compress(b);
  EXPECT_EQ(WahBitmap::logical_and(wa, wb).decompress(), (a & b));
  EXPECT_EQ(WahBitmap::logical_or(wa, wb).decompress(), (a | b));
  EXPECT_EQ(WahBitmap::logical_xor(wa, wb).decompress(), (a ^ b));
  EXPECT_EQ(wa.logical_not().decompress(), ~a);
}

TEST_P(WahProps, OpsStayCanonical) {
  // Results of compressed ops must themselves be well-formed WAH
  // (re-compressing the decompressed result gives the identical encoding).
  const auto [bits, density] = GetParam();
  Rng rng(bits * 7 + 1);
  const auto a = BitVector::random(bits, density, rng);
  const auto b = BitVector::random(bits, density, rng);
  const auto r = WahBitmap::logical_or(WahBitmap::compress(a),
                                       WahBitmap::compress(b));
  EXPECT_EQ(r, WahBitmap::compress(r.decompress()));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, WahProps,
    ::testing::Combine(::testing::Values<std::size_t>(1, 31, 62, 93, 1000,
                                                      4096, 100000),
                       ::testing::Values(0.001, 0.05, 0.5, 0.999)));

TEST(Wah, SizeMismatchThrows) {
  const auto a = WahBitmap::compress(BitVector(100));
  const auto b = WahBitmap::compress(BitVector(101));
  EXPECT_THROW(WahBitmap::logical_and(a, b), Error);
}

TEST(Wah, RoundTripFuzz) {
  // Random densities crossed with sizes that land just before / on / just
  // after 31-bit group boundaries (partial trailing groups included).
  Rng rng(2026);
  const std::size_t sizes[] = {1,   30,   31,   32,   61,  62,
                               63,  92,   93,   94,   961, 992,
                               993, 1023, 4095, 4097, 99937};
  const double densities[] = {0.0, 0.01, 0.5, 0.99, 1.0};
  for (const std::size_t bits : sizes) {
    for (const double d : densities) {
      const auto v = BitVector::random(bits, d, rng);
      const auto w = WahBitmap::compress(v);
      EXPECT_EQ(w.decompress(), v) << bits << "/" << d;
      EXPECT_EQ(w.popcount(), v.popcount()) << bits << "/" << d;
    }
  }
}

TEST(Wah, DecoderDoneIsExact) {
  // done() flips exactly when the last encoded group is consumed — not a
  // group early (mid-run) and not a group late.
  Rng rng(99);
  for (const std::size_t bits : {1u, 31u, 62u, 63u, 310u, 1000u}) {
    for (const double d : {0.0, 0.5, 1.0}) {
      const auto w = WahBitmap::compress(BitVector::random(bits, d, rng));
      WahBitmap::Decoder dec(w);
      const std::size_t groups =
          (bits + WahBitmap::kGroupBits - 1) / WahBitmap::kGroupBits;
      for (std::size_t g = 0; g < groups; ++g) {
        EXPECT_FALSE(dec.done()) << bits << "/" << d << " group " << g;
        dec.next();
      }
      EXPECT_TRUE(dec.done()) << bits << "/" << d;
      EXPECT_THROW(dec.next(), Error);
    }
  }
}

TEST(Wah, FromWordsAcceptsNonCanonicalFills) {
  // Adjacent same-value fills and all-zero literals never come out of
  // compress(), but readers must handle them (e.g. streams written by
  // other WAH implementations).  4 groups: 0-fill(2) + 0-fill(1) + literal.
  const std::uint32_t kFill0 = WahBitmap::kFillFlag;
  const auto w = WahBitmap::from_words(
      4 * WahBitmap::kGroupBits, {kFill0 | 2u, kFill0 | 1u, 0x12345678u});
  BitVector expect(4 * WahBitmap::kGroupBits);
  for (unsigned i = 0; i < WahBitmap::kGroupBits; ++i)
    if ((0x12345678u >> i) & 1u) expect.set(3 * WahBitmap::kGroupBits + i);
  EXPECT_EQ(w.decompress(), expect);
  EXPECT_EQ(w.popcount(), expect.popcount());
  // Recompressing yields the canonical form: one merged fill word.
  const auto canonical = WahBitmap::compress(w.decompress());
  EXPECT_EQ(canonical.word_count(), 2u);
  EXPECT_EQ(canonical.words()[0], kFill0 | 3u);
}

TEST(Wah, MaxRunFillPopcount) {
  // A single fill word at the encoding's run-length ceiling covers
  // kMaxRun * 31 ≈ 3.3e10 bits — unreachable through compress() (the
  // input wouldn't fit in memory) but valid WAH.  Popcount must stay
  // run-aware (O(words), not O(groups)) and accumulate in 64 bits.
  const std::uint64_t bits =
      std::uint64_t{WahBitmap::kMaxRun} * WahBitmap::kGroupBits;
  const auto ones = WahBitmap::from_words(
      bits, {WahBitmap::kFillFlag | WahBitmap::kFillValue | WahBitmap::kMaxRun});
  EXPECT_EQ(ones.popcount(), bits);  // > 2^32: would wrap a 32-bit count
  // Same run ending on a partial tail group: the correction is applied.
  const auto tail = WahBitmap::from_words(
      bits - 30,
      {WahBitmap::kFillFlag | WahBitmap::kFillValue | WahBitmap::kMaxRun});
  EXPECT_EQ(tail.popcount(), bits - 30);
}

TEST(Wah, FromWordsValidates) {
  // Word stream must cover exactly ceil(bits/31) groups.
  EXPECT_THROW(WahBitmap::from_words(62, {0u}), Error);        // too few
  EXPECT_THROW(WahBitmap::from_words(31, {0u, 0u}), Error);    // too many
  // A fill word with run 0 encodes nothing and is malformed.
  EXPECT_THROW(WahBitmap::from_words(0, {WahBitmap::kFillFlag}), Error);
  // Exact cover is fine, including an empty bitmap.
  EXPECT_EQ(WahBitmap::from_words(0, {}).decompress(), BitVector(0));
  EXPECT_EQ(WahBitmap::from_words(62, {0u, 0u}).decompress(), BitVector(62));
}

TEST(Wah, FromWordsRejectsWrappingBitCounts) {
  // bits + 30 wraps past 2^64 - 1 for every count above kMaxBits; the
  // wrapped group count would make a tiny word stream look like a full
  // cover of an astronomically large bitmap.
  constexpr std::uint64_t kMax = ~0ull;
  EXPECT_EQ(WahBitmap::kMaxBits, kMax - 30);
  EXPECT_THROW(WahBitmap::from_words(kMax, {}), Error);
  EXPECT_THROW(WahBitmap::from_words(kMax, {0u}), Error);
  EXPECT_THROW(WahBitmap::from_words(WahBitmap::kMaxBits + 1, {}), Error);
  // The largest accepted count rounds up without wrapping, so the empty
  // stream is rejected for covering too few groups, not accepted.
  EXPECT_THROW(WahBitmap::from_words(WahBitmap::kMaxBits, {}), Error);
  try {
    WahBitmap::from_words(kMax, {});
    FAIL() << "accepted a wrapping bit count";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(Wah, SparseBitmapIndexScale) {
  // A sparse FastBit bin bitmap (tail bin, ~2% density) over 2^20 rows:
  // enough all-zero 31-bit groups to compress well below 1.0.
  Rng rng(11);
  const auto v = BitVector::random(1 << 20, 0.02, rng);
  const auto w = WahBitmap::compress(v);
  EXPECT_LT(w.compression_ratio(), 0.8);
  EXPECT_EQ(w.popcount(), v.popcount());
  // Uniform 7% density is the break-even zone: WAH stops paying off,
  // which is itself the behaviour FastBit documents.
  const auto dense = BitVector::random(1 << 20, 0.07, rng);
  EXPECT_GT(WahBitmap::compress(dense).compression_ratio(), 0.8);
}

}  // namespace
}  // namespace pinatubo
