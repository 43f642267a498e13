// Property-based sweeps over sizes and densities: boolean-algebra laws that
// must hold for every BitVector regardless of packing edge cases.
#include <gtest/gtest.h>

#include <tuple>

#include "bitvec/bitvector.hpp"

namespace pinatubo {
namespace {

class BitVectorProps
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {
 protected:
  std::size_t size() const { return std::get<0>(GetParam()); }
  double density() const { return std::get<1>(GetParam()); }
  Rng rng_{std::get<0>(GetParam()) * 1315423911u + 17};
};

TEST_P(BitVectorProps, DeMorgan) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), 1.0 - density(), rng_);
  EXPECT_EQ(~(a | b), (~a & ~b));
  EXPECT_EQ(~(a & b), (~a | ~b));
}

TEST_P(BitVectorProps, XorIsAddMod2) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), density(), rng_);
  EXPECT_EQ((a ^ b), ((a | b) & ~(a & b)));
  EXPECT_EQ((a ^ a).popcount(), 0u);
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST_P(BitVectorProps, OrAndIdempotentCommutative) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), density(), rng_);
  EXPECT_EQ((a | a), a);
  EXPECT_EQ((a & a), a);
  EXPECT_EQ((a | b), (b | a));
  EXPECT_EQ((a & b), (b & a));
}

TEST_P(BitVectorProps, AbsorptionAndDistribution) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), density(), rng_);
  const auto c = BitVector::random(size(), density(), rng_);
  EXPECT_EQ((a & (a | b)), a);
  EXPECT_EQ((a | (a & b)), a);
  EXPECT_EQ((a & (b | c)), ((a & b) | (a & c)));
}

TEST_P(BitVectorProps, PopcountInclusionExclusion) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), density(), rng_);
  EXPECT_EQ((a | b).popcount() + (a & b).popcount(),
            a.popcount() + b.popcount());
}

TEST_P(BitVectorProps, ComplementPopcount) {
  const auto a = BitVector::random(size(), density(), rng_);
  EXPECT_EQ(a.popcount() + (~a).popcount(), size());
}

TEST_P(BitVectorProps, AndNotIdentity) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), density(), rng_);
  EXPECT_EQ(BitVector::and_not(a, b), (a & ~b));
}

TEST_P(BitVectorProps, FindIterationMatchesPopcount) {
  const auto a = BitVector::random(size(), density(), rng_);
  std::size_t count = 0;
  for (std::size_t i = a.find_first(); i < a.size(); i = a.find_next(i))
    ++count;
  EXPECT_EQ(count, a.popcount());
}

TEST_P(BitVectorProps, StringRoundTrip) {
  const auto a = BitVector::random(size(), density(), rng_);
  EXPECT_EQ(BitVector::from_string(a.to_string()), a);
}

TEST_P(BitVectorProps, ReduceOrEqualsFold) {
  const auto a = BitVector::random(size(), density(), rng_);
  const auto b = BitVector::random(size(), density(), rng_);
  const auto c = BitVector::random(size(), density(), rng_);
  const auto d = BitVector::random(size(), density(), rng_);
  const BitVector* ops[] = {&a, &b, &c, &d};
  EXPECT_EQ(BitVector::reduce(BitOp::kOr, ops), (((a | b) | c) | d));
  EXPECT_EQ(BitVector::reduce(BitOp::kAnd, ops), (((a & b) & c) & d));
  EXPECT_EQ(BitVector::reduce(BitOp::kXor, ops), (((a ^ b) ^ c) ^ d));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, BitVectorProps,
    ::testing::Combine(
        // Word-boundary adversarial sizes plus larger blocks.
        ::testing::Values<std::size_t>(1, 63, 64, 65, 127, 128, 1000, 4096,
                                       16384),
        ::testing::Values(0.0, 0.03, 0.5, 0.97, 1.0)));

}  // namespace
}  // namespace pinatubo
