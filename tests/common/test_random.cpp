#include "common/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"

namespace pinatubo {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_u64(17), 17u);
}

TEST(Rng, UniformU64CoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformU64RejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_u64(0), Error);
}

TEST(Rng, UniformIntInclusiveEnds) {
  Rng rng(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= v == -2;
    hi |= v == 2;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal(0.0, 0.3));
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 1.0, 0.05);
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng rng(23);
  Rng child = rng.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (rng.next() == child.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(InvNormalCdf, MatchesKnownQuantiles) {
  // Acklam's approximation: relative error < 1.2e-9.
  EXPECT_NEAR(inv_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inv_normal_cdf(0.975), 1.959963984540054, 1e-7);
  EXPECT_NEAR(inv_normal_cdf(0.025), -1.959963984540054, 1e-7);
  EXPECT_NEAR(inv_normal_cdf(0.841344746068543), 1.0, 1e-7);
  // Deep tails (the branch the batched kernel patches scalar).
  EXPECT_NEAR(inv_normal_cdf(1e-9), -5.997807015008182, 1e-5);
  EXPECT_NEAR(inv_normal_cdf(1.0 - 1e-9), 5.997807015008182, 1e-5);
  EXPECT_THROW(inv_normal_cdf(0.0), Error);
  EXPECT_THROW(inv_normal_cdf(1.0), Error);
}

TEST(CounterRng, DrawIsPureFunctionOfKeyStreamIndex) {
  const std::uint64_t base = CounterRng::stream_base(123, 4);
  CounterRng a(123, 4), b(123, 4);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t v = CounterRng::draw(base, i);
    EXPECT_EQ(a.next(), v);
    EXPECT_EQ(b.next(), v);
  }
}

TEST(CounterRng, OutOfOrderDrawsMatchSequential) {
  // The property the thread-pool sharding relies on: any evaluation order
  // of the indices yields the same values.
  const std::uint64_t base = CounterRng::stream_base(7, 0);
  std::vector<std::uint64_t> fwd, rev;
  for (std::uint64_t i = 0; i < 64; ++i) fwd.push_back(CounterRng::draw(base, i));
  for (std::uint64_t i = 64; i-- > 0;) rev.push_back(CounterRng::draw(base, i));
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(fwd, rev);
}

TEST(CounterRng, StreamsAreDecorrelated) {
  CounterRng a(99, 0), b(99, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(CounterRng, SplitDerivesIndependentChild) {
  CounterRng parent(55, 0);
  CounterRng child = parent.split(3);
  CounterRng again = CounterRng(55, 0).split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child.next(), again.next());
  EXPECT_NE(CounterRng(55, 0).split(4).base(), child.base());
}

TEST(CounterRng, UniformInOpenUnitInterval) {
  CounterRng rng(111, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, NormalMomentsMatch) {
  CounterRng rng(13, 0);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ZipfSampler, SkewsTowardHead) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20 * counts[99] / 2);
}

TEST(ZipfSampler, ThetaZeroIsUniform) {
  Rng rng(31);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 500);
}

TEST(ZipfSampler, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfSampler(0, 1.0), Error);
}

TEST(ZipfSampler, MatchesLowerBoundOracle) {
  // Inverse-CDF sampling by binary search over the same normalized CDF:
  // the sampler must return exactly this index for the same uniform draw,
  // so every generated workload stays bit-identical to the search-based
  // definition.
  for (const std::size_t n : {1u, 2u, 3u, 100u, 65536u, 100000u}) {
    for (const double theta : {0.0, 0.5, 0.8, 1.0, 1.5, 3.0}) {
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf[i] = sum;
      }
      for (auto& v : cdf) v /= sum;

      const ZipfSampler zipf(n, theta);
      ASSERT_EQ(zipf.size(), n);
      Rng rng(n * 31 + static_cast<std::uint64_t>(theta * 10));
      Rng oracle_rng = rng;
      std::size_t mismatches = 0;
      for (int i = 0; i < 100000; ++i) {
        const double u = oracle_rng.uniform();
        auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        if (it == cdf.end()) --it;
        const auto want = static_cast<std::size_t>(it - cdf.begin());
        if (zipf.sample(rng) != want) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " theta=" << theta;
    }
  }
}

}  // namespace
}  // namespace pinatubo
