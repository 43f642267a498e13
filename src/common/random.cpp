#include "common/random.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace pinatubo {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// splitmix64: seeds the xoshiro state from a single 64-bit value.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is invalid for xoshiro; splitmix cannot produce four
  // zeros from any seed, but keep the guard for state-restoring callers.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  PIN_CHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PIN_CHECK_MSG(lo <= hi, "lo=" << lo << " hi=" << hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double a = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(a);
  has_cached_normal_ = true;
  return r * std::cos(a);
}

double Rng::normal(double mean, double sigma) {
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::fork() { return Rng(next() ^ 0xd2b74407b1ce6e93ull); }

namespace {

// Acklam's inverse normal CDF coefficients.
constexpr double kInvA[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
constexpr double kInvB[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
constexpr double kInvC[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
constexpr double kInvD[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};

/// Tail branch for p in (0, kInvNormalTailP): returns the (negative-side)
/// quantile magnitude's formula output for the lower tail.
inline double inv_normal_tail(double p) {
  const double q = std::sqrt(-2.0 * std::log(p));
  return (((((kInvC[0] * q + kInvC[1]) * q + kInvC[2]) * q + kInvC[3]) * q +
           kInvC[4]) *
              q +
          kInvC[5]) /
         ((((kInvD[0] * q + kInvD[1]) * q + kInvD[2]) * q + kInvD[3]) * q +
          1.0);
}

}  // namespace

double inv_normal_cdf(double u) {
  PIN_CHECK_MSG(u > 0.0 && u < 1.0, "u=" << u);
  constexpr double kTail = 0.02425;
  if (u < kTail) return inv_normal_tail(u);
  if (u > 1.0 - kTail) return -inv_normal_tail(1.0 - u);
  const double q = u - 0.5;
  const double r = q * q;
  const double num =
      (((((kInvA[0] * r + kInvA[1]) * r + kInvA[2]) * r + kInvA[3]) * r +
        kInvA[4]) *
           r +
       kInvA[5]) *
      q;
  const double den =
      ((((kInvB[0] * r + kInvB[1]) * r + kInvB[2]) * r + kInvB[3]) * r +
       kInvB[4]) *
          r +
      1.0;
  return num / den;
}

ZipfSampler::ZipfSampler(std::size_t n, double theta) {
  PIN_CHECK(n > 0);
  PIN_CHECK(theta >= 0.0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) v /= sum;
  // guide_[k] = first index whose CDF reaches k/m.  m is a power of two, so
  // k/m here and u*m in sample() are exact.
  const std::size_t m = std::bit_ceil(n);
  guide_.resize(m);
  std::size_t i = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(m);
    while (i + 1 < n && cdf_[i] < t) ++i;
    guide_[k] = i;
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  // u >= k/m, so the first index with CDF >= u is at or after guide_[k].
  const auto k = static_cast<std::size_t>(
      u * static_cast<double>(guide_.size()));
  std::size_t i = guide_[k];
  while (i + 1 < cdf_.size() && cdf_[i] < u) ++i;
  return i;
}

}  // namespace pinatubo
