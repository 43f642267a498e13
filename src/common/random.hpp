// Deterministic pseudo-random number generation for all simulators.
//
// A single engine (xoshiro256**) is used everywhere so experiments are
// reproducible bit-for-bit from a seed, independent of the standard library
// implementation.  Distribution helpers cover the needs of the models:
// uniform ints/reals, normal (for device variation), log-normal (resistance
// spreads), geometric-ish skew, and Zipf (database attribute values).
#pragma once

#include <cstdint>
#include <vector>

namespace pinatubo {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm),
/// re-implemented here; passes BigCrush and is far faster than mt19937_64.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  std::uint64_t next();

  // UniformRandomBitGenerator interface so <algorithm> shuffles work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t uniform_u64(std::uint64_t bound);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Uniform real in [0, 1).
  double uniform();
  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  /// Standard normal via Box–Muller (cached second value).
  double normal();
  /// Normal with mean/sigma.
  double normal(double mean, double sigma);
  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Bernoulli trial.
  bool chance(double p);
  /// Fork a statistically independent child stream (splitmix on the state).
  Rng fork();

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.2e-9 over (0, 1)).  The counter-based sampling paths
/// use it so one uniform maps to one normal with no carried state — the
/// property that makes per-word RNG streams order- and thread-independent.
double inv_normal_cdf(double u);

/// Counter-based (stateless-mix, splittable) random stream.
///
/// Draw i of stream s under key k is `mix(base(k, s) + i * gamma)` — a pure
/// function of (key, stream, index).  Parallel workers each derive their own
/// stream id (e.g. the word index of a row) and produce identical values no
/// matter how work is scheduled, which is the backbone of the analog-sensing
/// determinism contract (same seed => bit-identical results for any thread
/// count).  The mix is splitmix64's finalizer; each stream passes the same
/// statistical bar as the sequential generator it replaces.
class CounterRng {
 public:
  /// Weyl increment between consecutive draw indices (golden-ratio gamma).
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  /// splitmix64 finalizer — the statistical mixer behind every draw.
  /// Defined inline so the batched sensing kernels' per-lane draw loops
  /// vectorize instead of making one opaque call per lane.
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Stateless draw primitive: value of draw `index` for a stream `base`.
  static constexpr std::uint64_t draw(std::uint64_t base,
                                      std::uint64_t index) {
    return mix64(base + kGamma * (index + 1));
  }
  /// Derives the stream base for (key, stream).  Two mixing rounds
  /// decorrelate pairs that differ in only a few bits (adjacent word
  /// indices, consecutive epochs).
  static constexpr std::uint64_t stream_base(std::uint64_t key,
                                             std::uint64_t stream) {
    return mix64(mix64(key ^ 0xa0761d6478bd642full) + kGamma * stream);
  }

  CounterRng(std::uint64_t key, std::uint64_t stream = 0)
      : base_(stream_base(key, stream)) {}

  /// Sequential convenience interface over the counter.
  std::uint64_t next() { return draw(base_, counter_++); }
  /// Uniform real in the open interval (0, 1) — never exactly 0 or 1, so
  /// inv_normal_cdf stays finite.
  double uniform() { return to_unit(next()); }
  /// Standard normal via the inverse CDF (one draw per call, no cache).
  double normal() { return inv_normal_cdf(uniform()); }

  /// Child stream with an independent base (splittable construction).
  CounterRng split(std::uint64_t stream) const {
    CounterRng child(base_, stream);
    return child;
  }

  std::uint64_t base() const { return base_; }

  /// Maps a raw 64-bit draw into (0, 1).
  static double to_unit(std::uint64_t x) {
    return (static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// Zipf-distributed integers in [0, n) with exponent `theta`, by inverse
/// CDF: one uniform u per draw returns the first index whose CDF is >= u
/// (the last index if none).  A Chen–Asau guide table over m = bit_ceil(n)
/// equal slices of [0, 1) starts that search at the first index whose CDF
/// reaches floor(u*m)/m, so a draw scans O(1) CDF entries in expectation
/// after an O(n) build.  Used by the graph and bitmap-index generators.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta);
  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::size_t> guide_;
};

}  // namespace pinatubo
