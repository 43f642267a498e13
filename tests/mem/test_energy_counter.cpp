#include "mem/energy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"

namespace pinatubo::mem {
namespace {

constexpr Energy kAll[] = {
    Energy::kAcpimLogic,     Energy::kAcpimRead,     Energy::kAcpimWrite,
    Energy::kBusIo,          Energy::kCpuL1,         Energy::kCpuL2,
    Energy::kCpuL3,          Energy::kCpuCore,       Energy::kCtrlCmd,
    Energy::kDramAct,        Energy::kMemRead,       Energy::kMemWrite,
    Energy::kPimActivate,    Energy::kPimBufferLogic, Energy::kPimBufferRead,
    Energy::kPimBufferWb,    Energy::kPimSense,      Energy::kPimWrite,
};
static_assert(std::size(kAll) == kEnergyCount);

/// The reference the counter must reproduce: an open name -> pJ map,
/// summed in its own (name) order.
struct Oracle {
  std::map<std::string, double> parts;

  void add(Energy e, double pj) { parts[to_string(e)] += pj; }
  void merge(const Oracle& o) {
    for (const auto& [k, v] : o.parts) parts[k] += v;
  }
  double total_pj() const {
    double t = 0;
    for (const auto& [k, v] : parts) t += v;
    return t;
  }
};

/// Bit-exact comparison (tells +0.0 from -0.0).
void expect_same(const EnergyCounter& c, const Oracle& o) {
  const auto got = c.components();
  ASSERT_EQ(got.size(), o.parts.size());
  for (auto g = got.begin(), w = o.parts.begin(); g != got.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g->second),
              std::bit_cast<std::uint64_t>(w->second))
        << g->first;
  }
  for (const Energy e : kAll) {
    const auto it = o.parts.find(to_string(e));
    const double want = it == o.parts.end() ? 0.0 : it->second;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.get(to_string(e))),
              std::bit_cast<std::uint64_t>(want))
        << to_string(e);
  }
  EXPECT_EQ(c.get("no.such.component"), 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.total_pj()),
            std::bit_cast<std::uint64_t>(o.total_pj()));
}

/// Charges spanning zero, tiny, huge and full-mantissa magnitudes.
double random_pj(Rng& rng) {
  switch (rng.uniform_u64(5)) {
    case 0:
      return 0.0;
    case 1:
      return rng.uniform() * 1e-3;
    case 2:
      return rng.uniform() * 1e12;
    case 3:
      return std::ldexp(rng.uniform(), static_cast<int>(rng.uniform_u64(80)));
    default:
      return static_cast<double>(rng.uniform_u64(1000));
  }
}

TEST(Energy, CounterMatchesMapOracle) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<EnergyCounter> counters(4);
    std::vector<Oracle> oracles(4);
    const std::uint64_t steps = 1 + rng.uniform_u64(300);
    for (std::uint64_t s = 0; s < steps; ++s) {
      const std::size_t i = rng.uniform_u64(counters.size());
      if (rng.chance(0.2)) {
        const std::size_t j = rng.uniform_u64(counters.size());
        counters[i].merge(counters[j]);
        oracles[i].merge(oracles[j]);
      } else {
        // A few components per counter, so presence matters.
        const Energy e = kAll[rng.uniform_u64(i == 0 ? 3 : kEnergyCount)];
        const double pj = random_pj(rng);
        counters[i].add(e, pj);
        oracles[i].add(e, pj);
      }
    }
    for (std::size_t i = 0; i < counters.size(); ++i)
      expect_same(counters[i], oracles[i]);
  }
}

TEST(Energy, ZeroChargeStaysListed) {
  EnergyCounter c;
  EXPECT_TRUE(c.components().empty());
  c.add(Energy::kCpuL3, 0.0);
  EnergyCounter merged;
  merged.merge(c);
  for (const EnergyCounter* e : {&c, &merged}) {
    const auto parts = e->components();
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts.begin()->first, "cpu.L3");
    EXPECT_EQ(parts.begin()->second, 0.0);
    EXPECT_EQ(e->total_pj(), 0.0);
  }
}

TEST(Energy, NegativeChargeThrowsWithComponentName) {
  EnergyCounter c;
  try {
    c.add(Energy::kPimSense, -1.0);
    FAIL() << "negative charge accepted";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("pim.sense"), std::string::npos)
        << err.what();
  }
  EXPECT_THROW(c.add(Energy::kBusIo, std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_TRUE(c.components().empty());
}

TEST(Energy, NamesRoundTripInByteOrder) {
  for (std::size_t i = 0; i < kEnergyCount; ++i) {
    EXPECT_EQ(energy_from_string(to_string(kAll[i])), kAll[i]);
    if (i > 0) {
      EXPECT_LT(std::string(to_string(kAll[i - 1])),
                std::string(to_string(kAll[i])));
    }
  }
  EXPECT_EQ(energy_from_string("tamper"), std::nullopt);
  EXPECT_EQ(energy_from_string(""), std::nullopt);
  EXPECT_EQ(energy_from_string("pim.writeback"), std::nullopt);
}

}  // namespace
}  // namespace pinatubo::mem
