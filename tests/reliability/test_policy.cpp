// Policy parsing and validation: the fault.*/verify.*/retry.* config
// block must fail loudly on typos, bad enum values, and absurd ranges —
// a reliability campaign that silently runs a different experiment is
// worse than one that crashes.
#include "reliability/policy.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "common/error.hpp"

namespace pinatubo::reliability {
namespace {

Policy parse(const std::string& text) {
  return policy_from_config(Config::from_string(text));
}

/// The Error message thrown by `parse(text)`; empty when it doesn't throw.
std::string error_of(const std::string& text) {
  try {
    parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

TEST(Policy, DefaultsAreAllOff) {
  const Policy p = parse("");
  EXPECT_FALSE(p.fault.enabled);
  EXPECT_EQ(p.verify.sense, SenseVerify::kNone);
  EXPECT_EQ(p.verify.writes, WriteVerify::kNone);
  EXPECT_FALSE(p.detection_enabled());
  EXPECT_FALSE(p.spares_needed());
}

TEST(Policy, EnablingFaultsDefaultsToExactDetection) {
  // Safety first: faults on with no verify mode given means read-back on
  // both paths — campaigns de-tune detection explicitly.
  const Policy p = parse("fault.enabled = true\n");
  EXPECT_TRUE(p.fault.enabled);
  EXPECT_EQ(p.verify.sense, SenseVerify::kReadback);
  EXPECT_EQ(p.verify.writes, WriteVerify::kReadback);
  EXPECT_TRUE(p.detection_enabled());
  EXPECT_TRUE(p.spares_needed());
}

TEST(Policy, ExplicitModesRespected) {
  const Policy p = parse(
      "fault.enabled = true\n"
      "fault.sense_ber = 1e-4\n"
      "verify.sense = double\n"
      "verify.writes = parity\n"
      "retry.max_resense = 5\n"
      "retry.deescalate = false\n"
      "retry.remap = false\n"
      "retry.spare_rows = 9\n");
  EXPECT_EQ(p.verify.sense, SenseVerify::kDouble);
  EXPECT_EQ(p.verify.writes, WriteVerify::kParity);
  EXPECT_DOUBLE_EQ(p.fault.sense_ber, 1e-4);
  EXPECT_EQ(p.retry.max_resense, 5u);
  EXPECT_FALSE(p.retry.deescalate);
  EXPECT_FALSE(p.retry.remap);
  EXPECT_EQ(p.retry.spare_rows, 9u);
  // Detection without remap must not reserve spares.
  EXPECT_TRUE(p.detection_enabled());
  EXPECT_FALSE(p.spares_needed());
}

TEST(Policy, UnknownReliabilityKeysRejectedWithClearMessage) {
  // The typo'd key itself and the list of valid keys must both appear.
  const std::string msg = error_of("fault.stuck_rat = 1e-5\n");
  EXPECT_NE(msg.find("fault.stuck_rat"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fault.stuck_rate"), std::string::npos) << msg;
  EXPECT_FALSE(error_of("verify.mode = readback\n").empty());
  EXPECT_FALSE(error_of("retry.max_resens = 3\n").empty());
}

TEST(Policy, UnrelatedKeysPassThrough) {
  // Only the three reliability prefixes are validated here; machine keys
  // (tech, max_rows, geometry.*) belong to other parsers.
  EXPECT_NO_THROW(parse("tech = pcm\nmax_rows = 8\nthreads = 2\n"));
}

TEST(Policy, BadEnumValuesRejected) {
  EXPECT_THROW(parse("verify.sense = always\n"), Error);
  EXPECT_THROW(parse("verify.writes = ecc\n"), Error);
}

TEST(Policy, RatesMustLieInUnitInterval) {
  EXPECT_THROW(parse("fault.sense_ber = 1.5\n"), Error);
  EXPECT_THROW(parse("fault.stuck_rate = -0.1\n"), Error);
  EXPECT_THROW(parse("fault.wearout_rate = 2\n"), Error);
  EXPECT_NO_THROW(parse("fault.sense_ber = 1.0\n"));
  EXPECT_NO_THROW(parse("fault.sense_ber = 0\n"));
}

TEST(Policy, NonFiniteValuesRejectedWithTheirKey) {
  // An infinite drift makes 1 + inf*0 NaN, and min(1, NaN) then flips
  // every sensed bit; inf/nan never reach the fault model.
  for (const char* text :
       {"fault.drift_rate = inf\n", "fault.drift_rate = infinity\n",
        "fault.endurance_cycles = inf\n", "fault.endurance_cycles = NaN\n",
        "fault.sense_ber = nan\n", "fault.wearout_rate = -INF\n"}) {
    const std::string msg = error_of(text);
    const std::string key(text, std::string(text).find(' '));
    EXPECT_NE(msg.find(key), std::string::npos) << text << ": " << msg;
  }
  EXPECT_NO_THROW(parse("fault.drift_rate = 1e300\n"));
}

TEST(Policy, SaneCapsEnforced) {
  EXPECT_THROW(parse("retry.max_resense = 1001\n"), Error);
  EXPECT_THROW(parse("retry.spare_rows = 65\n"), Error);
  EXPECT_NO_THROW(parse("retry.max_resense = 1000\n"));
  EXPECT_NO_THROW(parse("retry.spare_rows = 64\n"));
}

TEST(Policy, DescribeShowsTheActivePolicy) {
  const Policy p = parse(
      "fault.enabled = true\n"
      "fault.sense_ber = 1e-5\n"
      "verify.sense = readback\n");
  bool saw_ber = false, saw_sense = false, saw_spares = false;
  for (const auto& [k, v] : describe(p)) {
    if (k == "fault.sense_ber") saw_ber = v == "1e-05";
    if (k == "verify.sense") saw_sense = v == "readback";
    if (k == "retry.spare_rows") saw_spares = true;
  }
  EXPECT_TRUE(saw_ber);
  EXPECT_TRUE(saw_sense);
  EXPECT_TRUE(saw_spares);
  // With everything off, the fault/retry detail rows disappear.
  EXPECT_LT(describe(Policy{}).size(), describe(p).size());
}

TEST(Policy, EnumToStringRoundTrips) {
  EXPECT_STREQ(to_string(SenseVerify::kDouble), "double");
  EXPECT_STREQ(to_string(WriteVerify::kParity), "parity");
  EXPECT_STREQ(to_string(SenseVerify::kNone), "none");
}

}  // namespace
}  // namespace pinatubo::reliability
