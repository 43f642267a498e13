#include "nvm/energy_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/pim_params.hpp"

namespace pinatubo::nvm {
namespace {

class EnergyModelTest : public ::testing::Test {
 protected:
  ArrayEnergyModel model_{cell_params(Tech::kPcm)};
};

TEST_F(EnergyModelTest, ActivationIsPerRowConstant) {
  EXPECT_GT(model_.activate_row_pj(), 0);
  EXPECT_LT(model_.activate_row_pj(), 100);  // a few pJ, not nJ
}

TEST_F(EnergyModelTest, SenseScalesWithBits) {
  const double e1 = model_.sense_pj(1000, 2, 8.9);
  const double e2 = model_.sense_pj(2000, 2, 8.9);
  EXPECT_NEAR(e2 / e1, 2.0, 1e-9);
}

TEST_F(EnergyModelTest, SenseGrowsWithOpenRows) {
  EXPECT_GT(model_.sense_pj(1000, 128, 8.9), model_.sense_pj(1000, 2, 8.9));
}

TEST_F(EnergyModelTest, SenseRejectsBadArgs) {
  EXPECT_THROW(model_.sense_pj(10, 0, 8.9), Error);
  EXPECT_THROW(model_.sense_pj(10, 2, 0.0), Error);
}

TEST_F(EnergyModelTest, WriteUsesSetResetMix) {
  const auto& c = cell_params(Tech::kPcm);
  EXPECT_DOUBLE_EQ(model_.write_pj(10, 0), 10 * c.set_energy_pj);
  EXPECT_DOUBLE_EQ(model_.write_pj(0, 10), 10 * c.reset_energy_pj);
  EXPECT_DOUBLE_EQ(model_.write_pj(3, 7),
                   3 * c.set_energy_pj + 7 * c.reset_energy_pj);
}

TEST_F(EnergyModelTest, IoDominatesOnChipMovement) {
  // The PIM argument: off-chip I/O energy per bit exceeds internal
  // movement.  A buffer-path step (sim::BufferPathParams, the constants that
  // price AC-PIM and Pinatubo's inter-subarray steps) moves each bit over the
  // GDL in and back, latches and evaluates it; the bus costs more than all
  // of that.
  const sim::BufferPathParams path;
  EXPECT_GT(model_.io_pj(1), 2 * path.gdl_pj_per_bit +
                                 path.latch_pj_per_bit +
                                 path.logic_pj_per_bit);
  EXPECT_GT(path.gdl_pj_per_bit, path.logic_pj_per_bit);
}

TEST_F(EnergyModelTest, AnalogSensingBeatsDigitalPerOp) {
  // Per processed bit, the analog sense (the Pinatubo path) must be within
  // the same order as a logic evaluation and far below I/O.
  const double sense_per_bit = model_.sense_pj(1, 2, 8.9);
  EXPECT_LT(sense_per_bit, 1.0);
  EXPECT_LT(sense_per_bit, model_.io_pj(1));
}

TEST_F(EnergyModelTest, WriteDominatesReadPerBit) {
  // NVM asymmetry: writes cost orders more than sensing.
  EXPECT_GT(model_.write_pj(1, 0), 10 * model_.sense_pj(1, 1, 8.9));
}

}  // namespace
}  // namespace pinatubo::nvm
