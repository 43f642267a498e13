#include "nvm/energy_model.hpp"

#include "common/error.hpp"

namespace pinatubo::nvm {

ArrayEnergyModel::ArrayEnergyModel(const CellParams& cell) : cell_(&cell) {}

double ArrayEnergyModel::activate_row_pj() const {
  return kDecodePjPerRow + kWordlinePjPerRow;
}

double ArrayEnergyModel::sense_pj(std::uint64_t bits, unsigned open_rows,
                                  double t_sense_ns) const {
  PIN_CHECK(open_rows >= 1);
  PIN_CHECK(t_sense_ns > 0.0);
  // Average bitline conductance at ~50% data density.
  const double g_avg =
      0.5 * (1.0 / cell_->r_low_ohm + 1.0 / cell_->r_high_ohm) *
      static_cast<double>(open_rows);
  const double v = cell_->read_voltage_v;
  // P = V^2 G (watts); E = P * t; watts * ns = 1e3 pJ... careful:
  // V^2*G is in watts; 1 W over 1 ns = 1e-9 J = 1e3 pJ.
  const double bl_pj_per_bit = v * v * g_avg * t_sense_ns * 1e3;
  return static_cast<double>(bits) * (kSaBiasPjPerBit + bl_pj_per_bit);
}

double ArrayEnergyModel::write_pj(std::uint64_t ones,
                                  std::uint64_t zeros) const {
  return static_cast<double>(ones) * cell_->set_energy_pj +
         static_cast<double>(zeros) * cell_->reset_energy_pj;
}

}  // namespace pinatubo::nvm
