#include "circuit/lwl_driver.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pinatubo::circuit {

LwlDriverArray::LwlDriverArray(std::size_t rows) : latched_(rows, false) {
  PIN_CHECK(rows > 0);
}

void LwlDriverArray::reset() {
  std::fill(latched_.begin(), latched_.end(), false);
  active_count_ = 0;
}

void LwlDriverArray::decode(std::size_t row) {
  PIN_CHECK_MSG(row < latched_.size(),
                "row " << row << " out of " << latched_.size());
  if (!latched_[row]) {
    latched_[row] = true;
    ++active_count_;
  }
}

bool LwlDriverArray::is_active(std::size_t row) const {
  PIN_CHECK(row < latched_.size());
  return latched_[row];
}

std::vector<std::size_t> LwlDriverArray::active_rows() const {
  std::vector<std::size_t> rows;
  rows.reserve(active_count_);
  for (std::size_t i = 0; i < latched_.size(); ++i)
    if (latched_[i]) rows.push_back(i);
  return rows;
}

LwlTransient simulate_lwl_transient(std::size_t n_drivers,
                                    std::vector<LwlEvent> events,
                                    double duration_ns, double vdd_v) {
  PIN_CHECK(n_drivers >= 1);
  for (const auto& e : events)
    PIN_CHECK_MSG(e.driver >= -1 && e.driver < static_cast<int>(n_drivers),
                  "bad driver index " << e.driver);

  TransientCircuit ckt;
  const auto vdd = ckt.add_rail("VDD", vdd_v);
  const auto gnd = ckt.add_rail("GND", 0.0);
  // Stimulus nodes (driven through low-impedance switches).
  const auto reset_node = ckt.add_node("RESET", 5e-15, 0.0);
  const auto sw_reset_hi = ckt.add_switch(vdd, reset_node, 1e3);
  const auto sw_reset_lo = ckt.add_switch(gnd, reset_node, 1e3, true);

  struct Driver {
    TransientCircuit::NodeId in, mid, wl, dec;
    TransientCircuit::ElemId sw_dec_hi, sw_dec_lo;  // decode pulse drive
    TransientCircuit::ElemId sw_pass;               // address pass-gate
    TransientCircuit::ElemId sw_feedback;           // latch transistor
    TransientCircuit::ElemId sw_reset;              // input-ground transistor
  };
  std::vector<Driver> drv(n_drivers);
  for (std::size_t i = 0; i < n_drivers; ++i) {
    std::string sfx(1, '_');
    sfx += std::to_string(i);
    auto& d = drv[i];
    d.dec = ckt.add_node("DEC" + sfx, 5e-15, 0.0);
    d.in = ckt.add_node("IN" + sfx, 5e-15, 0.0);
    d.mid = ckt.add_node("MID" + sfx, 5e-15, vdd_v);
    // The wordline is the heavy load (a full row of access-gate poly).
    d.wl = ckt.add_node("WL" + sfx, 50e-15, 0.0);
    // Decode pulse: connects the decoded-address node high/low.
    d.sw_dec_hi = ckt.add_switch(vdd, d.dec, 2e3);
    d.sw_dec_lo = ckt.add_switch(gnd, d.dec, 2e3, true);
    // Address pass device into the driver input; conducts only while this
    // row's address is decoded.
    d.sw_pass = ckt.add_switch(d.dec, d.in, 5e3);
    // Inverter chain: IN -> MID -> WL.
    ckt.add_inverter(d.in, d.mid, vdd, gnd, 3e3, vdd_v / 2);
    ckt.add_inverter(d.mid, d.wl, vdd, gnd, 1.5e3, vdd_v / 2);
    // Added transistor 1: feedback latch (VDD into IN while WL is high).
    d.sw_feedback = ckt.add_switch(vdd, d.in, 8e3);
    // Added transistor 2: forces IN to ground during RESET.
    d.sw_reset = ckt.add_switch(gnd, d.in, 1e3);
    // Leaks to keep matrices non-singular.
    ckt.add_resistor(d.in, gnd, 1e12);
    ckt.add_resistor(d.wl, gnd, 1e12);
  }

  auto pulse_active = [&](int driver, double t) {
    for (const auto& e : events)
      if (e.driver == driver && t >= e.t_ns && t < e.t_ns + e.width_ns)
        return true;
    return false;
  };

  LwlTransient out;
  ckt.bind_waveform(&out.waveform);
  ckt.run(duration_ns, 0.001, &out.waveform, [&](double t) {
    const bool rst = pulse_active(-1, t);
    ckt.set_switch(sw_reset_hi, rst);
    ckt.set_switch(sw_reset_lo, !rst);
    for (std::size_t i = 0; i < n_drivers; ++i) {
      const bool dec = pulse_active(static_cast<int>(i), t);
      ckt.set_switch(drv[i].sw_dec_hi, dec);
      ckt.set_switch(drv[i].sw_dec_lo, !dec);
      ckt.set_switch(drv[i].sw_pass, dec);
      // The two added transistors, gated by WL and RESET respectively.
      ckt.set_switch(drv[i].sw_feedback,
                     ckt.voltage(drv[i].wl) > vdd_v / 2 && !rst);
      ckt.set_switch(drv[i].sw_reset, rst);
    }
  });

  out.final_states.reserve(n_drivers);
  for (const auto& d : drv)
    out.final_states.push_back(ckt.voltage(d.wl) > vdd_v / 2);
  return out;
}

}  // namespace pinatubo::circuit
