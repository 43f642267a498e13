#include "mem/energy.hpp"

#include <algorithm>
#include <string_view>

namespace pinatubo::mem {
namespace {

constexpr std::array<std::string_view, kEnergyCount> kEnergyNames = {
    "acpim.logic",      "acpim.read",      "acpim.write",   "bus.io",
    "cpu.L1",           "cpu.L2",          "cpu.L3",        "cpu.core",
    "ctrl.cmd",         "dram.act",        "mem.read",      "mem.write",
    "pim.activate",     "pim.buffer.logic", "pim.buffer.read",
    "pim.buffer.wb",    "pim.sense",       "pim.write",
};

constexpr bool names_in_byte_order() {
  for (std::size_t i = 1; i < kEnergyNames.size(); ++i)
    if (!(kEnergyNames[i - 1] < kEnergyNames[i])) return false;
  return true;
}
// total_pj() sums in declaration order; this keeps it the name order.
static_assert(names_in_byte_order(),
              "Energy enumerators must be declared in their names' order");
static_assert(static_cast<std::size_t>(Energy::kPimWrite) + 1 == kEnergyCount);
static_assert(kEnergyCount <= 32, "presence mask is 32 bits");

}  // namespace

const char* to_string(Energy e) {
  return kEnergyNames[static_cast<std::size_t>(e)].data();
}

std::optional<Energy> energy_from_string(const std::string& name) {
  const auto it =
      std::lower_bound(kEnergyNames.begin(), kEnergyNames.end(), name);
  if (it == kEnergyNames.end() || *it != name) return std::nullopt;
  return static_cast<Energy>(it - kEnergyNames.begin());
}

void EnergyCounter::merge(const EnergyCounter& other) {
  // Adding an uncharged component's +0.0 leaves every sum bit-identical.
  for (std::size_t i = 0; i < kEnergyCount; ++i) pj_[i] += other.pj_[i];
  present_ |= other.present_;
}

double EnergyCounter::total_pj() const {
  double t = 0;
  for (const double v : pj_) t += v;
  return t;
}

double EnergyCounter::get(const std::string& component) const {
  const auto e = energy_from_string(component);
  return e ? pj_[static_cast<std::size_t>(*e)] : 0.0;
}

std::map<std::string, double> EnergyCounter::components() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < kEnergyCount; ++i)
    if (present_ >> i & 1u) out.emplace(kEnergyNames[i], pj_[i]);
  return out;
}

}  // namespace pinatubo::mem
