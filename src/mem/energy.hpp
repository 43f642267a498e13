// Energy/time accounting shared by every backend.
//
// `EnergyCounter` accumulates picojoules per component so reports can show
// where the energy went (activation vs sensing vs writes vs bus vs CPU).
// `Cost` is the (time, energy) pair each backend returns per op or workload.
//
// The component set is closed: `Energy` lists every term any backend
// charges, declared in the byte order of their names.  The counter is a
// fixed array indexed by the enum, so pricing a step allocates nothing, and
// sums run in name order — the order a name-keyed map would iterate — so
// totals do not depend on how the table is stored.  To add a component,
// insert its enumerator at its name's sorted position and its name at the
// same position in `kEnergyNames` (energy.cpp); a static_assert there
// rejects a table out of order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/error.hpp"

namespace pinatubo::mem {

enum class Energy : std::uint8_t {
  kAcpimLogic,      ///< "acpim.logic"       AC-PIM's buffer logic
  kAcpimRead,       ///< "acpim.read"        AC-PIM's operand reads
  kAcpimWrite,      ///< "acpim.write"       AC-PIM's result writes
  kBusIo,           ///< "bus.io"            DDR bus transfers
  kCpuL1,           ///< "cpu.L1"            host cache hits, per level
  kCpuL2,           ///< "cpu.L2"
  kCpuL3,           ///< "cpu.L3"
  kCpuCore,         ///< "cpu.core"          host core power x time
  kCtrlCmd,         ///< "ctrl.cmd"          memory-controller commands
  kDramAct,         ///< "dram.act"          S-DRAM row activations
  kMemRead,         ///< "mem.read"          host streaming reads
  kMemWrite,        ///< "mem.write"         host streaming writes
  kPimActivate,     ///< "pim.activate"      multi-row wordline activation
  kPimBufferLogic,  ///< "pim.buffer.logic"  global/IO buffer logic
  kPimBufferRead,   ///< "pim.buffer.read"   operand reads into the buffer
  kPimBufferWb,     ///< "pim.buffer.wb"     buffer writeback over the GDL
  kPimSense,        ///< "pim.sense"         sense amplifiers
  kPimWrite,        ///< "pim.write"         SET/RESET write drivers
};
inline constexpr std::size_t kEnergyCount = 18;

/// The component's report name, e.g. "pim.sense".
const char* to_string(Energy e);
/// The component named `name`; nullopt for a name outside the set.
std::optional<Energy> energy_from_string(const std::string& name);

class EnergyCounter {
 public:
  /// Charges `pj` (>= 0) to `component`; a component charged 0 pJ is still
  /// listed by components().
  void add(Energy component, double pj) {
    PIN_CHECK_MSG(pj >= 0.0, to_string(component) << " energy " << pj
                                                   << " < 0");
    const auto i = static_cast<std::size_t>(component);
    pj_[i] += pj;
    present_ |= 1u << i;
  }
  void merge(const EnergyCounter& other);
  double total_pj() const;
  double get(const std::string& component) const;  ///< 0 if absent
  /// Every component charged so far, by name (report path, not hot).
  std::map<std::string, double> components() const;

 private:
  std::array<double, kEnergyCount> pj_{};
  std::uint32_t present_ = 0;  ///< bit i: component i was charged
};

/// The unit of comparison across backends.
struct Cost {
  double time_ns = 0.0;
  EnergyCounter energy;

  /// Serial composition: times add.
  Cost& operator+=(const Cost& o) {
    time_ns += o.time_ns;
    energy.merge(o.energy);
    return *this;
  }
};

}  // namespace pinatubo::mem
