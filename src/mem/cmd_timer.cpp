#include "mem/cmd_timer.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pinatubo::mem {

ChannelTimer::ChannelTimer(unsigned n_banks, const BusParams& bus)
    : cmd_slot_ns_(bus.cmd_slot_ns), bytes_per_ns_(bus.data_gbps),
      banks_(n_banks, 0.0) {
  PIN_CHECK(n_banks >= 1);
  PIN_CHECK(bus.cmd_slot_ns > 0);
  PIN_CHECK(bus.data_gbps > 0);
}

double ChannelTimer::issue_after(unsigned bank, double ready_ns,
                                 double occupy_ns) {
  PIN_CHECK_MSG(bank < banks_.size(), "bank " << bank);
  PIN_CHECK(occupy_ns >= 0.0);
  PIN_CHECK(ready_ns >= 0.0);
  const double start = std::max({cmd_free_, banks_[bank], ready_ns});
  cmd_free_ = start + cmd_slot_ns_;
  banks_[bank] = start + std::max(occupy_ns, cmd_slot_ns_);
  return banks_[bank];
}

double ChannelTimer::issue_data_after(unsigned bank, double ready_ns,
                                      double occupy_ns, std::uint64_t bytes) {
  const double bank_done = issue_after(bank, ready_ns, occupy_ns);
  const double start = std::max(bank_done, data_free_);
  data_free_ = start + static_cast<double>(bytes) / bytes_per_ns_;
  // The bank's buffers hold the result until the burst drains: a later
  // command to the same bank mid-burst would clobber the latched data, so
  // the bank stays occupied through the transfer.
  banks_[bank] = std::max(banks_[bank], data_free_);
  return data_free_;
}

double ChannelTimer::bank_free_ns(unsigned bank) const {
  PIN_CHECK_MSG(bank < banks_.size(), "bank " << bank);
  return std::max(cmd_free_, banks_[bank]);
}

double ChannelTimer::finish_ns() const {
  double t = std::max(cmd_free_, data_free_);
  for (double b : banks_) t = std::max(t, b);
  return t;
}

}  // namespace pinatubo::mem
