// Channel-level resource timer of the execution engine.
//
// Models the contended resources of one memory channel:
//   * the command bus — every command occupies one slot (1.25 ns @ DDR3-1600),
//   * per-bank occupancy — a bank is busy until its current row operation
//     (activate / sense steps / write recovery) finishes,
//   * the data bus — read/write bursts serialize at the channel bandwidth.
// Banks otherwise proceed in parallel, which is exactly the parallelism the
// paper exploits when a bit-vector is striped across the 8 banks of a rank.
// `core::ExecutionEngine` keeps one timer per channel, with the channel's
// ranks (lock-step bank clusters) as its "banks", and issues every step of
// a batch through it once its data dependencies are ready.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/timing.hpp"

namespace pinatubo::mem {

class ChannelTimer {
 public:
  ChannelTimer(unsigned n_banks, const BusParams& bus);

  /// Issues a command to `bank` once `ready_ns` (a data dependency on an
  /// earlier operation) has passed: waits for a command-bus slot and for
  /// the bank to be free, then occupies the bank for `occupy_ns`.
  /// Returns the completion time of the bank operation.
  double issue_after(unsigned bank, double ready_ns, double occupy_ns);

  /// `issue_after` plus a data burst of `bytes`: the burst occupies the
  /// shared data bus after the bank operation completes, and the bank stays
  /// busy until the burst drains (its buffers hold the outgoing data).
  /// Returns burst completion time.
  double issue_data_after(unsigned bank, double ready_ns, double occupy_ns,
                          std::uint64_t bytes);

  /// Latest completion time across all resources.
  double finish_ns() const;
  /// Earliest time a command to `bank` could start (bank + command bus
  /// free); lets a scheduler pick the next issue without mutating state.
  double bank_free_ns(unsigned bank) const;

 private:
  double cmd_slot_ns_;
  double bytes_per_ns_;
  double cmd_free_ = 0.0;
  double data_free_ = 0.0;
  std::vector<double> banks_;
};

}  // namespace pinatubo::mem
