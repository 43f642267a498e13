// Channel-level resource scheduler.
//
// Models the two contended resources of one memory channel:
//   * the command bus — every command occupies one slot (1.25 ns @ DDR3-1600),
//   * per-bank occupancy — a bank is busy until its current row operation
//     (activate / sense steps / write recovery) finishes,
//   * the data bus — read/write bursts serialize at the channel bandwidth.
// Banks otherwise proceed in parallel, which is exactly the parallelism the
// paper exploits when a bit-vector is striped across the 8 banks of a rank.
// Ranks on the same channel share the buses; the timer flattens
// (rank, bank) into a global bank index.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/timing.hpp"

namespace pinatubo::mem {

class ChannelTimer {
 public:
  ChannelTimer(unsigned n_banks, const BusParams& bus);

  /// Issues a command to `bank`: waits for a command-bus slot and for the
  /// bank to be free, then occupies the bank for `occupy_ns`.
  /// Returns the completion time of the bank operation.
  double issue(unsigned bank, double occupy_ns);

  /// Like `issue`, but the command additionally waits until `ready_ns`
  /// (a data dependency on an earlier operation).
  double issue_after(unsigned bank, double ready_ns, double occupy_ns);

  /// Like `issue` but the command applies to every bank simultaneously
  /// (lock-step multi-bank PIM step): one bus slot, all banks occupied.
  double issue_all_banks(double occupy_ns);

  /// Command plus a data burst of `bytes`: the burst occupies the data bus
  /// after the bank operation completes, and the bank stays busy until the
  /// burst drains (its buffers hold the outgoing data).  Returns burst
  /// completion time.
  double issue_data(unsigned bank, double occupy_ns, std::uint64_t bytes);

  /// Like `issue_data`, but the command additionally waits until `ready_ns`
  /// (a data dependency on an earlier operation).  The burst still
  /// serializes on the shared data bus.  Returns burst completion time.
  double issue_data_after(unsigned bank, double ready_ns, double occupy_ns,
                          std::uint64_t bytes);

  /// Data-bus transfer of a result already in a buffer (e.g. a CPU read):
  /// consumes one command-bus slot, then serializes on the data bus.
  double transfer(std::uint64_t bytes);

  /// Latest completion time across all resources.
  double finish_ns() const;
  double now_cmd_bus() const { return cmd_free_; }
  /// Earliest time a command to `bank` could start (bank + command bus
  /// free); lets a scheduler pick the next issue without mutating state.
  double bank_free_ns(unsigned bank) const;

  void reset();

 private:
  double cmd_slot_ns_;
  double bytes_per_ns_;
  double cmd_free_ = 0.0;
  double data_free_ = 0.0;
  std::vector<double> banks_;
};

}  // namespace pinatubo::mem
