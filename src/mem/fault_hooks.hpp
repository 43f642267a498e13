// Fault-injection seam of the functional memory.
//
// `MainMemory` itself stays fault-free by default; a reliability layer can
// attach a `FaultHooks` implementation (see src/reliability/) and the
// memory calls back at the two places real NVM fails:
//
//   * after every row write  — persistent cell faults (manufacturing
//     stuck-at, endurance wear-out) corrupt the *stored* words in place;
//   * during every sense     — transient read failures (margin-limited
//     BER, widened by resistance drift of aged data) flip bits of the
//     sensed output only, leaving the array contents intact.  The memory
//     makes one `sense_flips` call per sense, over the whole output row.
//
// The interface is declared here, inside pin_mem, so the memory does not
// depend on the reliability library (which depends on pin_mem); the hook
// pointer is non-owning and null by default.  Implementations must be
// deterministic pure functions of their seed and the arguments — the
// memory calls them in program order, once per write or sense, which
// keeps the runtime's determinism contract (same seed => identical results
// for any thread count) intact.
#pragma once

#include <cstdint>
#include <span>

#include "bitvec/bitvector.hpp"

namespace pinatubo::mem {

class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// Called after a row's words were updated by a write.  `row_id` is the
  /// PHYSICAL encoded row id (spare-row remaps already applied),
  /// `write_count` the row's cumulative write count including this write,
  /// `epoch` the memory's current sense epoch (a simulated-time proxy for
  /// data age).  [word_lo, word_hi) bounds the words the write touched.
  /// The hook may mutate `row` in place to model persistent cell faults;
  /// the memory re-masks the tail bits past the row width afterwards.
  virtual void on_write(std::uint64_t row_id, std::uint64_t write_count,
                        std::uint64_t epoch, std::span<BitVector::Word> row,
                        std::size_t word_lo, std::size_t word_hi) = 0;

  /// BER multiplier for a sense over the given physical rows at `epoch`
  /// (resistance drift: the longer since a row was written, the worse it
  /// senses).  Returning 0 disables flips for this sense.
  virtual double sense_scale(std::uint64_t epoch,
                             std::span<const std::uint64_t> row_ids) = 0;

  /// XORs the transient flips of the sense at `epoch` into its output,
  /// once per sense over the whole sensed row (`out[w]` is output word w).
  /// The flips of word w must be a pure function of (implementation seed,
  /// epoch, w, scale).  Called only when `sense_scale` returned > 0.
  virtual void sense_flips(std::uint64_t epoch, double scale,
                           std::span<BitVector::Word> out) = 0;
};

}  // namespace pinatubo::mem
