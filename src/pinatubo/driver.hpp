// The Pinatubo driver library — the programmer-facing API of paper Fig. 4:
//
//   pim_malloc(bits)                 -> Handle
//   pim_op(op, {srcs...}, dst)       -> executes in memory
//   pim_begin() / pim_barrier()      -> batch window: enqueued ops are
//                                      priced together by the execution
//                                      engine (independent steps overlap)
//
// plus data movement (pim_write / pim_read) and teardown (pim_free).
//
// This runtime is FUNCTIONAL and COSTED at once: every pim_op
//   1. is lowered by the scheduler into an execution plan,
//   2. is executed against the simulated NVM array *through the sensing
//      models* (multi-row activation really combines the stored rows) by
//      walking that plan's steps, and
//   3. accrues the plan's time/energy and optionally the lowered DDR
//      command stream.
// The runtime executes the plan it submits: the activation chain is
// decided once, in `OpScheduler`.
// Examples use it as the library a real system would ship; tests assert
// both the results and the op classification.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bitvec/bitvector.hpp"
#include "mem/mainmem.hpp"
#include "obs/trace.hpp"
#include "pinatubo/allocator.hpp"
#include "pinatubo/cost_model.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/recovery.hpp"
#include "sim/cpu_model.hpp"
#include "verify/verifier.hpp"

namespace pinatubo::core {

class PimRuntime {
 public:
  using Handle = std::uint64_t;

  struct Options {
    nvm::Tech tech = nvm::Tech::kPcm;
    mem::SenseFidelity fidelity = mem::SenseFidelity::kNominal;
    AllocPolicy policy = AllocPolicy::kPimAware;
    unsigned max_rows = 128;        ///< Pinatubo-2 vs Pinatubo-128
    double result_density = 0.5;    ///< SET/RESET mix for write energy
    bool record_commands = false;   ///< keep the lowered DDR stream
    bool serial_execution = false;  ///< price ops as the serial step sum
    std::uint64_t seed = 1;
    /// Fault injection / detection / recovery (DESIGN.md §10).  Defaults
    /// to everything off — the runtime behaves exactly as without it.
    reliability::Policy reliability;
  };

  /// Per-step-class share of the accumulated cost.
  struct ClassBreakdown {
    double time_ns = 0.0;    ///< summed (serial) step time of the class
    double energy_pj = 0.0;
    std::uint64_t steps = 0;
  };

  /// Counts read off the runtime's one record of each: step counts and
  /// the per-class breakdown from the engine's `ClassProfile`, so they
  /// cover priced batches only (a window's steps land at pim_barrier());
  /// the inherited reliability counts from the recovery manager.
  struct Stats : reliability::Counters {
    std::uint64_t ops = 0;
    std::uint64_t intra_steps = 0;
    std::uint64_t inter_sub_steps = 0;
    std::uint64_t inter_bank_steps = 0;
    std::uint64_t host_reads = 0;
    std::uint64_t batches = 0;     ///< engine flushes (sync op = batch of 1)
    std::uint64_t bus_bytes = 0;   ///< data moved over the DDR bus
    double serial_time_ns = 0.0;   ///< no-overlap baseline for cost().time_ns
    /// Breakdown by step class, indexed by `step_index(StepKind)`.
    ClassBreakdown by_class[kStepKindCount] = {};
    double fallback_time_ns = 0.0;  ///< CPU-path share of cost().time_ns
    double fallback_energy_pj = 0.0;
  };

  explicit PimRuntime(const mem::Geometry& geo = {});
  PimRuntime(const mem::Geometry& geo, const Options& opts);

  /// Allocates a bit-vector in PIM-friendly rows.
  Handle pim_malloc(std::uint64_t bits);
  void pim_free(Handle h);

  /// Host -> memory data load (not counted in op cost, like the paper).
  void pim_write(Handle h, const BitVector& data);
  /// Memory -> host read of a whole vector.
  BitVector pim_read(Handle h) const;

  /// Executes `dst = op(srcs...)` in memory.  `host_reads_result` adds the
  /// result's bus transfer to the cost (e.g. the CPU popcounts it next).
  void pim_op(BitOp op, const std::vector<Handle>& srcs, Handle dst,
              bool host_reads_result = false);

  /// Row-granular copy (`dst = src`), the RowClone-style primitive the WD
  /// bypass enables: sense the source row, feed the SAs straight to the
  /// destination's write drivers.  Costs one 1-row intra step when the
  /// vectors are co-located, a buffer move otherwise.
  void pim_copy(Handle src, Handle dst);

  /// Opens a batch window.  Subsequent pim_op / pim_copy calls still
  /// execute functionally right away (program order, so interleaving
  /// pim_write / pim_read with enqueued ops keeps its meaning), but their
  /// plans accumulate and are priced together at pim_barrier().
  void pim_begin();
  /// Flushes the open batch through the execution engine: builds the
  /// read/write dependency graph over all enqueued plans, overlaps
  /// independent steps across ranks/channels, accrues the schedule's
  /// makespan + energy, and (when record_commands) appends the command
  /// streams interleaved in schedule order.
  void pim_barrier();
  /// Whether a pim_begin() window is currently open.
  bool in_batch() const { return in_batch_; }

  const Placement& placement(Handle h) const;
  std::uint64_t vector_bits(Handle h) const { return placement(h).bits; }

  /// Accumulated cost of every pim_op so far.
  const mem::Cost& cost() const { return cost_; }
  Stats stats() const;
  /// Per-class record of every priced batch (the engine profiles summed).
  const ClassProfile& profile() const { return profile_; }
  const std::vector<mem::Command>& commands() const { return commands_; }
  /// Zeroes cost, stats, the command log and the reliability counters.
  void reset_cost();

  /// Attaches an observability session (nullptr detaches).  While attached
  /// and enabled, `run_batch` renders every priced batch as spans tiled
  /// end-to-end (batch i starts where the accrued cost stood) plus the
  /// batch counters; `pim.ops` and the reliability counters ride along.
  /// Per-class span sums equal `profile().time_ns[k]` and the max span end
  /// equals `cost().time_ns`.  Costs one branch per batch when disabled.
  void set_trace(obs::TraceSession* session) { trace_ = session; }

  const mem::Geometry& geometry() const { return mem_.geometry(); }
  const Options& options() const { return opts_; }
  mem::MainMemory& memory() { return mem_; }

  /// The attached fault model (nullptr when fault.enabled is off).
  reliability::FaultModel* fault_model() { return fault_model_.get(); }
  /// The recovery manager (nullptr when no verify mode is configured).
  reliability::RecoveryManager* recovery() { return relmgr_.get(); }
  /// The static verifier (nullptr when `reliability.verify.level` is off).
  /// At kAlways every submitted plan passes the protocol pass and every
  /// batch the full three-pass check; kPost skips the per-submit check.  A
  /// violation throws `Error` with the verifier's diagnostics.
  verify::Verifier* verifier() { return verifier_.get(); }

  /// Tears the runtime down to a fresh campaign: every vector freed, the
  /// memory array / wear ledger / remap table / sense epoch cleared, the
  /// fault model's dynamic state, the reliability counters and the CPU
  /// fallback model's cache reset, cost and stats zeroed.  The fault
  /// model's static stuck-at map survives (same chip, new campaign) —
  /// back-to-back campaigns in one process are independent.
  void reset_campaign();

 private:
  /// Scatters a logical vector into its placement's rows / column window.
  void scatter(const Placement& p, const BitVector& v);
  /// Gathers the logical vector back out of the rows.
  BitVector gather(const Placement& p) const;
  /// Every row write: through the recovery manager when one is attached
  /// (verify-after-write + remap), a plain partial write otherwise.
  void store_window(const mem::RowAddr& addr, std::size_t bit_offset,
                    const BitVector& data);
  /// The one intra-step walker: a plan step's activation, sensed in every
  /// bank of the lock-step cluster and then written back to dst's column
  /// window.  Without a recovery manager that is the whole of it, one
  /// attempt priced as the scheduler's plan.  With one, the activation
  /// runs under the verify/retry/de-escalate ladder and appends the steps
  /// it actually took (failed attempts, verify and remap steps included)
  /// to `executed`; every one is a copy of `step` with only the kind, rows,
  /// writeback, attempt and reads changed (plus the verify/remap shapes),
  /// and de-escalation splits `step.reads`, with `step.write` accumulating.
  /// Returns false when the ladder is exhausted and the op must fall back
  /// to the CPU.
  bool activate(const PlanStep& step, const Placement& dst, OpPlan& executed);
  /// Final rung's cost: the op priced as a CPU bulk kernel (pim_op computes
  /// its exact result).
  void price_fallback(BitOp op, const std::vector<Handle>& srcs, Handle dst,
                      std::uint64_t bits, bool host_reads_result);
  /// The recovery manager's counters (zero without one).
  reliability::Counters rel_counters() const;
  /// Emits the reliability counters moved since `before` as `pim.*`
  /// trace counters.
  void trace_reliability(const reliability::Counters& before);
  /// Checks `plan` with the static verifier at kAlways; a rejection
  /// throws `Error` with the verifier's diagnostics.
  void admit(const OpPlan& plan) const;
  /// Counts the op and routes its plan: held until the barrier when a
  /// batch is open, priced as a batch-of-one otherwise.
  void enqueue(OpPlan plan);
  /// `admit` then `enqueue`.
  void submit(OpPlan plan);
  /// Prices a batch through `run_batch` and accrues cost/profile/commands.
  void flush(const std::vector<OpPlan>& plans);

  Options opts_;
  mem::MainMemory mem_;
  RowAllocator alloc_;
  OpScheduler sched_;
  PinatuboCostModel cost_model_;
  ExecutionEngine engine_;
  std::unordered_map<Handle, Placement> vectors_;
  Handle next_handle_ = 1;
  mem::Cost cost_;
  ClassProfile profile_;
  /// The Stats fields neither the profile nor the recovery counters hold.
  struct Tally {
    std::uint64_t ops = 0, batches = 0;
    double serial_time_ns = 0.0;  ///< batches' serial sums + CPU fallbacks
    double fallback_time_ns = 0.0, fallback_energy_pj = 0.0;
  } tally_;
  std::vector<mem::Command> commands_;
  obs::TraceSession* trace_ = nullptr;
  bool in_batch_ = false;
  std::vector<OpPlan> batch_plans_;
  std::unique_ptr<reliability::FaultModel> fault_model_;
  std::unique_ptr<reliability::RecoveryManager> relmgr_;
  std::unique_ptr<verify::Verifier> verifier_;
  std::unique_ptr<sim::SimdCpuModel> cpu_;  ///< lazy fallback cost model
};

}  // namespace pinatubo::core
