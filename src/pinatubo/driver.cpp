#include "pinatubo/driver.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"

namespace pinatubo::core {

namespace {

/// `a` in bank `b` of its lock-step cluster.
mem::RowAddr in_bank(mem::RowAddr a, unsigned b) {
  a.bank = b;
  return a;
}

std::vector<mem::RowAddr> in_bank(std::vector<mem::RowAddr> rows,
                                  unsigned b) {
  for (auto& r : rows) r.bank = b;
  return rows;
}

/// Plan step `st` opening `reads` (column-aligned) instead of its own.
PlanStep with_reads(PlanStep st, std::vector<mem::RowAddr> reads) {
  st.rows = static_cast<unsigned>(reads.size());
  st.read_cols.assign(reads.size(), st.col_start);
  st.reads = std::move(reads);
  return st;
}

/// Calls `chunk(bank, row_bit, vector_bit, len)` for each bank-share run of
/// group `grp`'s bits in `p`, in vector order.  Each run maps to one
/// contiguous bit range of one bank's row, so scatter and gather move whole
/// runs with copy_bits instead of walking bits.
template <typename Chunk>
void for_each_chunk(const mem::Geometry& g, const Placement& p,
                    std::uint64_t grp, Chunk&& chunk) {
  const std::uint64_t step = g.sense_step_bits();
  const std::uint64_t bank_share = step / g.banks_per_chip;
  const std::uint64_t base = grp * p.stripes * step;
  const std::uint64_t count = std::min<std::uint64_t>(
      p.stripes * step, p.bits > base ? p.bits - base : 0);
  for (std::uint64_t q = 0; q < count;) {
    const std::uint64_t within = q % step;
    const std::uint64_t in_share = within % bank_share;
    const std::uint64_t len = std::min(bank_share - in_share, count - q);
    chunk(static_cast<unsigned>(within / bank_share),
          (p.col_stripe + q / step) * bank_share + in_share, base + q, len);
    q += len;
  }
}

}  // namespace

PimRuntime::PimRuntime(const mem::Geometry& geo)
    : PimRuntime(geo, Options{}) {}

PimRuntime::PimRuntime(const mem::Geometry& geo, const Options& opts)
    : opts_(opts), mem_(geo, opts.tech, opts.fidelity, opts.seed),
      alloc_(geo, opts.policy,
             opts.reliability.spares_needed() ? opts.reliability.retry.spare_rows
                                              : 0),
      sched_(geo, SchedulerConfig{opts.max_rows, opts.tech}),
      cost_model_(geo, opts.tech, opts.result_density),
      engine_(cost_model_, EngineOptions{opts.serial_execution}) {
  if (opts_.reliability.fault.enabled) {
    fault_model_ =
        std::make_unique<reliability::FaultModel>(opts_.reliability.fault);
    mem_.set_fault_hooks(fault_model_.get());
  }
  if (opts_.reliability.detection_enabled()) {
    relmgr_ = std::make_unique<reliability::RecoveryManager>(
        mem_, opts_.reliability,
        [this](unsigned ch, unsigned rk, unsigned sub) {
          return alloc_.take_spare(ch, rk, sub);
        });
  }
  if (opts_.reliability.verify.level != reliability::VerifyLevel::kOff)
    verifier_ =
        std::make_unique<verify::Verifier>(cost_model_, opts_.max_rows);
}

PimRuntime::Handle PimRuntime::pim_malloc(std::uint64_t bits) {
  const Placement p = alloc_.allocate(bits);
  const Handle h = next_handle_++;
  vectors_.emplace(h, p);
  return h;
}

void PimRuntime::pim_free(Handle h) {
  const auto it = vectors_.find(h);
  PIN_CHECK_MSG(it != vectors_.end(), "bad handle " << h);
  alloc_.free(it->second);
  vectors_.erase(it);
}

const Placement& PimRuntime::placement(Handle h) const {
  const auto it = vectors_.find(h);
  PIN_CHECK_MSG(it != vectors_.end(), "bad handle " << h);
  return it->second;
}

void PimRuntime::scatter(const Placement& p, const BitVector& v) {
  // Read-modify-write + one write per touched bank, so the wear ledger sees
  // exactly one full-row write per physical row activation.
  const auto& g = mem_.geometry();
  for (std::uint64_t grp = 0; grp < p.groups; ++grp) {
    const unsigned rk = p.group_rank(grp, g.ranks_per_channel);
    const unsigned row = p.group_row(grp, g.ranks_per_channel);
    std::vector<BitVector> bank_rows;
    bank_rows.reserve(g.banks_per_chip);
    for (unsigned b = 0; b < g.banks_per_chip; ++b)
      bank_rows.push_back(mem_.read_row({p.channel, rk, b, p.subarray, row}));
    std::vector<bool> touched(g.banks_per_chip, false);
    for_each_chunk(g, p, grp,
                   [&](unsigned b, std::size_t bit, std::uint64_t at,
                       std::uint64_t len) {
                     copy_bits(bank_rows[b].words(), bit, v.words(), at, len);
                     touched[b] = true;
                   });
    for (unsigned b = 0; b < g.banks_per_chip; ++b)
      if (touched[b])
        store_window({p.channel, rk, b, p.subarray, row}, 0, bank_rows[b]);
  }
}

void PimRuntime::store_window(const mem::RowAddr& addr, std::size_t bit_offset,
                              const BitVector& data) {
  if (relmgr_)
    relmgr_->write(addr, bit_offset, data);
  else
    mem_.write_row_partial(addr, bit_offset, data);
}

BitVector PimRuntime::gather(const Placement& p) const {
  // Chunk-wise zero-copy reads straight from the row arenas.
  const auto& g = mem_.geometry();
  BitVector v(p.bits);
  for (std::uint64_t grp = 0; grp < p.groups; ++grp) {
    const unsigned rk = p.group_rank(grp, g.ranks_per_channel);
    const unsigned row = p.group_row(grp, g.ranks_per_channel);
    for_each_chunk(g, p, grp,
                   [&](unsigned b, std::size_t bit, std::uint64_t at,
                       std::uint64_t len) {
                     copy_bits(v.words(), at,
                               mem_.row_view({p.channel, rk, b, p.subarray, row}),
                               bit, len);
                   });
  }
  return v;
}

void PimRuntime::pim_write(Handle h, const BitVector& data) {
  const Placement& p = placement(h);
  PIN_CHECK_MSG(data.size() == p.bits,
                "vector is " << p.bits << " bits, got " << data.size());
  const reliability::Counters before = rel_counters();
  scatter(p, data);
  trace_reliability(before);
}

BitVector PimRuntime::pim_read(Handle h) const { return gather(placement(h)); }

bool PimRuntime::activate(const PlanStep& step, const Placement& dst,
                          OpPlan& executed) {
  using reliability::SenseVerify;
  using reliability::WriteVerify;
  const auto& g = mem_.geometry();
  const std::uint64_t bank_share = g.sense_step_bits() / g.banks_per_chip;
  const std::size_t win_lo = dst.col_stripe * bank_share;
  const std::size_t win_len = dst.stripes * bank_share;
  const BitOp op = step.op;
  const auto k = static_cast<unsigned>(step.reads.size());
  const auto& rel = opts_.reliability;

  // Every step the ladder prices is a copy of the activation's plan step,
  // so the cost model prices it exactly like the scheduler's own.  Only
  // the verify and remap steps open other rows; they pass `with_reads`'s
  // reshaped copy, the activation itself a plain copy.
  auto priced = [](PlanStep st, StepKind kind, unsigned rows, bool writeback,
                   unsigned attempt) {
    st.kind = kind;
    st.rows = rows;
    st.writeback = writeback;
    st.attempt = attempt;
    return st;
  };
  auto on_write = [&] { return with_reads(step, {step.write}); };

  for (unsigned attempt = 0; attempt <= rel.retry.max_resense; ++attempt) {
    if (attempt > 0) ++relmgr_->counters().retries;
    // Sense every bank of the lock-step cluster; verify per the policy
    // (never without a recovery manager: its verify modes are what attach
    // one, so that walk is a single attempt).
    std::vector<BitVector> sensed(g.banks_per_chip);
    unsigned bad = 0;
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      const std::vector<mem::RowAddr> rows = in_bank(step.reads, b);
      BitVector window(win_len);
      copy_bits(window.words(), 0, mem_.sense_rows(rows, op).words(), win_lo,
                win_len);
      bool ok_b = true;
      if (rel.verify.sense == SenseVerify::kReadback) {
        ok_b = window == relmgr_->expected_window(rows, op, win_lo, win_len);
      } else if (rel.verify.sense == SenseVerify::kDouble) {
        BitVector second(win_len);
        copy_bits(second.words(), 0, mem_.sense_rows(rows, op).words(),
                  win_lo, win_len);
        ok_b = window == second;
      }
      if (!ok_b) ++bad;
      sensed[b] = std::move(window);
    }
    const bool ok = bad == 0;

    // Price what actually happened.  Failed attempts keep their activation
    // cost but skip the writeback; double-sensing adds a shadow activation;
    // read-back verification is a digital fold at the global row buffer.
    // Without a recovery manager the scheduler's plan is priced as written.
    if (rel.verify.sense == SenseVerify::kDouble)
      executed.steps.push_back(
          priced(step, StepKind::kIntraSub, k, false, attempt));
    if (relmgr_)
      executed.steps.push_back(
          priced(step, StepKind::kIntraSub, k, ok, attempt));
    if (rel.verify.sense == SenseVerify::kReadback) {
      const unsigned vsteps = k > 1 ? k - 1 : 1;
      for (unsigned i = 0; i < vsteps; ++i) {
        const std::size_t a = std::min<std::size_t>(i, k - 1);
        const std::size_t b = std::min<std::size_t>(i + 1, k - 1);
        std::vector<mem::RowAddr> pr{step.reads[a]};
        if (b != a) pr.push_back(step.reads[b]);
        // Hoisted: argument evaluation order is unspecified, so reading
        // pr.size() in the same call that moves pr yields 0 under gcc and
        // the verify step loses its row count.
        const auto nr = static_cast<unsigned>(pr.size());
        executed.steps.push_back(priced(with_reads(step, std::move(pr)),
                                        StepKind::kInterSub, nr, false,
                                        attempt));
      }
    }

    if (!ok) {
      relmgr_->counters().detected_faults += bad;
      continue;  // re-sense: a new epoch redraws the transient flips
    }

    // The SA results go to the write drivers once the whole cluster has
    // sensed.  Commit through the verified write path when there is one
    // (detects persistent faults in the destination row and remaps them
    // while the true result is known).
    const std::uint64_t remaps_before =
        relmgr_ ? relmgr_->counters().remaps : 0;
    for (unsigned b = 0; b < g.banks_per_chip; ++b)
      store_window(in_bank(step.write, b), win_lo, sensed[b]);
    if (!relmgr_) return true;
    if (rel.verify.writes != WriteVerify::kNone) {
      PlanStep wv = priced(
          on_write(), StepKind::kInterSub,
          rel.verify.writes == WriteVerify::kReadback ? 2u : 1u, false,
          attempt);
      if (rel.verify.writes == WriteVerify::kParity) {
        // Parity checks one packed parity word per 64 data words.
        wv.col_steps = 1;
        wv.bits = std::max<std::uint64_t>(1, step.bits / 64);
      }
      executed.steps.push_back(std::move(wv));
    }
    // Each remap rewrote (and re-verified) a full rank-row in every bank.
    // The rewrite is a row copy, priced as `pim_copy` prices one: a 1-row
    // INV activation feeding the write drivers (a 1-row OR is no CSA shape).
    for (std::uint64_t i = remaps_before; i < relmgr_->counters().remaps;
         ++i) {
      PlanStep rm = priced(on_write(), StepKind::kIntraSub, 1, true, attempt);
      rm.op = BitOp::kInv;
      rm.col_steps = g.sa_mux_share;
      rm.bits = g.row_group_bits();
      // The remap rewrites the full rank-row, not dst's column stripe: the
      // plan step's window (col_start = col_stripe) would overflow the mux
      // share and hide the step's true footprint from hazard analysis.
      rm.col_start = 0;
      rm.read_cols.assign(rm.reads.size(), 0);
      executed.steps.push_back(std::move(rm));
    }
    return true;
  }

  // Retries exhausted: de-escalate the activation (OR only — AND/XOR/INV
  // shapes are already minimal).  Halving re-enters the ladder per half at
  // a wider sense margin, accumulating into dst.
  if (rel.retry.deescalate && op == BitOp::kOr && k > 2) {
    ++relmgr_->counters().deescalations;
    const unsigned h = (k + 1) / 2;
    const auto mid = step.reads.begin() + h;
    if (!activate(with_reads(step, {step.reads.begin(), mid}), dst, executed))
      return false;
    std::vector<mem::RowAddr> rest{step.write};  // holds the first half
    rest.insert(rest.end(), mid, step.reads.end());
    return activate(with_reads(step, std::move(rest)), dst, executed);
  }
  return false;
}

void PimRuntime::admit(const OpPlan& plan) const {
  if (verifier_ &&
      opts_.reliability.verify.level == reliability::VerifyLevel::kAlways) {
    const verify::Report rep = verifier_->check(plan);
    PIN_CHECK_MSG(rep.ok(),
                  "static verifier rejected a submitted plan ("
                      << plan.summary() << "):\n"
                      << rep.to_string());
  }
}

void PimRuntime::enqueue(OpPlan plan) {
  ++tally_.ops;
  if (trace_ && trace_->enabled()) trace_->count("pim.ops");
  if (in_batch_) {
    batch_plans_.push_back(std::move(plan));
    return;
  }
  std::vector<OpPlan> one;
  one.push_back(std::move(plan));
  flush(one);
}

void PimRuntime::submit(OpPlan plan) {
  admit(plan);
  enqueue(std::move(plan));
}

void PimRuntime::flush(const std::vector<OpPlan>& plans) {
  // Batches tile the trace timeline exactly where they accrue into
  // cost_: batch i starts at the makespan accumulated before it.
  const ExecutionEngine::Result r =
      run_batch(engine_, plans, verifier_.get(), trace_, cost_.time_ns);
  cost_ += r.cost;
  ++tally_.batches;
  tally_.serial_time_ns += r.serial_time_ns;
  profile_ += r.profile;
  if (opts_.record_commands) {
    // Commands interleave across plans in schedule order; each step's
    // sequence is self-contained, so the stream stays replayable.
    for (const auto& ss : r.schedule)
      cost_model_.lower_step(plans[ss.plan].steps[ss.step], commands_);
  }
}

void PimRuntime::pim_begin() {
  PIN_CHECK_MSG(!in_batch_, "pim_begin: batch already open");
  in_batch_ = true;
}

void PimRuntime::pim_barrier() {
  PIN_CHECK_MSG(in_batch_, "pim_barrier without pim_begin");
  in_batch_ = false;
  const std::vector<OpPlan> plans = std::move(batch_plans_);
  batch_plans_.clear();
  if (!plans.empty()) flush(plans);
}

void PimRuntime::pim_op(BitOp op, const std::vector<Handle>& srcs, Handle dst,
                        bool host_reads_result) {
  std::vector<Placement> src_p;
  src_p.reserve(srcs.size());
  for (const Handle h : srcs) src_p.push_back(placement(h));
  const Placement& dst_p = placement(dst);

  OpPlan plan = sched_.plan(op, src_p, dst_p, host_reads_result);
  const bool intra = plan.count(StepKind::kIntraSub) > 0;
  const bool ladder = intra && relmgr_;
  const reliability::Counters before = rel_counters();

  // A plan that runs as written is admitted first, so one the verifier
  // rejects leaves memory untouched, and executed before it is enqueued, so
  // pricing takes it by move; under the ladder, the executed plan is
  // admitted as it is submitted.  Functional execution is eager even inside
  // a batch: program order keeps interleaved pim_write / pim_read
  // semantics; only pricing defers.
  if (!ladder) admit(plan);
  // Under the ladder, snapshot dst-aliasing operands first: a partially
  // executed chain overwrites dst, and the CPU fallback must still see the
  // original operand values.
  std::vector<std::optional<BitVector>> operands(src_p.size());
  if (ladder && opts_.reliability.retry.cpu_fallback) {
    for (std::size_t i = 0; i < src_p.size(); ++i)
      if (src_p[i].rows_overlap(dst_p)) operands[i] = gather(src_p[i]);
  }
  OpPlan executed;  // the ladder's steps, failed attempts included
  executed.op = op;
  executed.bits = dst_p.bits;
  bool ok = true;
  for (const PlanStep& st : plan.steps)
    if (st.kind == StepKind::kIntraSub && !(ok = activate(st, dst_p, executed)))
      break;

  PIN_CHECK_MSG(ok || opts_.reliability.retry.cpu_fallback,
                "recovery ladder exhausted for "
                    << to_string(op) << " and retry.cpu_fallback is disabled");
  if (!intra || !ok) {
    // Exact digital logic: the buffer paths (the scatter may detect write
    // faults), or the CPU fallback, recomputing from the stored operands
    // (clean — persistent faults were healed at write time) or the pre-op
    // snapshot when the operand aliased dst.
    std::vector<const BitVector*> ptrs;
    for (std::size_t i = 0; i < src_p.size(); ++i) {
      if (!operands[i]) operands[i] = gather(src_p[i]);
      ptrs.push_back(&*operands[i]);
    }
    scatter(dst_p, BitVector::reduce(op, ptrs));
  }

  if (!ladder) {
    enqueue(std::move(plan));
  } else if (ok) {
    // Reuse the scheduler's host-read tail on the executed plan.
    for (auto& st : plan.steps)
      if (st.kind == StepKind::kHostRead)
        executed.steps.push_back(std::move(st));
    submit(std::move(executed));
  } else {
    submit(std::move(executed));  // the failed attempts still cost time
    price_fallback(op, srcs, dst, dst_p.bits, host_reads_result);
  }
  trace_reliability(before);
}

void PimRuntime::price_fallback(BitOp op, const std::vector<Handle>& srcs,
                                Handle dst, std::uint64_t bits,
                                bool host_reads_result) {
  // The whole op runs as a CPU bulk kernel streaming from PCM (operand
  // reads + result write included — no extra host-read steps, or the
  // transfer would be double-counted).
  if (!cpu_)
    cpu_ = std::make_unique<sim::SimdCpuModel>(sim::CpuConfig{},
                                               sim::MemKind::kPcm);
  sim::TraceOp top;
  top.op = op;
  top.srcs = srcs;
  top.dst = dst;
  top.bits = bits;
  top.host_reads_result = host_reads_result;
  const mem::Cost c = cpu_->bulk_op(top);
  ++relmgr_->counters().fallbacks;
  tally_.fallback_time_ns += c.time_ns;
  tally_.fallback_energy_pj += c.energy.total_pj();
  if (trace_ && trace_->enabled()) {
    // The fallback tiles at the accrued makespan on its own host track;
    // its category is not a step class, so SpanSums-style per-class
    // reconciliation is unaffected while max_end still covers it.
    const std::uint32_t tr = trace_->track("host/cpu");
    trace_->span(std::string("cpu-fallback ") + to_string(op), cost_.time_ns,
                 c.time_ns, tr, "cpu-fallback");
  }
  cost_ += c;
  tally_.serial_time_ns += c.time_ns;
}

reliability::Counters PimRuntime::rel_counters() const {
  return relmgr_ ? relmgr_->counters() : reliability::Counters{};
}

void PimRuntime::trace_reliability(const reliability::Counters& before) {
  if (!trace_ || !trace_->enabled()) return;
  const reliability::Counters now = rel_counters();
  auto emit = [&](const char* key, std::uint64_t was, std::uint64_t is) {
    if (is != was) trace_->count(key, is - was);
  };
  emit("pim.detected_faults", before.detected_faults, now.detected_faults);
  emit("pim.retries", before.retries, now.retries);
  emit("pim.deescalations", before.deescalations, now.deescalations);
  emit("pim.remaps", before.remaps, now.remaps);
  emit("pim.fallbacks", before.fallbacks, now.fallbacks);
}

PimRuntime::Stats PimRuntime::stats() const {
  Stats s;
  s.ops = tally_.ops;
  s.intra_steps = profile_.steps[step_index(StepKind::kIntraSub)];
  s.inter_sub_steps = profile_.steps[step_index(StepKind::kInterSub)];
  s.inter_bank_steps = profile_.steps[step_index(StepKind::kInterBank)];
  s.host_reads = profile_.steps[step_index(StepKind::kHostRead)];
  s.batches = tally_.batches;
  s.bus_bytes = profile_.bus_bytes;
  s.serial_time_ns = tally_.serial_time_ns;
  for (std::size_t k = 0; k < kStepKindCount; ++k)
    s.by_class[k] = {profile_.time_ns[k], profile_.energy_pj[k],
                     profile_.steps[k]};
  static_cast<reliability::Counters&>(s) = rel_counters();
  s.fallback_time_ns = tally_.fallback_time_ns;
  s.fallback_energy_pj = tally_.fallback_energy_pj;
  return s;
}

void PimRuntime::pim_copy(Handle src, Handle dst) {
  const Placement& src_p = placement(src);
  const Placement& dst_p = placement(dst);
  PIN_CHECK_MSG(src_p.bits == dst_p.bits, "copy length mismatch");
  // A copy is a 1-row sense feeding the WDs: price it as an INV plan
  // (identical datapath; the differential output tap is free) and execute
  // the straight copy functionally.
  submit(sched_.plan(BitOp::kInv, {src_p}, dst_p, false));
  const reliability::Counters before = rel_counters();
  scatter(dst_p, gather(src_p));
  trace_reliability(before);
}

void PimRuntime::reset_cost() {
  cost_ = {};
  profile_ = {};
  tally_ = {};
  commands_.clear();
  if (relmgr_) relmgr_->counters() = {};
}

void PimRuntime::reset_campaign() {
  PIN_CHECK_MSG(!in_batch_, "reset_campaign inside an open batch");
  vectors_.clear();
  next_handle_ = 1;
  alloc_ = RowAllocator(mem_.geometry(), opts_.policy, alloc_.spare_rows());
  mem_.reset_campaign();  // rows, wear ledger, remaps, sense epoch
  if (fault_model_) fault_model_->reset();
  if (relmgr_) relmgr_->reset();
  if (cpu_) cpu_->reset();  // the fallback model's simulated cache
  batch_plans_.clear();
  reset_cost();
}

}  // namespace pinatubo::core
