#include "pinatubo/driver.hpp"

#include <algorithm>

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
  // Each bank_share-long run of vector bits maps to a contiguous bit range
  // of one bank row, so scatter/gather move whole chunks with
  // copy_bits instead of walking bits.  Scatter stays read-modify-write +
  // one write_row per touched bank so the wear ledger sees exactly one
  // full-row write per physical row activation, as before.
  const auto& g = mem_.geometry();
  const std::uint64_t step = g.sense_step_bits();
  const std::uint64_t bank_share = step / g.banks_per_chip;
  const std::uint64_t group_bits = static_cast<std::uint64_t>(p.stripes) * step;
  for (std::uint64_t grp = 0; grp < p.groups; ++grp) {
    std::vector<BitVector> bank_rows;
    std::vector<bool> touched(g.banks_per_chip, false);
    bank_rows.reserve(g.banks_per_chip);
    const unsigned rk = p.group_rank(grp, g.ranks_per_channel);
    const unsigned row = p.group_row(grp, g.ranks_per_channel);
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      mem::RowAddr a{p.channel, rk, b, p.subarray, row};
      bank_rows.push_back(mem_.read_row(a));
    }
    const std::uint64_t base = grp * group_bits;
    const std::uint64_t count = std::min<std::uint64_t>(
        group_bits, v.size() > base ? v.size() - base : 0);
    for (std::uint64_t q = 0; q < count;) {
      const std::uint64_t within = q % step;
      const auto b = static_cast<unsigned>(within / bank_share);
      const std::uint64_t in_share = within % bank_share;
      const std::uint64_t len = std::min(bank_share - in_share, count - q);
      const std::size_t bit =
          (p.col_stripe + q / step) * bank_share + in_share;
      copy_bits(bank_rows[b].words(), bit, v.words(), base + q, len);
      touched[b] = true;
      q += len;
    }
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      if (!touched[b]) continue;
      mem::RowAddr a{p.channel, rk, b, p.subarray, row};
      store_row(a, bank_rows[b]);
    }
  }
}

void PimRuntime::store_row(const mem::RowAddr& addr, const BitVector& data) {
  if (relmgr_)
    relmgr_->write(addr, 0, data);
  else
    mem_.write_row(addr, data);
}

void PimRuntime::store_window(const mem::RowAddr& addr, std::size_t bit_offset,
                              const BitVector& data) {
  if (relmgr_)
    relmgr_->write(addr, bit_offset, data);
  else
    mem_.write_row_partial(addr, bit_offset, data);
}

BitVector PimRuntime::gather(const Placement& p) const {
  const auto& g = mem_.geometry();
  const std::uint64_t step = g.sense_step_bits();
  const std::uint64_t bank_share = step / g.banks_per_chip;
  const std::uint64_t group_bits = static_cast<std::uint64_t>(p.stripes) * step;
  BitVector v(p.bits);
  for (std::uint64_t grp = 0; grp < p.groups; ++grp) {
    const unsigned rk = p.group_rank(grp, g.ranks_per_channel);
    const unsigned row = p.group_row(grp, g.ranks_per_channel);
    const std::uint64_t base = grp * group_bits;
    const std::uint64_t count = std::min<std::uint64_t>(
        group_bits, v.size() > base ? v.size() - base : 0);
    // Chunk-wise zero-copy reads straight from the row arenas.
    for (std::uint64_t q = 0; q < count;) {
      const std::uint64_t within = q % step;
      const auto b = static_cast<unsigned>(within / bank_share);
      const std::uint64_t in_share = within % bank_share;
      const std::uint64_t len = std::min(bank_share - in_share, count - q);
      const std::size_t bit =
          (p.col_stripe + q / step) * bank_share + in_share;
      mem::RowAddr a{p.channel, rk, b, p.subarray, row};
      copy_bits(v.words(), base + q, mem_.row_view(a), bit, len);
      q += len;
    }
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

void PimRuntime::execute_intra(const OpPlan& plan, const Placement& dst) {
  const auto& g = mem_.geometry();
  const std::uint64_t bank_share = g.sense_step_bits() / g.banks_per_chip;
  const std::size_t win_lo = dst.col_stripe * bank_share;
  const std::size_t win_len = dst.stripes * bank_share;
  // The plan's intra steps lead it, group by group.  Each group senses
  // bank by bank, each bank running the group's whole activation chain:
  // the sense epochs (and with them the analog and fault draws) follow
  // group -> bank -> step order.
  const std::vector<PlanStep>& steps = plan.steps;
  auto intra = [&](std::size_t i) {
    return i < steps.size() && steps[i].kind == StepKind::kIntraSub;
  };
  for (std::size_t first = 0, end = 0; intra(first); first = end) {
    end = first + 1;
    while (intra(end) && steps[end].group == steps[first].group) ++end;
    for (unsigned b = 0; b < g.banks_per_chip; ++b) {
      for (std::size_t i = first; i < end; ++i) {
        const PlanStep& st = steps[i];
        BitVector window(win_len);
        copy_bits(window.words(), 0,
                  mem_.sense_rows(in_bank(st.reads, b), st.op).words(),
                  win_lo, win_len);
        mem_.write_row_partial(in_bank(st.write, b), win_lo, window);
      }
    }
  }
}

bool PimRuntime::execute_intra_reliable(const OpPlan& plan,
                                        const Placement& dst,
                                        OpPlan& executed) {
  for (const PlanStep& st : plan.steps)
    if (st.kind == StepKind::kIntraSub &&
        !reliable_activation(st, dst, executed))
      return false;
  return true;
}

bool PimRuntime::reliable_activation(const PlanStep& step,
                                     const Placement& dst, OpPlan& executed) {
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
    // Sense every bank of the lock-step cluster; verify per the policy.
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
    if (rel.verify.sense == SenseVerify::kDouble)
      executed.steps.push_back(
          priced(step, StepKind::kIntraSub, k, false, attempt));
    executed.steps.push_back(priced(step, StepKind::kIntraSub, k, ok, attempt));
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

    // Commit through the verified write path (detects persistent faults in
    // the destination row and remaps them while the true result is known).
    const std::uint64_t remaps_before = relmgr_->counters().remaps;
    for (unsigned b = 0; b < g.banks_per_chip; ++b)
      store_window(in_bank(step.write, b), win_lo, sensed[b]);
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
    for (std::uint64_t i = remaps_before; i < relmgr_->counters().remaps;
         ++i) {
      PlanStep rm = priced(on_write(), StepKind::kIntraSub, 1, true, attempt);
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
    if (!reliable_activation(
            with_reads(step, {step.reads.begin(), mid}), dst, executed))
      return false;
    std::vector<mem::RowAddr> rest{step.write};  // holds the first half
    rest.insert(rest.end(), mid, step.reads.end());
    return reliable_activation(with_reads(step, std::move(rest)), dst,
                               executed);
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
  const reliability::Counters before = rel_counters();

  if (intra && relmgr_) {
    // Analog path under the recovery ladder.  Snapshot dst-aliasing
    // operands first: a partially-executed chain overwrites dst, and the
    // CPU fallback must still see the original operand values.
    std::vector<std::optional<BitVector>> snapshots(src_p.size());
    if (opts_.reliability.retry.cpu_fallback) {
      for (std::size_t i = 0; i < src_p.size(); ++i)
        if (src_p[i].rows_overlap(dst_p)) snapshots[i] = gather(src_p[i]);
    }
    OpPlan executed;
    executed.op = op;
    executed.bits = dst_p.bits;
    const bool ok = execute_intra_reliable(plan, dst_p, executed);
    if (ok) {
      // Reuse the scheduler's host-read tail on the executed plan.
      for (auto& st : plan.steps)
        if (st.kind == StepKind::kHostRead)
          executed.steps.push_back(std::move(st));
      submit(std::move(executed));
    } else {
      PIN_CHECK_MSG(opts_.reliability.retry.cpu_fallback,
                    "recovery ladder exhausted for "
                        << to_string(op)
                        << " and retry.cpu_fallback is disabled");
      submit(std::move(executed));  // the failed attempts still cost time
      fallback_op(op, src_p, dst_p, snapshots, srcs, dst, host_reads_result);
    }
  } else {
    // Admitted first, so a plan the verifier rejects leaves memory
    // untouched; executed before it is enqueued, so pricing takes the plan
    // by move.  Functional execution is eager even inside a batch: program
    // order keeps interleaved pim_write / pim_read semantics; only pricing
    // defers.
    admit(plan);
    if (intra) {
      execute_intra(plan, dst_p);
    } else {
      // Buffer paths compute exactly in digital logic (the scatter may
      // detect write faults).
      std::vector<BitVector> operands;
      operands.reserve(src_p.size());
      for (const auto& p : src_p) operands.push_back(gather(p));
      std::vector<const BitVector*> ptrs;
      for (const auto& v : operands) ptrs.push_back(&v);
      scatter(dst_p, BitVector::reduce(op, ptrs));
    }
    enqueue(std::move(plan));
  }
  trace_reliability(before);
}

void PimRuntime::fallback_op(BitOp op, const std::vector<Placement>& src_p,
                             const Placement& dst_p,
                             const std::vector<std::optional<BitVector>>& snapshots,
                             const std::vector<Handle>& srcs, Handle dst,
                             bool host_reads_result) {
  // Functional: recompute from the stored operands (clean — persistent
  // faults were healed at write time), or the pre-op snapshot when the
  // operand aliased dst.  The result is exact by construction.
  std::vector<BitVector> operands;
  operands.reserve(src_p.size());
  for (std::size_t i = 0; i < src_p.size(); ++i)
    operands.push_back(snapshots[i] ? *snapshots[i] : gather(src_p[i]));
  std::vector<const BitVector*> ptrs;
  for (const auto& v : operands) ptrs.push_back(&v);
  scatter(dst_p, BitVector::reduce(op, ptrs));

  // Costed: the whole op runs as a CPU bulk kernel streaming from PCM
  // (operand reads + result write included — no extra host-read steps, or
  // the transfer would be double-counted).
  if (!cpu_)
    cpu_ = std::make_unique<sim::SimdCpuModel>(sim::CpuConfig{},
                                               sim::MemKind::kPcm);
  sim::TraceOp top;
  top.op = op;
  top.srcs = srcs;
  top.dst = dst;
  top.bits = dst_p.bits;
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

void PimRuntime::pim_op_batch(const std::vector<BatchOp>& ops) {
  pim_begin();
  for (const auto& o : ops) pim_op(o.op, o.srcs, o.dst, false);
  pim_barrier();
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
