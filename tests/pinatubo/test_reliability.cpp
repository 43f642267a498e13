// The reliability subsystem end to end through the runtime: fault
// campaigns recover to bit-exact results, the escalation ladder's rungs
// (retry, de-escalate, remap, CPU fallback) each fire and are priced,
// corruption is observable when detection is off (the control), results
// are deterministic across thread counts and serial-vs-batched, and
// reset_campaign makes back-to-back campaigns independent.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "obs/trace.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"
#include "verify/verifier.hpp"

namespace pinatubo::core {
namespace {

/// The stressed end-of-life corner the default campaign runs at.
reliability::Policy stressed_policy() {
  reliability::Policy p;
  p.fault.enabled = true;
  p.fault.seed = 3;
  p.fault.stuck_rate = 1e-7;
  p.fault.sense_ber = 1e-5;
  p.verify.sense = reliability::SenseVerify::kReadback;
  p.verify.writes = reliability::WriteVerify::kReadback;
  p.retry.max_resense = 2;
  p.retry.spare_rows = 8;
  return p;
}

struct CampaignResult {
  std::vector<BitVector> finals;
  std::uint64_t wrong = 0;
  PimRuntime::Stats stats;
  double time_ns = 0.0;
};

/// A mini fault campaign: mixed ops over one-stripe vectors (all on the
/// fault-prone intra-subarray path), golden-checked after every op.
CampaignResult run_campaign_on(PimRuntime& pim, bool batched,
                               unsigned n_ops = 40) {
  const std::uint64_t bits = pim.geometry().sense_step_bits();
  const std::size_t n_vecs = 8;
  Rng rng(7);
  std::vector<PimRuntime::Handle> vecs(n_vecs);
  std::vector<BitVector> golden(n_vecs);
  for (std::size_t i = 0; i < n_vecs; ++i) {
    vecs[i] = pim.pim_malloc(bits);
    golden[i] = BitVector::random(bits, 0.3, rng);
    pim.pim_write(vecs[i], golden[i]);
  }

  CampaignResult res;
  for (unsigned it = 0; it < n_ops; ++it) {
    if (batched && it % 4 == 0) pim.pim_begin();
    const unsigned pick = static_cast<unsigned>(rng.next() % 8);
    BitOp op = BitOp::kOr;
    std::size_t fan = 2 + rng.next() % 4;
    if (pick == 5) op = BitOp::kAnd, fan = 2;
    if (pick == 6) op = BitOp::kXor, fan = 2;
    if (pick == 7) op = BitOp::kInv, fan = 1;
    std::vector<std::size_t> idx(n_vecs);
    for (std::size_t i = 0; i < n_vecs; ++i) idx[i] = i;
    for (std::size_t i = 0; i < fan; ++i)
      std::swap(idx[i], idx[i + rng.next() % (n_vecs - i)]);
    const std::size_t dst = idx[rng.next() % fan];
    std::vector<PimRuntime::Handle> srcs;
    std::vector<const BitVector*> gsrcs;
    for (std::size_t i = 0; i < fan; ++i) {
      srcs.push_back(vecs[idx[i]]);
      gsrcs.push_back(&golden[idx[i]]);
    }
    pim.pim_op(op, srcs, vecs[dst]);
    golden[dst] = BitVector::reduce(op, gsrcs);
    // Reads interleave with an open batch window (execution is eager).
    if (pim.pim_read(vecs[dst]) != golden[dst]) ++res.wrong;
    if (batched && (it % 4 == 3 || it + 1 == n_ops)) pim.pim_barrier();
  }
  for (const auto h : vecs) res.finals.push_back(pim.pim_read(h));
  res.stats = pim.stats();
  res.time_ns = pim.cost().time_ns;
  return res;
}

CampaignResult run_campaign(const reliability::Policy& pol,
                            bool batched = false, unsigned n_ops = 40) {
  PimRuntime::Options opts;
  opts.reliability = pol;
  PimRuntime pim({}, opts);
  return run_campaign_on(pim, batched, n_ops);
}

TEST(Reliability, CampaignRecoversToZeroWrongResults) {
  const auto r = run_campaign(stressed_policy());
  EXPECT_EQ(r.wrong, 0u);
  // Nothing escaped AND something was actually tested.
  EXPECT_GT(r.stats.detected_faults, 0u);
  EXPECT_GT(r.stats.retries, 0u);
}

TEST(Reliability, CorruptionObservableWithoutDetection) {
  // The control experiment: same chip, same fault seed, detection off —
  // the injected faults must now corrupt visible results.
  reliability::Policy blind = stressed_policy();
  blind.verify = {};
  const auto r = run_campaign(blind);
  EXPECT_GT(r.wrong, 0u);
  EXPECT_EQ(r.stats.detected_faults, 0u);
  EXPECT_EQ(r.stats.fallbacks, 0u);
}

TEST(Reliability, DeterministicAcrossThreadCountsAndBatching) {
  const auto baseline = run_campaign(stressed_policy());
  ThreadPool::set_global_threads(5);
  const auto threaded = run_campaign(stressed_policy());
  ThreadPool::set_global_threads(1);
  const auto serial = run_campaign(stressed_policy());
  ThreadPool::set_global_threads(0);
  const auto batched = run_campaign(stressed_policy(), /*batched=*/true);

  for (const auto* r : {&threaded, &serial, &batched}) {
    EXPECT_EQ(r->finals, baseline.finals);
    EXPECT_EQ(r->wrong, baseline.wrong);
    EXPECT_EQ(r->stats.detected_faults, baseline.stats.detected_faults);
    EXPECT_EQ(r->stats.retries, baseline.stats.retries);
    EXPECT_EQ(r->stats.deescalations, baseline.stats.deescalations);
    EXPECT_EQ(r->stats.remaps, baseline.stats.remaps);
    EXPECT_EQ(r->stats.fallbacks, baseline.stats.fallbacks);
  }
  // Sync and batched price the same steps (batching only overlaps them).
  EXPECT_DOUBLE_EQ(threaded.time_ns, baseline.time_ns);
}

TEST(Reliability, EscalationIsPricedIntoTheCostModel) {
  // The same workload on a clean chip vs the stressed one: every failed
  // attempt, verify step and fallback must make the faulty run DEARER.
  const auto clean = run_campaign(reliability::Policy{});
  const auto faulty = run_campaign(stressed_policy());
  ASSERT_GT(faulty.stats.retries, 0u);
  EXPECT_GT(faulty.time_ns, clean.time_ns);
  EXPECT_GT(faulty.stats.intra_steps, clean.stats.intra_steps);
  EXPECT_EQ(clean.stats.detected_faults, 0u);
}

TEST(Reliability, DeescalationSplitsWideActivations) {
  // 16-operand ORs with no re-sense budget: a failed wide activation can
  // only proceed by splitting (16 -> 2x8 -> ...), which genuinely lowers
  // the injected BER (sense_ber scales with activation width).
  reliability::Policy pol = stressed_policy();
  pol.retry.max_resense = 0;
  PimRuntime::Options opts;
  opts.reliability = pol;
  PimRuntime pim({}, opts);
  const std::uint64_t bits = pim.geometry().sense_step_bits();
  Rng rng(11);
  std::vector<PimRuntime::Handle> vecs;
  std::vector<BitVector> golden;
  for (int i = 0; i < 16; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    golden.push_back(BitVector::random(bits, 0.2, rng));
    pim.pim_write(vecs.back(), golden.back());
  }
  std::vector<const BitVector*> gsrcs;
  for (const auto& g : golden) gsrcs.push_back(&g);
  const BitVector expect = BitVector::reduce(BitOp::kOr, gsrcs);
  for (int round = 0; round < 6; ++round) {
    pim.pim_op(BitOp::kOr, vecs, vecs[0]);
    EXPECT_EQ(pim.pim_read(vecs[0]), expect);  // kOr: idempotent dst
  }
  EXPECT_GT(pim.stats().deescalations, 0u);
}

TEST(Reliability, CpuFallbackIsTheLastRungAndIsPriced) {
  // An absurd BER with every other rung disabled: the op must complete
  // on the CPU path, correctly, with its cost accounted.
  reliability::Policy pol;
  pol.fault.enabled = true;
  pol.fault.seed = 5;
  pol.fault.sense_ber = 0.5;
  pol.verify.sense = reliability::SenseVerify::kReadback;
  pol.verify.writes = reliability::WriteVerify::kNone;
  pol.retry.max_resense = 0;
  pol.retry.deescalate = false;
  pol.retry.remap = false;
  PimRuntime::Options opts;
  opts.reliability = pol;
  PimRuntime pim({}, opts);
  const std::uint64_t bits = pim.geometry().sense_step_bits();
  Rng rng(13);
  const auto a = pim.pim_malloc(bits), b = pim.pim_malloc(bits);
  const auto va = BitVector::random(bits, 0.5, rng);
  const auto vb = BitVector::random(bits, 0.5, rng);
  pim.pim_write(a, va);
  pim.pim_write(b, vb);
  const double before = pim.cost().time_ns;
  pim.pim_op(BitOp::kOr, {a, b}, a);
  EXPECT_EQ(pim.pim_read(a), (va | vb));
  EXPECT_EQ(pim.stats().fallbacks, 1u);
  EXPECT_GT(pim.stats().detected_faults, 0u);
  EXPECT_GT(pim.stats().fallback_time_ns, 0.0);
  // The accrued cost grew by at least the CPU path's share.
  EXPECT_GE(pim.cost().time_ns - before, pim.stats().fallback_time_ns);
}

TEST(Reliability, ExhaustedLadderWithoutFallbackFailsLoudly) {
  reliability::Policy pol;
  pol.fault.enabled = true;
  pol.fault.sense_ber = 0.5;
  pol.verify.sense = reliability::SenseVerify::kReadback;
  pol.verify.writes = reliability::WriteVerify::kNone;
  pol.retry.max_resense = 0;
  pol.retry.deescalate = false;
  pol.retry.cpu_fallback = false;
  PimRuntime::Options opts;
  opts.reliability = pol;
  PimRuntime pim({}, opts);
  const std::uint64_t bits = pim.geometry().sense_step_bits();
  Rng rng(13);
  const auto a = pim.pim_malloc(bits), b = pim.pim_malloc(bits);
  pim.pim_write(a, BitVector::random(bits, 0.5, rng));
  pim.pim_write(b, BitVector::random(bits, 0.5, rng));
  EXPECT_THROW(pim.pim_op(BitOp::kOr, {a, b}, a), Error);
}

TEST(Reliability, RemapHealsPersistentlyBadRows) {
  // A high manufacturing defect rate with write-verify: bad rows are
  // caught at write time (the intended data is still in hand) and moved
  // to spares — every vector reads back exactly.
  reliability::Policy pol;
  pol.fault.enabled = true;
  pol.fault.seed = 17;
  pol.fault.stuck_rate = 1e-6;  // ~40% of 2^19-cell rank-rows defective
  pol.verify.sense = reliability::SenseVerify::kNone;
  pol.verify.writes = reliability::WriteVerify::kReadback;
  pol.retry.spare_rows = 32;
  PimRuntime::Options opts;
  opts.reliability = pol;
  PimRuntime pim({}, opts);
  const std::uint64_t bits = pim.geometry().sense_step_bits();
  Rng rng(19);
  std::vector<PimRuntime::Handle> vecs;
  std::vector<BitVector> golden;
  for (int i = 0; i < 16; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    golden.push_back(BitVector::random(bits, 0.5, rng));
    pim.pim_write(vecs.back(), golden.back());
  }
  EXPECT_GT(pim.stats().remaps, 0u);
  EXPECT_GT(pim.memory().remapped_rows(), 0u);
  for (std::size_t i = 0; i < vecs.size(); ++i)
    EXPECT_EQ(pim.pim_read(vecs[i]), golden[i]) << "vector " << i;
}

TEST(Reliability, RemapRewritesPassTheAlwaysOnVerifier) {
  // A small wear-out campaign: chained OR (max_rows = 2) hammers one
  // accumulator row past its endurance knee until write-verify remaps it.
  // With the static verifier at kAlways every plan the ladder submits,
  // remap rewrites included, must be admitted, and results stay exact.
  PimRuntime::Options opts;
  opts.max_rows = 2;
  opts.reliability.fault.enabled = true;
  opts.reliability.fault.endurance_cycles = 50;
  opts.reliability.fault.wearout_rate = 0.1;
  opts.reliability.verify.sense = reliability::SenseVerify::kNone;
  opts.reliability.verify.writes = reliability::WriteVerify::kReadback;
  opts.reliability.verify.level = reliability::VerifyLevel::kAlways;
  opts.reliability.retry.spare_rows = 16;
  PimRuntime pim({}, opts);
  ASSERT_NE(pim.verifier(), nullptr);
  const std::uint64_t bits = pim.geometry().sense_step_bits();
  Rng rng(5);
  std::vector<PimRuntime::Handle> vecs;
  std::vector<BitVector> golden;
  for (int i = 0; i < 8; ++i) {
    vecs.push_back(pim.pim_malloc(bits));
    golden.push_back(BitVector::random(bits, 0.3, rng));
    pim.pim_write(vecs.back(), golden.back());
  }
  std::vector<const BitVector*> gsrcs;
  for (const auto& g : golden) gsrcs.push_back(&g);
  for (int round = 0; round < 40 && pim.stats().remaps == 0; ++round) {
    ASSERT_NO_THROW(pim.pim_op(BitOp::kOr, vecs, vecs.back()));
    golden.back() = BitVector::reduce(BitOp::kOr, gsrcs);
  }
  EXPECT_GT(pim.stats().remaps, 0u);
  EXPECT_EQ(pim.pim_read(vecs.back()), golden.back());
}

TEST(Reliability, ResetCampaignMakesCampaignsIndependent) {
  // Two identical campaigns back to back in one process: the second must
  // reproduce the first bit for bit — vectors, counters, wear and cost.
  // The stressed policy runs the re-sense ladder, each retry on a fresh
  // sense epoch.  The second policy has no re-sense or de-escalation
  // budget, so detected sense faults go straight to the CPU fallback,
  // whose simulated cache must be reset too: a warm cache would make the
  // second campaign's fallbacks cheaper.
  reliability::Policy no_resense = stressed_policy();
  no_resense.retry.max_resense = 0;
  no_resense.retry.deescalate = false;
  for (const bool fallback_only : {false, true}) {
    SCOPED_TRACE(fallback_only ? "no re-sense budget" : "stressed policy");
    PimRuntime::Options opts;
    opts.reliability = fallback_only ? no_resense : stressed_policy();
    PimRuntime pim({}, opts);
    const auto first = run_campaign_on(pim, false);
    const auto wear_first = pim.memory().wear().total_row_writes();
    const mem::EnergyCounter energy_first = pim.cost().energy;
    ASSERT_GT(first.stats.detected_faults, 0u);
    if (fallback_only)
      ASSERT_GT(first.stats.fallbacks, 0u);
    else
      ASSERT_GT(first.stats.retries, 0u);

    pim.reset_campaign();
    EXPECT_EQ(pim.memory().rows_written(), 0u);
    EXPECT_EQ(pim.memory().remapped_rows(), 0u);
    EXPECT_EQ(pim.stats().ops, 0u);
    EXPECT_EQ(pim.cost().time_ns, 0.0);

    const auto second = run_campaign_on(pim, false);
    EXPECT_EQ(second.finals, first.finals);
    EXPECT_EQ(second.wrong, first.wrong);
    EXPECT_EQ(second.stats.detected_faults, first.stats.detected_faults);
    EXPECT_EQ(second.stats.retries, first.stats.retries);
    EXPECT_EQ(second.stats.deescalations, first.stats.deescalations);
    EXPECT_EQ(second.stats.remaps, first.stats.remaps);
    EXPECT_EQ(second.stats.fallbacks, first.stats.fallbacks);
    EXPECT_EQ(second.stats.fallback_energy_pj, first.stats.fallback_energy_pj);
    EXPECT_DOUBLE_EQ(second.time_ns, first.time_ns);
    EXPECT_EQ(pim.cost().energy.components(), energy_first.components());
    EXPECT_EQ(pim.memory().wear().total_row_writes(), wear_first);
  }
}

TEST(Reliability, DisabledPolicyLeavesTheRuntimeUntouched) {
  // Defaults off: bit-for-bit the same behavior and cost as the seed
  // runtime, and no reliability machinery attached.
  PimRuntime pim;
  EXPECT_EQ(pim.fault_model(), nullptr);
  EXPECT_EQ(pim.recovery(), nullptr);
  const auto r = run_campaign(reliability::Policy{});
  EXPECT_EQ(r.wrong, 0u);
  EXPECT_EQ(r.stats.detected_faults, 0u);
  EXPECT_EQ(r.stats.retries, 0u);
}

TEST(Reliability, LadderPricesTheSchedulersIntraSteps) {
  // On a clean chip with only parity write-verify attached, the ladder's
  // first attempt always succeeds, so every intra step it prices must be
  // the scheduler's: same results, same intra time, energy and step count
  // as the default runtime (the parity checks land in the inter-sub class).
  // The stream covers groups rotating across ranks (three groups, the last
  // one short), a dst aliasing a non-first source, 5-way ORs chained at
  // max_rows = 2, and INV, AND and XOR.
  reliability::Policy parity;
  parity.verify.sense = reliability::SenseVerify::kNone;
  parity.verify.writes = reliability::WriteVerify::kParity;
  parity.retry.remap = false;
  for (const unsigned max_rows : {2u, 128u}) {
    SCOPED_TRACE("max_rows = " + std::to_string(max_rows));
    PimRuntime::Options plain_opts;
    plain_opts.max_rows = max_rows;
    PimRuntime::Options ladder_opts = plain_opts;
    ladder_opts.reliability = parity;
    PimRuntime plain({}, plain_opts), ladder({}, ladder_opts);
    ASSERT_EQ(plain.recovery(), nullptr);
    ASSERT_NE(ladder.recovery(), nullptr);

    const mem::Geometry& geo = plain.geometry();
    const std::uint64_t bits =
        2 * geo.row_group_bits() + 3 * geo.sense_step_bits() + 77;
    Rng rng(23);
    std::vector<PimRuntime::Handle> v;
    for (int i = 0; i < 6; ++i) {
      const BitVector data = BitVector::random(bits, 0.3, rng);
      v.push_back(plain.pim_malloc(bits));
      ASSERT_EQ(ladder.pim_malloc(bits), v.back());
      plain.pim_write(v.back(), data);
      ladder.pim_write(v.back(), data);
    }
    struct Op {
      BitOp op;
      std::vector<PimRuntime::Handle> srcs;
      PimRuntime::Handle dst;
    };
    const std::vector<Op> stream = {
        {BitOp::kOr, {v[0], v[1], v[2], v[3], v[4]}, v[5]},
        {BitOp::kOr, {v[1], v[2], v[3], v[4], v[5]}, v[3]},  // aliasing dst
        {BitOp::kInv, {v[3]}, v[0]},
        {BitOp::kAnd, {v[0], v[2]}, v[1]},
        {BitOp::kXor, {v[4], v[1]}, v[1]},
        {BitOp::kOr, {v[0], v[1], v[2], v[3], v[4]}, v[0]},
    };
    for (const auto& o : stream) {
      plain.pim_op(o.op, o.srcs, o.dst);
      ladder.pim_op(o.op, o.srcs, o.dst);
      for (const auto h : v) EXPECT_EQ(ladder.pim_read(h), plain.pim_read(h));
    }

    const auto intra = step_index(StepKind::kIntraSub);
    const ClassProfile& want = plain.profile();
    const ClassProfile& got = ladder.profile();
    ASSERT_GT(want.steps[intra], 0u);
    ASSERT_EQ(want.steps[step_index(StepKind::kInterSub)], 0u);  // all intra
    EXPECT_EQ(got.steps[intra], want.steps[intra]);
    EXPECT_EQ(got.time_ns[intra], want.time_ns[intra]);
    EXPECT_EQ(got.energy_pj[intra], want.energy_pj[intra]);
    EXPECT_GT(got.steps[step_index(StepKind::kInterSub)], 0u);
    EXPECT_EQ(ladder.stats().retries, 0u);
  }
}

TEST(Reliability, ResetCostZeroesTheReliabilityCounts) {
  // reset_cost() zeroes the recovery manager's counters with the cost, so
  // the reliability Stats start over from zero like every other field.
  PimRuntime::Options opts;
  opts.reliability = stressed_policy();
  opts.reliability.retry.max_resense = 0;  // fall back to the CPU too
  opts.reliability.retry.deescalate = false;
  PimRuntime pim({}, opts);
  const auto before = run_campaign_on(pim, false);
  ASSERT_GT(before.stats.detected_faults, 0u);
  ASSERT_GT(before.stats.fallbacks, 0u);
  pim.reset_cost();
  const auto st = pim.stats();
  EXPECT_EQ(st.detected_faults, 0u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.deescalations, 0u);
  EXPECT_EQ(st.remaps, 0u);
  EXPECT_EQ(st.fallbacks, 0u);
  EXPECT_EQ(st.fallback_time_ns, 0.0);
  EXPECT_EQ(st.fallback_energy_pj, 0.0);
  EXPECT_EQ(st.ops, 0u);
  EXPECT_EQ(pim.recovery()->counters().detected_faults, 0u);
  EXPECT_EQ(pim.recovery()->counters().fallbacks, 0u);
}

TEST(Reliability, TraceReconcilesUnderRecovery) {
  // The obs invariants must survive retries, verify steps and fallback:
  // per-class span sums equal the profile, the timeline ends at the
  // accrued cost (CPU-fallback spans tile onto their own track), counters
  // match Stats.
  PimRuntime::Options opts;
  opts.reliability = stressed_policy();
  PimRuntime pim({}, opts);
  obs::TraceSession trace(true);
  pim.set_trace(&trace);
  const auto r = run_campaign_on(pim, false);
  ASSERT_EQ(r.wrong, 0u);
  ASSERT_GT(r.stats.retries, 0u);

  bool saw_retry_span = false, saw_fallback_span = false;
  for (const auto& span : trace.spans()) {
    if (span.name.find("retry") != std::string::npos) saw_retry_span = true;
    if (span.category == "cpu-fallback") saw_fallback_span = true;
  }
  const auto st = pim.stats();
  const verify::Report rep =
      verify::reconcile_trace(trace, pim.profile(), pim.cost().time_ns);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_TRUE(saw_retry_span);
  EXPECT_EQ(saw_fallback_span, st.fallbacks > 0);

  const auto& m = trace.metrics();
  EXPECT_EQ(m.get("pim.detected_faults"), st.detected_faults);
  EXPECT_EQ(m.get("pim.retries"), st.retries);
  EXPECT_EQ(m.get("pim.deescalations"), st.deescalations);
  EXPECT_EQ(m.get("pim.remaps"), st.remaps);
  EXPECT_EQ(m.get("pim.fallbacks"), st.fallbacks);
}

}  // namespace
}  // namespace pinatubo::core
