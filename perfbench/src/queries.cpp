// Query workloads: FastBit-style COUNT queries executed functionally through
// PimRuntime over a 2^14-row bitmap index, one closed-loop client.
// `pim_queries` runs with nominal sensing and no faults; `pim_faulty` runs
// the identical query and write stream under the end-of-life policy of
// configs/faulty.cfg (readback verify, retry ladder, wear-out past a
// 200-write knee).
#include <optional>

#include "apps/bitmap_index.hpp"
#include "common/config.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pinatubo;

namespace {

/// 2^14 rows keep the index's bitmaps (128 of 2 KiB) and their copies in
/// L2.  At 2^16 rows they spill out of it, and one memory-streaming
/// process on another core slowed the faulty workload by ~30%.
constexpr unsigned kIndexRowsLog = 14;
/// Queries per campaign.  Under the faulty policy the scratch rows pass the
/// wear-out knee within a campaign and heal by remap; at 500 queries a
/// subarray runs out of its 4 spare rows, which ends the campaign with an
/// error by design, and at 250 every campaign of the golden seeds ends
/// within its spares.
constexpr std::size_t kQueriesPerCampaign = 250;
/// Campaigns per round, each with its own query set: 1000 distinct
/// queries, so that ten lie beyond p99.
constexpr std::size_t kCampaigns = 4;
/// Bin bitmaps rewritten (same contents) after each query.
constexpr unsigned kRewritesPerQuery = 1;

/// configs/faulty.cfg, spelled out so the benchmark does not follow later
/// edits of that file.  `verify.level` (the static verifier) is set apart.
constexpr const char* kFaultyPolicy =
    "fault.enabled = true\n"
    "fault.seed = 1\n"
    "fault.stuck_rate = 1e-7\n"
    "fault.sense_ber = 1e-5\n"
    "fault.drift_rate = 0.001\n"
    "fault.endurance_cycles = 200\n"
    "fault.wearout_rate = 0.05\n"
    "verify.sense = readback\n"
    "verify.writes = readback\n"
    "retry.max_resense = 2\n"
    "retry.deescalate = true\n"
    "retry.remap = true\n"
    "retry.cpu_fallback = true\n"
    "retry.spare_rows = 4\n";

class PimQueries final : public Workload {
 public:
  PimQueries(std::uint64_t seed, bool faulty) : seed_(seed), faulty_(faulty) {
    cfg_.rows = 1ull << kIndexRowsLog;
  }

  void setup(Tracer& tr) override {
    {
      const auto s = tr.scope("apps.index_build");
      index_.emplace(cfg_, seed_);
    }
    {
      const auto s = tr.scope("apps.query_trace");
      queries_ = apps::generate_queries(cfg_, kCampaigns * kQueriesPerCampaign,
                                        seed_ + 1);
    }
    expected_.clear();
    for (const auto& q : queries_)
      expected_.push_back(apps::count_matches_reference(*index_, q));
    new_campaign(tr);
  }

  RoundResult round(Tracer& tr, Checker& chk) override {
    RoundResult r;
    std::uint64_t count_sum = 0;
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      speed_probe().tick();
      const auto c0 = Clock::now();
      new_campaign(tr);
      r.parts_s.push_back(seconds_since(c0));
      const unsigned total_bins = cfg_.attributes * cfg_.bins;
      unsigned cursor = 0;
      for (std::size_t i = 0; i < kQueriesPerCampaign; ++i) {
        const std::size_t qi = c * kQueriesPerCampaign + i;
        speed_probe().tick();
        const auto q0 = Clock::now();
        std::uint64_t count = 0;
        {
          const auto s = tr.scope("query");
          count = run_query(queries_[qi], tr);
        }
        r.samples_ms.push_back(seconds_since(q0) * 1e3);
        chk.expect_eq(static_cast<double>(count),
                      static_cast<double>(expected_[qi]), "query COUNT");
        count_sum += count;
        for (unsigned k = 0; k < kRewritesPerQuery; ++k, ++cursor) {
          const unsigned a = (cursor % total_bins) / cfg_.bins;
          const unsigned b = cursor % cfg_.bins;
          const auto s = tr.scope("pinatubo.write");
          pim_->pim_write(by_id_[index_->bitmap_id(a, b)],
                          index_->bin_bitmap(a, b));
        }
        r.parts_s.push_back(seconds_since(q0));
      }
      accrue_campaign(r.exact);
    }
    r.exact["query.count_sum"] = static_cast<double>(count_sum);
    r.ops = static_cast<std::uint64_t>(r.exact["pim.ops"]);
    r.pim_time_ns = r.exact["pim.time_ns"];
    r.pim_energy_pj = r.exact["pim.energy_pj"];
    if (!faulty_)
      chk.expect_eq(r.exact["rel.detected_faults"] + r.exact["rel.retries"] +
                        r.exact["rel.remaps"] + r.exact["rel.fallbacks"],
                    0.0, "pim_queries runs without faults");
    return r;
  }

  void layer_metrics(const Tracer& tr, std::size_t setups, std::size_t rounds,
                     const RoundResult& last, Metrics& out) override {
    const auto s = tr.by_name();
    const double per_setup = 1.0 / static_cast<double>(setups);
    for (const char* n : {"apps.index_build", "apps.query_trace"})
      out[std::string(n) + "_ms"].value = self_ms(s, n) * per_setup;
    // The index is loaded once per set-up and once per campaign.
    out["pinatubo.malloc_us"].value =
        self_ms(s, "pinatubo.malloc") * 1e3 /
        static_cast<double>(setups + rounds * kCampaigns);
    for (const char* n : {"pinatubo.write", "pinatubo.op", "pinatubo.barrier",
                          "pinatubo.read"})
      out[std::string(n) + "_us_p50"].value = p50_us(s, n);
    out["bitvec.popcount_us"].value = p50_us(s, "bitvec.popcount");

    const Values& v = last.exact;
    for (const auto& [key, value] : v) {
      // `rest` is what follows `prefix` in `key`, when `key` starts with it.
      std::string rest;
      const auto starts = [&](const std::string& prefix) {
        if (key.compare(0, prefix.size(), prefix) != 0) return false;
        rest = key.substr(prefix.size());
        return true;
      };
      if (starts("pim.class_time_ns.")) {
        out["machine.time_ms." + rest].value = value * 1e-6;
      } else if (starts("pim.energy_pj.")) {
        const std::string name = "machine.energy_mj." + rest;
        out[out.count(name) ? name : "machine.energy_mj.other"].value +=
            value * 1e-9;
      } else if (starts("pim.steps.")) {
        out["pinatubo.steps." + rest].value = value;
      } else if (starts("rel.") && rest != "fallback_time_ns") {
        out["reliability." + rest].value = value;
      }
    }
    out["pinatubo.bus_bytes"].value = v.at("pim.bus_bytes");
    out["pinatubo.batches"].value = v.at("pim.batches");
    out["machine.overlap_x"].value =
        v.at("pim.serial_time_ns") / v.at("pim.time_ns");
    out["reliability.retries_per_op"].value =
        v.at("rel.retries") / v.at("pim.ops");
    out["reliability.fallback_time_ms"].value =
        v.at("rel.fallback_time_ns") * 1e-6;
  }

 private:
  using Handle = core::PimRuntime::Handle;

  /// A fresh runtime with the index loaded.  Each campaign gets its own
  /// runtime rather than PimRuntime::reset_campaign: the reset keeps the
  /// CPU-fallback cost model's simulated cache contents, so a reset
  /// campaign prices its fallbacks differently from the first one.
  void new_campaign(Tracer& tr) {
    core::PimRuntime::Options opts;
    opts.tech = nvm::Tech::kPcm;
    opts.fidelity = mem::SenseFidelity::kNominal;
    opts.policy = core::AllocPolicy::kPimAware;
    opts.max_rows = 128;
    opts.result_density = 0.5;
    opts.record_commands = false;
    opts.serial_execution = false;
    opts.seed = 1;
    if (faulty_)
      opts.reliability =
          reliability::policy_from_config(Config::from_string(kFaultyPolicy));
    opts.reliability.verify.level = reliability::VerifyLevel::kOff;
    pim_.emplace(mem::Geometry{}, opts);
    load(tr);
  }

  /// Adds the finished campaign's machine clock and counts to `v`.
  void accrue_campaign(Values& v) const {
    static const char* const kClass[] = {"intra", "inter_sub", "inter_bank",
                                         "host_read"};
    const auto& st = pim_->stats();
    const auto& cost = pim_->cost();
    v["pim.time_ns"] += cost.time_ns;
    v["pim.energy_pj"] += cost.energy.total_pj();
    for (const auto& [component, pj] : cost.energy.components())
      v["pim.energy_pj." + component] += pj;
    for (std::size_t k = 0; k < core::kStepKindCount; ++k)
      v[std::string("pim.class_time_ns.") + kClass[k]] +=
          st.by_class[k].time_ns;
    v["pim.serial_time_ns"] += st.serial_time_ns;
    v["pim.ops"] += static_cast<double>(st.ops);
    v["pim.steps.intra"] += static_cast<double>(st.intra_steps);
    v["pim.steps.inter_sub"] += static_cast<double>(st.inter_sub_steps);
    v["pim.steps.inter_bank"] += static_cast<double>(st.inter_bank_steps);
    v["pim.steps.host_read"] += static_cast<double>(st.host_reads);
    v["pim.batches"] += static_cast<double>(st.batches);
    v["pim.bus_bytes"] += static_cast<double>(st.bus_bytes);
    v["rel.detected_faults"] += static_cast<double>(st.detected_faults);
    v["rel.retries"] += static_cast<double>(st.retries);
    v["rel.deescalations"] += static_cast<double>(st.deescalations);
    v["rel.remaps"] += static_cast<double>(st.remaps);
    v["rel.fallbacks"] += static_cast<double>(st.fallbacks);
    v["rel.fallback_time_ns"] += st.fallback_time_ns;
  }

  /// Allocates every index id and writes the bin bitmaps.
  void load(Tracer& tr) {
    const std::uint64_t block = 2ull * cfg_.bins + cfg_.scratch_per_pair;
    const std::uint64_t total_ids = (cfg_.attributes / 2) * block;
    by_id_.assign(total_ids, 0);
    for (std::uint64_t id = 0; id < total_ids; ++id) {
      const auto s = tr.scope("pinatubo.malloc");
      by_id_[id] = pim_->pim_malloc(cfg_.rows);
    }
    for (unsigned a = 0; a < cfg_.attributes; ++a)
      for (unsigned b = 0; b < cfg_.bins; ++b) {
        const auto s = tr.scope("pinatubo.write");
        pim_->pim_write(by_id_[index_->bitmap_id(a, b)],
                        index_->bin_bitmap(a, b));
      }
  }

  void op(BitOp o, const std::vector<Handle>& srcs, Handle dst, Tracer& tr,
          bool host_reads = false) {
    const auto s = tr.scope("pinatubo.op");
    pim_->pim_op(o, srcs, dst, host_reads);
  }

  /// One COUNT query as one batch: predicates into their pair's scratch
  /// rows (bin-range OR, INV for negation), then an AND chain whose result
  /// the host reads and popcounts.
  std::uint64_t run_query(const apps::Query& q, Tracer& tr) {
    pim_->pim_begin();
    std::vector<unsigned> pair_use(cfg_.attributes / 2 + 1, 0);
    std::vector<Handle> pred;
    for (const auto& p : q.preds) {
      const Handle slot =
          by_id_[index_->scratch_id(p.attr, pair_use[p.attr / 2]++)];
      if (p.hi_bin > p.lo_bin) {
        std::vector<Handle> bins;
        for (unsigned b = p.lo_bin; b <= p.hi_bin; ++b)
          bins.push_back(by_id_[index_->bitmap_id(p.attr, b)]);
        op(BitOp::kOr, bins, slot, tr);
        if (p.negate) op(BitOp::kInv, {slot}, slot, tr);
        pred.push_back(slot);
      } else if (p.negate) {
        op(BitOp::kInv, {by_id_[index_->bitmap_id(p.attr, p.lo_bin)]}, slot,
           tr);
        pred.push_back(slot);
      } else {
        pred.push_back(by_id_[index_->bitmap_id(p.attr, p.lo_bin)]);
      }
    }
    const Handle out = by_id_[index_->scratch_id(
        q.preds[0].attr, pair_use[q.preds[0].attr / 2]++)];
    for (std::size_t i = 1; i < pred.size(); ++i)
      op(BitOp::kAnd, {i == 1 ? pred[0] : out, pred[i]}, out, tr,
         i + 1 == pred.size());
    {
      const auto s = tr.scope("pinatubo.barrier");
      pim_->pim_barrier();
    }
    std::optional<BitVector> result;
    {
      const auto s = tr.scope("pinatubo.read");
      result.emplace(pim_->pim_read(out));
    }
    const auto s = tr.scope("bitvec.popcount");
    return result->popcount();
  }

  std::uint64_t seed_;
  bool faulty_;
  apps::IndexConfig cfg_;
  std::optional<apps::BitmapIndex> index_;
  std::vector<apps::Query> queries_;
  std::vector<std::uint64_t> expected_;
  std::optional<core::PimRuntime> pim_;
  std::vector<Handle> by_id_;
};

}  // namespace

std::unique_ptr<Workload> make_pim_queries(std::uint64_t seed, bool faulty) {
  return std::make_unique<PimQueries>(seed, faulty);
}

}  // namespace perfbench
