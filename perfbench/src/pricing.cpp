// Pricing workloads: `paper_figs` prices the reduced Table-1 suite on every
// architecture of Fig. 10/11; `plan_lint` loads the same suite from op-trace
// text and prices it on Pinatubo under the static verifier.
#include <algorithm>
#include <optional>
#include <sstream>

#include "apps/bfs_bitmap.hpp"
#include "apps/bitmap_index.hpp"
#include "apps/graph.hpp"
#include "apps/vector_workload.hpp"
#include "apps/workloads.hpp"
#include "common/error.hpp"
#include "obs/schedule_trace.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/engine.hpp"
#include "pinatubo/scheduler.hpp"
#include "workloads.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/sdram_backend.hpp"
#include "sim/simd_backend.hpp"
#include "sim/trace_io.hpp"
#include "verify/trace_lint.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using namespace pinatubo;

namespace {

// Reduced Table-1 suite.  The sizes keep every trace's SIMD pricing within
// a few times of the others, so no single trace sets the round time, and
// keep one round near half a second on one core.
constexpr unsigned kVectorCountDrop = 8;     ///< 2^-8 of the paper's vectors
constexpr unsigned kGraphNodesLog = 17;      ///< paper presets use 2^19
constexpr unsigned kIndexRowsLog = 18;       ///< paper index uses 2^22
constexpr std::size_t kFastbitQueries = 240; ///< the smallest Fastbit batch

std::vector<apps::NamedTrace> make_suite(std::uint64_t seed, Tracer& tr) {
  std::vector<apps::NamedTrace> out;
  for (apps::VectorSpec spec : apps::paper_vector_specs()) {
    spec.count_log -= std::min(spec.count_log - spec.rows_log,
                               kVectorCountDrop);
    const auto s = tr.scope("apps.vector_trace");
    out.push_back({"Vector", spec.name(), apps::vector_trace(spec, seed)});
  }
  for (apps::DatasetPreset preset :
       {apps::dblp2010_like(), apps::eswiki2013_like(),
        apps::amazon2008_like()}) {
    preset.gen.nodes = 1u << kGraphNodesLog;
    std::optional<apps::Graph> g;
    {
      const auto s = tr.scope("apps.graph_build");
      g.emplace(apps::build_dataset(preset, seed));
    }
    const auto s = tr.scope("apps.bfs_trace");
    auto res = apps::bitmap_bfs(*g);
    res.trace.name = preset.name;
    out.push_back({"Graph", preset.name, std::move(res.trace)});
  }
  apps::IndexConfig cfg;
  cfg.rows = 1ull << kIndexRowsLog;
  std::optional<apps::BitmapIndex> index;
  {
    const auto s = tr.scope("apps.index_build");
    index.emplace(cfg, seed);
  }
  const auto s = tr.scope("apps.query_trace");
  const auto queries =
      apps::generate_queries(cfg, kFastbitQueries, seed + kFastbitQueries);
  auto res = apps::run_queries(*index, queries);
  res.trace.name = std::to_string(kFastbitQueries);
  out.push_back({"Fastbit", res.trace.name, std::move(res.trace)});
  return out;
}

/// One Pinatubo configuration priced stage by stage, as PinatuboBackend
/// does it in one call: placement + scheduling, both engine modes, and
/// (with `lint`) verifier, schedule rendering, Chrome export, trace lint.
struct Stages {
  double serial_ns = 0.0, overlap_ns = 0.0;
  core::ClassProfile profile;
  mem::EnergyCounter energy;
  std::uint64_t batches = 0, steps = 0, diagnostics = 0;
  std::uint64_t trace_spans = 0, trace_bytes = 0;
};

void price_stages(const sim::OpTrace& trace, unsigned max_rows, bool lint,
                  Tracer& tr, Stages& st) {
  const mem::Geometry geo;
  const core::RowAllocator alloc(geo, core::AllocPolicy::kPimAware);
  const core::OpScheduler sched(
      geo, core::SchedulerConfig{max_rows, nvm::Tech::kPcm});
  const core::PinatuboCostModel model(geo, nvm::Tech::kPcm,
                                      trace.result_density);
  std::vector<core::OpPlan> plans;
  {
    const auto s = tr.scope("pinatubo.plan");
    plans.reserve(trace.ops.size());
    for (const auto& op : trace.ops) {
      std::vector<core::Placement> srcs;
      srcs.reserve(op.srcs.size());
      for (const auto id : op.srcs)
        srcs.push_back(alloc.virtual_placement(id, op.bits));
      const core::Placement dst = alloc.virtual_placement(op.dst, op.bits);
      plans.push_back(sched.plan(op.op, srcs, dst, op.host_reads_result));
    }
  }
  core::ExecutionEngine::Result serial, overlap;
  {
    const auto s = tr.scope("pinatubo.engine_serial");
    serial = core::ExecutionEngine(model, core::EngineOptions{true}).run(plans);
  }
  {
    const auto s = tr.scope("pinatubo.engine_overlap");
    overlap =
        core::ExecutionEngine(model, core::EngineOptions{false}).run(plans);
  }
  st.serial_ns += serial.cost.time_ns;
  st.overlap_ns += overlap.cost.time_ns;
  st.profile += serial.profile;
  st.energy.merge(serial.cost.energy);
  st.batches += 1;
  for (const auto n : serial.profile.steps) st.steps += n;
  if (!lint) return;
  {
    const auto s = tr.scope("verify.check");
    const verify::Verifier verifier(model, max_rows);
    st.diagnostics += verifier.check(plans, overlap, false).diags.size();
  }
  obs::TraceSession session(true);
  {
    const auto s = tr.scope("obs.render");
    obs::render_schedule(session, plans, overlap, 0.0);
  }
  std::string json;
  {
    const auto s = tr.scope("obs.export");
    json = session.to_chrome_json();
  }
  {
    const auto s = tr.scope("verify.trace_lint");
    st.diagnostics += verify::lint_trace_text(json).diags.size();
  }
  st.trace_spans += session.spans().size();
  st.trace_bytes += json.size();
}

constexpr auto kOff = reliability::VerifyLevel::kOff;
constexpr auto kPost = reliability::VerifyLevel::kPost;

core::PinatuboBackendConfig pinatubo_config(unsigned max_rows, bool serial,
                                            reliability::VerifyLevel verify) {
  core::PinatuboBackendConfig cfg;
  cfg.tech = nvm::Tech::kPcm;
  cfg.max_rows = max_rows;
  cfg.policy = core::AllocPolicy::kPimAware;
  cfg.serial = serial;
  cfg.verify = verify;
  return cfg;
}

/// Adds a priced cell's bitwise cost under `key`.
void accrue(Values& v, const std::string& key, const sim::BackendResult& r) {
  v[key + ".time_ns"] += r.bitwise.time_ns;
  v[key + ".energy_pj"] += r.bitwise.energy.total_pj();
}

void accrue_classes(Values& v, const std::string& key,
                    const core::PinatuboBackend& b) {
  const auto& c = b.last_class_counts();
  v[key + ".steps.intra"] += static_cast<double>(c.intra);
  v[key + ".steps.inter_sub"] += static_cast<double>(c.inter_sub);
  v[key + ".steps.inter_bank"] += static_cast<double>(c.inter_bank);
}

/// Machine-clock and Pinatubo count metrics from a stage-by-stage pricing.
void machine_metrics(const Stages& st, Metrics& out) {
  static const char* const kClass[] = {"intra", "inter_sub", "inter_bank",
                                       "host_read"};
  for (std::size_t k = 0; k < core::kStepKindCount; ++k) {
    out[std::string("machine.time_ms.") + kClass[k]].value =
        st.profile.time_ns[k] * 1e-6;
    out[std::string("pinatubo.steps.") + kClass[k]].value =
        static_cast<double>(st.profile.steps[k]);
  }
  for (const auto& [component, pj] : st.energy.components()) {
    const std::string name = "machine.energy_mj." + component;
    const std::string key = out.count(name) ? name : "machine.energy_mj.other";
    out[key].value += pj * 1e-9;
  }
  out["machine.overlap_x"].value = st.serial_ns / st.overlap_ns;
  out["pinatubo.bus_bytes"].value = static_cast<double>(st.profile.bus_bytes);
  out["pinatubo.batches"].value = static_cast<double>(st.batches);
}

class PaperFigs final : public Workload {
 public:
  explicit PaperFigs(std::uint64_t seed)
      : seed_(seed),
        simd_dram_(sim::MemKind::kDram),
        simd_pcm_(sim::MemKind::kPcm),
        p2s_({}, pinatubo_config(2, true, kOff)),
        p2o_({}, pinatubo_config(2, false, kOff)),
        p128s_({}, pinatubo_config(128, true, kOff)),
        p128o_({}, pinatubo_config(128, false, kOff)) {}

  void setup(Tracer& tr) override { suite_ = make_suite(seed_, tr); }

  RoundResult round(Tracer& tr, Checker& chk) override {
    struct Cell {
      const char* key;
      sim::Backend* backend;
      const char* span;
      core::PinatuboBackend* pim;
    };
    const Cell cells[] = {
        {"simd_dram", &simd_dram_, "sim.simd_dram", nullptr},
        {"simd_pcm", &simd_pcm_, "sim.simd_pcm", nullptr},
        {"sdram", &sdram_, "sim.sdram", nullptr},
        {"acpim", &acpim_, "sim.acpim", nullptr},
        {"pinatubo2_serial", &p2s_, "pinatubo.backend", &p2s_},
        {"pinatubo2_overlap", &p2o_, "pinatubo.backend", &p2o_},
        {"pinatubo128_serial", &p128s_, "pinatubo.backend", &p128s_},
        {"pinatubo128_overlap", &p128o_, "pinatubo.backend", &p128o_},
    };
    RoundResult r;
    for (const auto& w : suite_) {
      for (const Cell& c : cells) {
        speed_probe().tick();
        const auto c0 = Clock::now();
        sim::BackendResult res;
        {
          const auto s = tr.scope(c.span);
          res = c.backend->execute(w.trace);
        }
        r.parts_s.push_back(seconds_since(c0));
        r.samples_ms.push_back(r.parts_s.back() * 1e3);
        r.ops += w.trace.ops.size();
        if (c.pim) {
          accrue(r.exact, c.key, res);
          accrue_classes(r.exact, c.key, *c.pim);
        } else {
          accrue(r.baseline, c.key, res);
        }
      }
    }
    r.pim_time_ns = r.exact["pinatubo128_serial.time_ns"];
    r.pim_energy_pj = r.exact["pinatubo128_serial.energy_pj"];
    if (tr.on()) {
      // Stage-by-stage pricing of the Pinatubo-128 figure column; its
      // totals must equal the front door's.
      stages_ = {};
      for (const auto& w : suite_)
        price_stages(w.trace, 128, false, tr, stages_);
      chk.expect_eq(stages_.serial_ns, r.pim_time_ns,
                    "paper_figs stage-by-stage serial time");
      chk.expect_eq(stages_.overlap_ns,
                    r.exact["pinatubo128_overlap.time_ns"],
                    "paper_figs stage-by-stage overlapped time");
    }
    return r;
  }

  void layer_metrics(const Tracer& tr, std::size_t setups, std::size_t rounds,
                     const RoundResult&, Metrics& out) override {
    const auto s = tr.by_name();
    const double per_setup = 1.0 / static_cast<double>(setups);
    const double per_round = 1.0 / static_cast<double>(rounds);
    for (const char* n : {"apps.vector_trace", "apps.graph_build",
                          "apps.bfs_trace", "apps.index_build",
                          "apps.query_trace"})
      out[std::string(n) + "_ms"].value = self_ms(s, n) * per_setup;
    for (const char* n : {"sim.simd_dram", "sim.simd_pcm", "sim.sdram",
                          "sim.acpim", "pinatubo.backend", "pinatubo.plan",
                          "pinatubo.engine_serial", "pinatubo.engine_overlap"})
      out[std::string(n) + "_ms"].value = self_ms(s, n) * per_round;
    // Every SIMD access sweeps whole 64 B lines of each operand and the
    // destination.
    double lines = 0.0;
    for (const auto& w : suite_)
      for (const auto& op : w.trace.ops)
        lines += static_cast<double>((op.srcs.size() + 1) *
                                     ((op.bits + 511) / 512));
    out["sim.simd_lines"].value = lines;
    out["sim.simd_ns_per_line"].value =
        (out["sim.simd_dram_ms"].value + out["sim.simd_pcm_ms"].value) * 1e6 /
        (2.0 * lines);
    machine_metrics(stages_, out);
  }

 private:
  std::uint64_t seed_;
  std::vector<apps::NamedTrace> suite_;
  sim::SimdBackend simd_dram_, simd_pcm_;
  sim::SdramBackend sdram_;
  sim::AcPimBackend acpim_;
  core::PinatuboBackend p2s_, p2o_, p128s_, p128o_;
  Stages stages_;
};

class PlanLint final : public Workload {
 public:
  explicit PlanLint(std::uint64_t seed)
      : seed_(seed),
        p2_({}, pinatubo_config(2, false, kPost)),
        p128_({}, pinatubo_config(128, false, kPost)) {}

  void setup(Tracer& tr) override {
    texts_.clear();
    for (const auto& w : make_suite(seed_, tr)) {
      const auto s = tr.scope("sim.trace_save");
      std::ostringstream os;
      sim::save_trace(w.trace, os);
      texts_.push_back(os.str());
    }
  }

  RoundResult round(Tracer& tr, Checker& chk) override {
    struct Cell {
      const char* key;
      core::PinatuboBackend* backend;
    };
    const Cell cells[] = {{"pinatubo2", &p2_}, {"pinatubo128", &p128_}};
    RoundResult r;
    std::vector<sim::OpTrace> loaded;
    for (const auto& text : texts_) {
      for (const Cell& c : cells) {
        speed_probe().tick();
        const auto c0 = Clock::now();
        sim::OpTrace trace;
        {
          const auto s = tr.scope("sim.trace_load");
          std::istringstream is(text);
          trace = sim::load_trace(is);
        }
        try {
          const auto s = tr.scope("pinatubo.backend");
          accrue(r.exact, c.key, c.backend->execute(trace));
          accrue_classes(r.exact, c.key, *c.backend);
          chk.expect(true, "plan_lint verifier");
        } catch (const Error& e) {
          chk.expect(false, std::string("plan_lint verifier: ") + e.what());
        }
        r.parts_s.push_back(seconds_since(c0));
        r.samples_ms.push_back(r.parts_s.back() * 1e3);
        r.ops += trace.ops.size();
        if (tr.on() && c.backend == &p128_) loaded.push_back(std::move(trace));
      }
    }
    r.pim_time_ns = r.exact["pinatubo128.time_ns"];
    r.pim_energy_pj = r.exact["pinatubo128.energy_pj"];
    if (tr.on()) {
      // The front door's stages one by one on the same inputs.
      stages_ = {};
      p2_stages_ = {};
      for (const auto& t : loaded) {
        price_stages(t, 2, true, tr, p2_stages_);
        price_stages(t, 128, true, tr, stages_);
      }
      chk.expect_eq(stages_.overlap_ns, r.pim_time_ns,
                    "plan_lint stage-by-stage overlapped time");
      chk.expect_eq(
          static_cast<double>(stages_.diagnostics + p2_stages_.diagnostics),
          0.0, "plan_lint verifier and trace-lint diagnostics");
    }
    return r;
  }

  void layer_metrics(const Tracer& tr, std::size_t setups, std::size_t rounds,
                     const RoundResult&, Metrics& out) override {
    const auto s = tr.by_name();
    const double per_setup = 1.0 / static_cast<double>(setups);
    const double per_round = 1.0 / static_cast<double>(rounds);
    for (const char* n : {"apps.vector_trace", "apps.graph_build",
                          "apps.bfs_trace", "apps.index_build",
                          "apps.query_trace", "sim.trace_save"})
      out[std::string(n) + "_ms"].value = self_ms(s, n) * per_setup;
    for (const char* n :
         {"sim.trace_load", "pinatubo.backend", "pinatubo.plan",
          "pinatubo.engine_serial", "pinatubo.engine_overlap", "verify.check",
          "verify.trace_lint", "obs.render", "obs.export"})
      out[std::string(n) + "_ms"].value = self_ms(s, n) * per_round;
    double bytes = 0.0;
    for (const auto& t : texts_) bytes += static_cast<double>(t.size());
    out["sim.trace_bytes"].value = bytes;
    const auto total = [&](std::uint64_t Stages::*field) {
      return static_cast<double>(stages_.*field + p2_stages_.*field);
    };
    out["verify.ns_per_step"].value =
        out["verify.check_ms"].value * 1e6 / total(&Stages::steps);
    out["verify.diagnostics"].value = total(&Stages::diagnostics);
    out["obs.spans"].value = total(&Stages::trace_spans);
    out["obs.trace_bytes"].value = total(&Stages::trace_bytes);
    machine_metrics(stages_, out);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> texts_;
  core::PinatuboBackend p2_, p128_;
  Stages stages_, p2_stages_;  ///< Pinatubo-128 / Pinatubo-2 stages
};

}  // namespace

std::unique_ptr<Workload> make_paper_figs(std::uint64_t seed) {
  return std::make_unique<PaperFigs>(seed);
}

std::unique_ptr<Workload> make_plan_lint(std::uint64_t seed) {
  return std::make_unique<PlanLint>(seed);
}

}  // namespace perfbench
