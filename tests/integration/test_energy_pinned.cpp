// Pins the Fig. 11 energy breakdown of every backend, component by
// component and bit for bit: one small fixed trace priced on SIMD-DRAM,
// SIMD-PCM, S-DRAM, AC-PIM and Pinatubo-2/128 (serial and overlapped), the
// host's scalar pricing, and the PimRuntime cost of a short campaign under
// configs/faulty.cfg's policy.  A change to how energy is accounted must
// leave every name and every value below exactly as it is.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/random.hpp"
#include "pinatubo/backend.hpp"
#include "pinatubo/driver.hpp"
#include "reliability/policy.hpp"
#include "sim/acpim_backend.hpp"
#include "sim/sdram_backend.hpp"
#include "sim/simd_backend.hpp"

namespace pinatubo {
namespace {

using Parts = std::map<std::string, double>;

/// The trace: a 5-operand OR (a chained activation on Pinatubo-2), AND,
/// XOR whose result the host reads, INV, a cross-rank OR (inter-bank) and
/// a 4-operand OR big enough that the SIMD model prices it as a stream.
sim::OpTrace pinned_trace() {
  constexpr std::uint64_t kBits = 1ull << 14;
  const core::RowAllocator alloc(mem::Geometry{},
                                 core::AllocPolicy::kPimAware);
  std::uint64_t far = 1;
  while (alloc.virtual_placement(far, kBits).rank ==
         alloc.virtual_placement(12, kBits).rank)
    far *= 2;

  sim::OpTrace t;
  t.name = "pinned";
  t.ops.push_back({BitOp::kOr, {0, 1, 2, 3, 4}, 5, kBits, false});
  t.ops.push_back({BitOp::kAnd, {6, 7}, 8, kBits, false});
  t.ops.push_back({BitOp::kXor, {8, 9}, 10, kBits, true});
  t.ops.push_back({BitOp::kInv, {10}, 11, kBits, false});
  t.ops.push_back({BitOp::kOr, {12, far}, 13, kBits, false});
  t.ops.push_back({BitOp::kOr, {20, 21, 22, 23}, 24, 1ull << 27, false});
  t.scalar_ops = 100000;
  t.scalar_bytes = 1u << 20;
  t.result_density = 0.3;
  return t;
}

/// configs/faulty.cfg's policy keys, inlined so the test reads no file.
constexpr const char* kFaultyPolicy = R"(
fault.enabled = true
fault.seed = 1
fault.stuck_rate = 1e-7
fault.sense_ber = 1e-5
fault.drift_rate = 0.001
fault.endurance_cycles = 200
fault.wearout_rate = 0.05
verify.sense = readback
verify.writes = readback
retry.max_resense = 2
retry.deescalate = true
retry.remap = true
retry.cpu_fallback = true
retry.spare_rows = 4
)";

/// fault_campaign's op stream, shortened: 8 one-stripe vectors, 24 ops.
Parts faulty_campaign_parts() {
  const mem::Geometry geo;
  core::PimRuntime::Options opts;
  opts.tech = nvm::Tech::kPcm;
  opts.max_rows = 128;
  opts.reliability =
      reliability::policy_from_config(Config::from_string(kFaultyPolicy));
  core::PimRuntime pim(geo, opts);
  Rng rng(7);
  const std::uint64_t bits = geo.sense_step_bits();
  constexpr std::size_t kVecs = 8;
  std::vector<core::PimRuntime::Handle> vecs(kVecs);
  for (auto& v : vecs) {
    v = pim.pim_malloc(bits);
    pim.pim_write(v, BitVector::random(bits, 0.3, rng));
  }
  for (int it = 0; it < 24; ++it) {
    const unsigned pick = static_cast<unsigned>(rng.next() % 8);
    BitOp op = BitOp::kOr;
    std::size_t fan = 2 + rng.next() % 5;
    if (pick == 5) op = BitOp::kAnd, fan = 2;
    if (pick == 6) op = BitOp::kXor, fan = 2;
    if (pick == 7) op = BitOp::kInv, fan = 1;
    std::vector<std::size_t> idx(kVecs);
    for (std::size_t i = 0; i < kVecs; ++i) idx[i] = i;
    for (std::size_t i = 0; i < fan; ++i)
      std::swap(idx[i], idx[i + rng.next() % (kVecs - i)]);
    std::vector<core::PimRuntime::Handle> srcs;
    for (std::size_t i = 0; i < fan; ++i) srcs.push_back(vecs[idx[i]]);
    pim.pim_op(op, srcs, vecs[idx[rng.next() % fan]], it % 5 == 0);
  }
  EXPECT_GT(pim.stats().retries, 0u) << "the ladder must price retries";
  return pim.cost().energy.components();
}

std::vector<std::pair<std::string, Parts>> priced() {
  const sim::OpTrace trace = pinned_trace();
  std::vector<std::pair<std::string, Parts>> out;
  auto record = [&](const std::string& name, sim::Backend& b) {
    const sim::BackendResult r = b.execute(trace);
    out.emplace_back(name + ".bitwise", r.bitwise.energy.components());
    out.emplace_back(name + ".scalar", r.scalar.energy.components());
  };
  sim::SimdBackend simd_dram(sim::MemKind::kDram);
  sim::SimdBackend simd_pcm(sim::MemKind::kPcm);
  sim::SdramBackend sdram;
  sim::AcPimBackend acpim;
  record("simd_dram", simd_dram);
  record("simd_pcm", simd_pcm);
  record("sdram", sdram);
  record("acpim", acpim);
  for (const unsigned rows : {2u, 128u})
    for (const bool serial : {true, false}) {
      core::PinatuboBackendConfig cfg;
      cfg.max_rows = rows;
      cfg.serial = serial;
      core::PinatuboBackend pin({}, cfg);
      record("pinatubo" + std::to_string(rows) +
                 (serial ? ".serial" : ".overlap"),
             pin);
    }
  out.emplace_back("scalar_cost.dram",
                   sim::scalar_cost({}, sim::MemKind::kDram, 12345, 67890)
                       .energy.components());
  out.emplace_back("runtime.faulty", faulty_campaign_parts());
  return out;
}

/// The priced table as C++ source, so a deliberate re-pin is a paste.
std::string as_source(const std::vector<std::pair<std::string, Parts>>& t) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [name, parts] : t) {
    os << "      {\"" << name << "\",\n       {";
    const char* sep = "";
    for (const auto& [k, v] : parts) {
      os << sep << "{\"" << k << "\", " << v << "}";
      sep = ",\n        ";
    }
    os << "}},\n";
  }
  return os.str();
}

TEST(Energy, BackendComponentsPinned) {
  const std::vector<std::pair<std::string, Parts>> want = {
      {"simd_dram.bitwise",
       {{"cpu.L1", 0x1.ep+11},
        {"cpu.L2", 0x0p+0},
        {"cpu.L3", 0x0p+0},
        {"cpu.core", 0x1.31499c38p+39},
        {"mem.read", 0x1.e02dp+31},
        {"mem.write", 0x1.8031ep+29}}},
      {"simd_dram.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.48f5d750c5224p+29},
        {"mem.read", 0x1.cccccccccccccp+23}}},
      {"simd_pcm.bitwise",
       {{"cpu.L1", 0x1.ep+11},
        {"cpu.L2", 0x0p+0},
        {"cpu.L3", 0x0p+0},
        {"cpu.core", 0x1.ab670de8p+39},
        {"mem.read", 0x1.90258p+32},
        {"mem.write", 0x1.c03a3p+31}}},
      {"simd_pcm.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.90947298ef607p+29},
        {"mem.read", 0x1.8p+24}}},
      {"sdram.bitwise",
       {{"cpu.L1", 0x1.ep+10},
        {"cpu.L2", 0x0p+0},
        {"cpu.L3", 0x0p+0},
        {"cpu.core", 0x1.e848p+25},
        {"dram.act", 0x1.7c370a3d70a3ep+29},
        {"mem.read", 0x1.8p+18},
        {"mem.write", 0x1.2p+17}}},
      {"sdram.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.48f5d750c5224p+29},
        {"mem.read", 0x1.cccccccccccccp+23}}},
      {"acpim.bitwise",
       {{"acpim.logic", 0x1.802p+28},
        {"acpim.read", 0x1.b397f13ad5befp+30},
        {"acpim.write", 0x1.d3e98a3d70a3dp+32},
        {"bus.io", 0x1.2p+18},
        {"ctrl.cmd", 0x1.e5p+16}}},
      {"acpim.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.90947298ef607p+29},
        {"mem.read", 0x1.8p+24}}},
      {"pinatubo2.serial.bitwise",
       {{"bus.io", 0x1.2p+19},
        {"ctrl.cmd", 0x1.3038p+14},
        {"pim.activate", 0x1.2d99999999999p+11},
        {"pim.buffer.logic", 0x1.8004p+28},
        {"pim.buffer.read", 0x1.b37830cbf2b8ap+30},
        {"pim.buffer.wb", 0x1.8004p+29},
        {"pim.sense", 0x1.48a17b0f6ad71p+14},
        {"pim.write", 0x1.a3e556ea66604p+32}}},
      {"pinatubo2.serial.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.90947298ef607p+29},
        {"mem.read", 0x1.8p+24}}},
      {"pinatubo2.overlap.bitwise",
       {{"bus.io", 0x1.2p+19},
        {"ctrl.cmd", 0x1.3038p+14},
        {"pim.activate", 0x1.2d99999999999p+11},
        {"pim.buffer.logic", 0x1.8004p+28},
        {"pim.buffer.read", 0x1.b37830cbf2b8ap+30},
        {"pim.buffer.wb", 0x1.8004p+29},
        {"pim.sense", 0x1.48a17b0f6ad71p+14},
        {"pim.write", 0x1.a3e556ea66604p+32}}},
      {"pinatubo2.overlap.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.90947298ef607p+29},
        {"mem.read", 0x1.8p+24}}},
      {"pinatubo128.serial.bitwise",
       {{"bus.io", 0x1.2p+19},
        {"ctrl.cmd", 0x1.2f0cp+14},
        {"pim.activate", 0x1.dp+10},
        {"pim.buffer.logic", 0x1.8004p+28},
        {"pim.buffer.read", 0x1.b37830cbf2b8ap+30},
        {"pim.buffer.wb", 0x1.8004p+29},
        {"pim.sense", 0x1.8f3f52fc2656cp+13},
        {"pim.write", 0x1.a3d8390c19937p+32}}},
      {"pinatubo128.serial.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.90947298ef607p+29},
        {"mem.read", 0x1.8p+24}}},
      {"pinatubo128.overlap.bitwise",
       {{"bus.io", 0x1.2p+19},
        {"ctrl.cmd", 0x1.2f0cp+14},
        {"pim.activate", 0x1.dp+10},
        {"pim.buffer.logic", 0x1.8004p+28},
        {"pim.buffer.read", 0x1.b37830cbf2b8ap+30},
        {"pim.buffer.wb", 0x1.8004p+29},
        {"pim.sense", 0x1.8f3f52fc2656cp+13},
        {"pim.write", 0x1.a3d8390c19937p+32}}},
      {"pinatubo128.overlap.scalar",
       {{"cpu.L2", 0x1.a4p+21},
        {"cpu.core", 0x1.90947298ef607p+29},
        {"mem.read", 0x1.8p+24}}},
      {"scalar_cost.dram",
       {{"cpu.L2", 0x1.b31608p+17},
        {"cpu.core", 0x1.ba917062911ccp+25},
        {"mem.read", 0x1.dd5ap+19}}},
      {"runtime.faulty",
       {{"bus.io", 0x1.68p+20},
        {"ctrl.cmd", 0x1.b44p+11},
        {"pim.activate", 0x1.41e6666666666p+14},
        {"pim.buffer.logic", 0x1.b8p+20},
        {"pim.buffer.read", 0x1.f2f4855da2727p+22},
        {"pim.sense", 0x1.961d9f4d37c15p+16},
        {"pim.write", 0x1.8866666666669p+22}}},
  };
  const auto got = priced();
  ASSERT_EQ(got.size(), want.size()) << as_source(got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second)
        << got[i].first << " moved; priced now:\n" << as_source({got[i]});
  }
}

}  // namespace
}  // namespace pinatubo
