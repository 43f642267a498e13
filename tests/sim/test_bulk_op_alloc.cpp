// SimdCpuModel::bulk_op must not touch the heap once the model is warm.
// This binary replaces the global operator new with a counting one, so it
// holds no other tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/bitmap_index.hpp"
#include "sim/cpu_model.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pinatubo::sim {
namespace {

TEST(SimdCpuModel, BulkOpDoesNotAllocate) {
  apps::IndexConfig cfg;
  cfg.rows = 1ull << 18;
  const apps::BitmapIndex index(cfg, 1);
  const OpTrace trace =
      apps::run_queries(index, apps::generate_queries(cfg, 60, 61)).trace;
  // The sweep path, not the closed-form streaming one, must be exercised.
  std::uint64_t swept = 0;
  BulkSweep s;
  for (const auto& op : trace.ops) {
    bulk_sweep(op, 64, s);
    swept += !s.streaming();
  }
  ASSERT_GT(swept, 100u);

  SimdCpuModel model(CpuConfig{}, MemKind::kPcm);
  // The warm-up pass splits the slice classes at every boundary the trace
  // has and sizes the reused buffers; the second pass meets no new ones.
  mem::Cost warm;
  for (const auto& op : trace.ops) warm += model.bulk_op(op);
  const std::uint64_t before = g_allocations.load();
  mem::Cost priced;
  for (const auto& op : trace.ops) priced += model.bulk_op(op);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(priced.time_ns, 0.0);
}

}  // namespace
}  // namespace pinatubo::sim
