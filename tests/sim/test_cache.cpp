#include "cache_oracle.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace pinatubo::sim {
namespace {

CacheLevelConfig tiny(const char* name, std::uint64_t size, unsigned assoc) {
  return {name, size, assoc, 64, 1.0, 100.0, 100.0};
}

TEST(CacheLevel, HitAfterInstall) {
  CacheLevel l(tiny("L1", 1024, 2));
  EXPECT_FALSE(l.access(5));
  l.install(5);
  EXPECT_TRUE(l.access(5));
  EXPECT_EQ(l.hits(), 1u);
  EXPECT_EQ(l.misses(), 1u);
}

TEST(CacheLevel, LruEviction) {
  // 1024 B / 64 B = 16 lines, 2-way -> 8 sets.  Lines 0, 8, 16 map to set 0.
  CacheLevel l(tiny("L1", 1024, 2));
  l.install(0);
  l.install(8);
  l.access(0);        // 0 becomes MRU
  l.install(16);      // evicts 8 (LRU)
  EXPECT_TRUE(l.access(0));
  EXPECT_FALSE(l.access(8));
  EXPECT_TRUE(l.access(16));
}

TEST(CacheLevel, InstallReportsVictim) {
  CacheLevel l(tiny("L1", 128, 1));  // 2 sets, direct-mapped
  EXPECT_EQ(l.install(0), -1);
  EXPECT_EQ(l.install(2), 0);  // same set, evicts 0
}

TEST(CacheLevel, InvalidateRemoves) {
  CacheLevel l(tiny("L1", 1024, 2));
  l.install(3);
  l.invalidate(3);
  EXPECT_FALSE(l.access(3));
}

TEST(CacheLevel, ConfigValidation) {
  EXPECT_THROW(CacheLevel(tiny("bad", 0, 1)), Error);
  EXPECT_THROW(CacheLevel(tiny("bad", 1000, 3)), Error);  // sets not 2^k
}

TEST(CacheHierarchy, ServesFromClosestLevel) {
  CacheHierarchy h({tiny("L1", 1024, 2), tiny("L2", 8192, 4)});
  EXPECT_EQ(h.access(0, false).served_by_level, 2u);  // memory
  EXPECT_EQ(h.access(0, false).served_by_level, 0u);  // L1 now
  EXPECT_EQ(h.memory_lines(), 1u);
}

TEST(CacheHierarchy, L2CatchesL1Evictions) {
  CacheHierarchy h({tiny("L1", 128, 1), tiny("L2", 8192, 4)});
  h.access(0 * 64, false);
  h.access(2 * 64, false);  // evicts line 0 from L1 (same set), still in L2
  const auto r = h.access(0 * 64, false);
  EXPECT_EQ(r.served_by_level, 1u);
}

TEST(CacheHierarchy, StreamingMissesEveryLine) {
  CacheHierarchy h(haswell_cache_config());
  // 32 MiB stream: far beyond L3.
  const std::uint64_t lines = 32ull * 1024 * 1024 / 64;
  for (std::uint64_t i = 0; i < lines; ++i) h.access(i * 64, false);
  EXPECT_EQ(h.memory_lines(), lines);
}

TEST(CacheHierarchy, SmallWorkingSetStaysCached) {
  CacheHierarchy h(haswell_cache_config());
  const std::uint64_t lines = 16 * 1024 / 64;  // 16 KiB fits L1
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t i = 0; i < lines; ++i) h.access(i * 64, false);
  EXPECT_EQ(h.memory_lines(), lines);  // only the first pass missed
  const auto served = h.served_lines();
  EXPECT_EQ(served[0], 2 * lines);
}

TEST(CacheHierarchy, WriteCounting) {
  CacheHierarchy h(haswell_cache_config());
  h.access(0, true);
  h.access(64, false);
  EXPECT_EQ(h.write_lines(), 1u);
}

TEST(CacheHierarchy, FlushForgetsEverything) {
  CacheHierarchy h(haswell_cache_config());
  h.access(0, false);
  h.access(0, false);
  h.flush();
  EXPECT_EQ(h.memory_lines(), 0u);
  EXPECT_EQ(h.access(0, false).served_by_level, h.levels());
}

TEST(CacheHierarchy, HaswellShape) {
  const auto cfg = haswell_cache_config();
  ASSERT_EQ(cfg.size(), 3u);
  EXPECT_EQ(cfg[0].size_bytes, 32u * 1024);
  EXPECT_EQ(cfg[1].size_bytes, 256u * 1024);
  EXPECT_EQ(cfg[2].size_bytes, 6u * 1024 * 1024);
}

}  // namespace
}  // namespace pinatubo::sim
