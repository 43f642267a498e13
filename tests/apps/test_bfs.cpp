#include "apps/bfs_bitmap.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <queue>

#include "common/error.hpp"

namespace pinatubo::apps {
namespace {

std::vector<std::uint32_t> reference_bfs(const Graph& g, std::uint32_t src) {
  std::vector<std::uint32_t> level(
      g.nodes(), std::numeric_limits<std::uint32_t>::max());
  std::queue<std::uint32_t> q;
  level[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const auto v = q.front();
    q.pop();
    const auto [b, e] = g.neighbors(v);
    for (const auto* w = b; w != e; ++w)
      if (level[*w] == std::numeric_limits<std::uint32_t>::max()) {
        level[*w] = level[v] + 1;
        q.push(*w);
      }
  }
  return level;
}

Graph test_graph(std::uint32_t nodes = 2048) {
  GraphGenParams p;
  p.nodes = nodes;
  p.avg_degree = 6;
  p.communities = 4;
  p.bridge_edges = 8;
  Rng rng(42);
  return generate_graph(p, rng);
}

TEST(BitmapBfs, LevelsMatchReference) {
  const auto g = test_graph();
  const auto res = bitmap_bfs(g);
  const auto ref = reference_bfs(g, 0);
  for (std::uint32_t v = 0; v < g.nodes(); ++v)
    EXPECT_EQ(res.level_of[v], ref[v]) << "vertex " << v;
}

TEST(BitmapBfs, ReachedCountConsistent) {
  const auto g = test_graph();
  const auto res = bitmap_bfs(g);
  std::uint64_t reached = 0;
  for (const auto l : res.level_of)
    reached += l != std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(res.reached, reached);
  EXPECT_GT(res.reached, g.nodes() / 2);
}

TEST(BitmapBfs, TraceShape) {
  const auto g = test_graph();
  const auto res = bitmap_bfs(g);
  ASSERT_FALSE(res.trace.ops.empty());
  // Per level: optional multi-OR + INV + AND + OR.
  EXPECT_GE(res.trace.ops.size(), res.levels * 3);
  EXPECT_LE(res.trace.ops.size(), res.levels * 4);
  for (const auto& op : res.trace.ops) {
    EXPECT_EQ(op.bits, g.nodes());
    if (op.op == BitOp::kInv) {
      EXPECT_EQ(op.srcs.size(), 1u);
    }
    if (op.op == BitOp::kAnd) {
      EXPECT_EQ(op.srcs.size(), 2u);
    }
  }
  EXPECT_GT(res.trace.scalar_ops, 0u);
  EXPECT_GT(res.trace.scalar_bytes, 0u);
  EXPECT_GT(res.trace.result_density, 0.0);
}

TEST(BitmapBfs, IdsStayWithinAllocationWindow) {
  // 125 partials + 3 state bitmaps = ids 0..127: one allocation window,
  // the property that makes the ops intra-subarray eligible.
  const auto g = test_graph();
  const auto res = bitmap_bfs(g);
  for (const auto& op : res.trace.ops) {
    EXPECT_LT(op.dst, 128u);
    for (const auto s : op.srcs) EXPECT_LT(s, 128u);
  }
}

TEST(BitmapBfs, MultiRowOrOpsAppear) {
  const auto g = test_graph(8192);
  const auto res = bitmap_bfs(g);
  std::size_t multi = 0;
  for (const auto& op : res.trace.ops)
    multi += op.op == BitOp::kOr && op.srcs.size() > 2;
  EXPECT_GT(multi, 0u);
}

TEST(BitmapBfs, SourceValidation) {
  const auto g = test_graph();
  BfsConfig cfg;
  cfg.source = g.nodes();
  EXPECT_THROW(bitmap_bfs(g, cfg), Error);
  cfg.source = 0;
  cfg.partitions = 0;
  EXPECT_THROW(bitmap_bfs(g, cfg), Error);
}

TEST(BitmapBfs, EdgesTraversedPlausible) {
  const auto g = test_graph();
  const auto res = bitmap_bfs(g);
  // Every directed edge out of a reached vertex is traversed exactly once.
  std::uint64_t expect = 0;
  for (std::uint32_t v = 0; v < g.nodes(); ++v)
    if (res.level_of[v] != std::numeric_limits<std::uint32_t>::max())
      expect += g.degree(v);
  EXPECT_EQ(res.edges_traversed, expect);
}

}  // namespace
}  // namespace pinatubo::apps
