#include "apps/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "common/error.hpp"

namespace pinatubo::apps {
namespace {

Graph small_graph() {
  // 0-1-2 path plus a 3-4 edge and an isolated vertex 5.
  return Graph(6, {{0, 1}, {1, 2}, {3, 4}});
}

TEST(Graph, CsrConstruction) {
  const auto g = small_graph();
  EXPECT_EQ(g.nodes(), 6u);
  EXPECT_EQ(g.edges(), 6u);  // symmetrized
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(5), 0u);
  const auto [b, e] = g.neighbors(1);
  EXPECT_EQ(e - b, 2);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[1], 2u);
}

TEST(Graph, DropsSelfLoopsAndDuplicates) {
  const Graph g(3, {{0, 0}, {0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.edges(), 2u);  // one undirected edge
  EXPECT_EQ(g.degree(0), 1u);
}

std::vector<std::uint32_t> neighbor_list(const Graph& g, std::uint32_t v) {
  const auto [b, e] = g.neighbors(v);
  return {b, e};
}

TEST(Graph, NoEdges) {
  const Graph g(4, {});
  EXPECT_EQ(g.nodes(), 4u);
  EXPECT_EQ(g.edges(), 0u);
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, AllSelfLoops) {
  const Graph g(3, {{0, 0}, {1, 1}, {2, 2}, {1, 1}});
  EXPECT_EQ(g.edges(), 0u);
  for (std::uint32_t v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, HubWithDuplicateAndReversedPairs) {
  // Hub 3 reaches every other vertex several times, in both directions and
  // out of order; the CSR keeps each undirected edge once per direction,
  // sorted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int rep = 0; rep < 5; ++rep)
    for (std::uint32_t v : {5u, 0u, 4u, 1u, 2u}) {
      edges.emplace_back(3, v);
      edges.emplace_back(v, 3);
    }
  edges.emplace_back(3, 3);
  edges.emplace_back(2, 0);
  edges.emplace_back(0, 2);
  const Graph g(6, std::move(edges));
  EXPECT_EQ(g.edges(), 12u);
  EXPECT_EQ(neighbor_list(g, 3),
            (std::vector<std::uint32_t>{0, 1, 2, 4, 5}));
  EXPECT_EQ(neighbor_list(g, 0), (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(neighbor_list(g, 2), (std::vector<std::uint32_t>{0, 3}));
  for (std::uint32_t v : {1u, 4u, 5u})
    EXPECT_EQ(neighbor_list(g, v), (std::vector<std::uint32_t>{3}));
}

TEST(Graph, MatchesSortedPairOracle) {
  // The CSR equals sort + unique over the symmetrized (u, v) pairs with
  // self loops dropped, on a random multigraph dense in duplicates.
  Rng rng(41);
  const std::uint32_t n = 200;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int i = 0; i < 3000; ++i)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(n / 4)),
                       static_cast<std::uint32_t>(rng.uniform_u64(n)));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sym;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    sym.emplace_back(u, v);
    sym.emplace_back(v, u);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());

  const Graph g(n, std::move(edges));
  ASSERT_EQ(g.edges(), sym.size());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  for (std::uint32_t u = 0; u < n; ++u)
    for (const auto v : neighbor_list(g, u)) got.emplace_back(u, v);
  EXPECT_EQ(got, sym);
}

TEST(Graph, RejectsBadEdges) {
  EXPECT_THROW(Graph(2, {{0, 5}}), Error);
  EXPECT_THROW(Graph(0, {}), Error);
  const auto g = small_graph();
  EXPECT_THROW(g.neighbors(6), Error);
  EXPECT_THROW(g.degree(6), Error);
}

TEST(Generator, ProducesRequestedShape) {
  GraphGenParams p;
  p.nodes = 4096;
  p.avg_degree = 8;
  p.communities = 4;
  Rng rng(3);
  const auto g = generate_graph(p, rng);
  EXPECT_EQ(g.nodes(), 4096u);
  // Zipf-skewed endpoints collapse many duplicate pairs; after
  // symmetrization + dedup the directed degree lands near the knob.
  EXPECT_GT(g.average_degree(), 5.0);
  EXPECT_LT(g.average_degree(), 20.0);
}

TEST(Generator, Deterministic) {
  GraphGenParams p;
  p.nodes = 1024;
  Rng a(5), b(5);
  const auto g1 = generate_graph(p, a);
  const auto g2 = generate_graph(p, b);
  ASSERT_EQ(g1.nodes(), g2.nodes());
  EXPECT_EQ(g1.edges(), g2.edges());
  for (std::uint32_t v = 0; v < g1.nodes(); ++v)
    EXPECT_EQ(neighbor_list(g1, v), neighbor_list(g2, v)) << "v=" << v;
}

TEST(Generator, Validates) {
  GraphGenParams p;
  p.nodes = 1;
  Rng rng(1);
  EXPECT_THROW(generate_graph(p, rng), Error);
  p.nodes = 100;
  p.communities = 60;
  EXPECT_THROW(generate_graph(p, rng), Error);
}

std::size_t bfs_levels(const Graph& g) {
  std::vector<std::uint32_t> level(
      g.nodes(), std::numeric_limits<std::uint32_t>::max());
  std::queue<std::uint32_t> q;
  level[0] = 0;
  q.push(0);
  std::uint32_t deepest = 0;
  while (!q.empty()) {
    const auto v = q.front();
    q.pop();
    const auto [b, e] = g.neighbors(v);
    for (const auto* w = b; w != e; ++w)
      if (level[*w] == std::numeric_limits<std::uint32_t>::max()) {
        level[*w] = level[v] + 1;
        deepest = std::max(deepest, level[*w]);
        q.push(*w);
      }
  }
  return deepest;
}

TEST(Presets, TightVsLooseDiameter) {
  // The whole point of the presets: dblp finishes in few levels, the
  // loose datasets crawl through many.
  const auto dblp = build_dataset(dblp2010_like(), 11);
  const auto amazon = build_dataset(amazon2008_like(), 11);
  const auto l_dblp = bfs_levels(dblp);
  const auto l_amazon = bfs_levels(amazon);
  EXPECT_LT(l_dblp, 15u);
  EXPECT_GT(l_amazon, 40u);
}

TEST(Presets, PinnedDigest) {
  // FNV-1a over the node count, edge count and every neighbour list of the
  // three presets at 2^12 nodes and three seeds.  Pins the generator (Zipf
  // sampling, edge order, CSR build) byte for byte: any change to what a
  // seed produces must update this constant on purpose.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (auto preset : {dblp2010_like(), eswiki2013_like(), amazon2008_like()}) {
    preset.gen.nodes = 1u << 12;
    for (const std::uint64_t seed : {0ull, 1ull, 7777ull}) {
      const auto g = build_dataset(preset, seed);
      mix(g.nodes());
      mix(g.edges());
      for (std::uint32_t v = 0; v < g.nodes(); ++v) {
        const auto [b, e] = g.neighbors(v);
        mix(static_cast<std::uint64_t>(e - b));
        for (const auto* w = b; w != e; ++w) mix(*w);
      }
    }
  }
  EXPECT_EQ(h, 0x6637f0c4c046ed9aull);
}

TEST(Presets, RecordRealDatasetNumbers) {
  EXPECT_EQ(dblp2010_like().real_nodes, 326186u);
  EXPECT_STREQ(dblp2010_like().character, "tight");
  EXPECT_STREQ(eswiki2013_like().character, "loose");
  EXPECT_STREQ(amazon2008_like().character, "loose");
}

}  // namespace
}  // namespace pinatubo::apps
