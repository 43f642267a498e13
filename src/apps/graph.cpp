#include "apps/graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pinatubo::apps {

Graph::Graph(std::uint32_t nodes,
             std::vector<std::pair<std::uint32_t, std::uint32_t>> edges) {
  PIN_CHECK(nodes > 0);
  // Counting sort by source over both directions of every non-loop edge,
  // then sort + dedupe each adjacency list: the same CSR as sort + unique
  // over the symmetrized (u, v) pairs, without materializing them.
  offsets_.assign(nodes + 1, 0);
  for (const auto& [u, v] : edges) {
    PIN_CHECK_MSG(u < nodes && v < nodes, "edge endpoint out of range");
    if (u == v) continue;
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  for (std::uint32_t i = 0; i < nodes; ++i) offsets_[i + 1] += offsets_[i];
  // Scatter with offsets_[u] as u's cursor; afterwards offsets_[u] holds
  // the end of u's range (the start of u + 1's).
  targets_.resize(offsets_[nodes]);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    targets_[offsets_[u]++] = v;
    targets_[offsets_[v]++] = u;
  }
  // The input is spent; freeing it before the final shrink keeps peak
  // memory at one edge list plus one target array.
  edges.clear();
  edges.shrink_to_fit();
  // Sort, dedupe and compact each list in place, restoring offsets_[u] to
  // the start of u's compacted range.
  const auto first = targets_.begin();
  std::uint64_t begin = 0, out = 0;
  for (std::uint32_t u = 0; u < nodes; ++u) {
    const std::uint64_t end = offsets_[u];
    std::sort(first + begin, first + end);
    const auto last = std::unique(first + begin, first + end);
    offsets_[u] = out;
    out = std::move(first + begin, last, first + out) - first;
    begin = end;
  }
  offsets_[nodes] = out;
  targets_.resize(out);
  targets_.shrink_to_fit();
}

std::pair<const std::uint32_t*, const std::uint32_t*> Graph::neighbors(
    std::uint32_t v) const {
  PIN_CHECK(v < nodes());
  return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
}

std::uint32_t Graph::degree(std::uint32_t v) const {
  PIN_CHECK(v < nodes());
  return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
}

Graph generate_graph(const GraphGenParams& p, Rng& rng) {
  PIN_CHECK(p.nodes >= 2);
  PIN_CHECK(p.communities >= 1 && p.communities <= p.nodes / 2);
  PIN_CHECK(p.avg_degree > 0);
  const std::uint32_t per_comm = p.nodes / p.communities;
  const auto intra_edges =
      static_cast<std::uint64_t>(p.avg_degree * per_comm / 2.0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  // Upper bound: intra edges, path edges (< nodes), bridges, the 0-1 edge.
  edges.reserve(intra_edges * p.communities + p.nodes +
                std::uint64_t{p.bridge_edges} * (p.communities - 1) + 1);
  // Skewed endpoint sampler within a community (hubs exist in all the
  // stand-in datasets).
  ZipfSampler zipf(per_comm, p.skew);
  for (std::uint32_t c = 0; c < p.communities; ++c) {
    const std::uint32_t base = c * per_comm;
    const std::uint32_t size =
        c + 1 == p.communities ? p.nodes - base : per_comm;
    for (std::uint64_t e = 0; e < intra_edges; ++e) {
      auto u = static_cast<std::uint32_t>(zipf.sample(rng) % size);
      auto v = static_cast<std::uint32_t>(rng.uniform_u64(size));
      edges.emplace_back(base + u, base + v);
    }
    // A Hamiltonian-ish path keeps every community connected.
    for (std::uint32_t i = 1; i < size; ++i)
      if (rng.chance(0.35)) edges.emplace_back(base + i - 1, base + i);
    // Bridges to the next community: thin frontiers between communities.
    if (c + 1 < p.communities) {
      const std::uint32_t next = (c + 1) * per_comm;
      const std::uint32_t next_size =
          c + 2 == p.communities ? p.nodes - next : per_comm;
      for (std::uint32_t b = 0; b < p.bridge_edges; ++b)
        edges.emplace_back(
            base + static_cast<std::uint32_t>(rng.uniform_u64(size)),
            next + static_cast<std::uint32_t>(rng.uniform_u64(next_size)));
    }
  }
  // Make node 0 connected to its community core.
  edges.emplace_back(0, 1);
  return Graph(p.nodes, std::move(edges));
}

DatasetPreset dblp2010_like() {
  // Tight: one dense community cluster, finishes in few fat levels.
  return {"dblp", {1u << 19, 12.0, 2, 4096, 0.8}, 326186, 1615400, "tight"};
}

DatasetPreset eswiki2013_like() {
  // Loose: a long chain of small communities with thin bridges.
  return {"eswiki", {1u << 19, 9.0, 48, 3, 1.0}, 972933, 23041488, "loose"};
}

DatasetPreset amazon2008_like() {
  // Loose: longer chains, lower degree (product co-purchase paths).
  return {"amazon", {1u << 19, 6.0, 64, 3, 0.7}, 735323, 5158388, "loose"};
}

Graph build_dataset(const DatasetPreset& preset, std::uint64_t seed) {
  Rng rng(seed);
  return generate_graph(preset.gen, rng);
}

}  // namespace pinatubo::apps
