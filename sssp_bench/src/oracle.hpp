// The benchmark's correctness oracle, kept apart from the library: it works
// on its own copy of the graph in plain std containers and shares no code
// with the solvers it checks.
//
//   * certify() — O(V + E) shortest-path certificate for one answer:
//     dist[src] == 0, every edge out of a reached vertex is feasible
//     (dist[v] <= dist[u] + w, which also rules out an unreached vertex
//     with a reached in-neighbour), and every other reached vertex has a
//     tight in-edge (dist[u] + w == dist[v]). With positive weights these
//     three conditions hold for exactly one labelling: the true distances.
//   * dijkstra() — a plain binary-heap Dijkstra, for bit-for-bit
//     comparison on a seeded subset of sources.
//   * check_relaxations() / check_status_sum() — property checks that come
//     from independent paths (the CSR vs the engine's counters; the
//     client's own tally vs the service's report).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace bench {

inline constexpr uint64_t kUnreached = std::numeric_limits<uint64_t>::max();

/// The oracle's own CSR snapshot (copied from the generated graph once).
struct RefGraph {
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> targets;
  std::vector<uint32_t> weights;

  uint32_t num_vertices() const { return uint32_t(offsets.size() - 1); }
  uint64_t out_degree(uint32_t v) const {
    return offsets[v + 1] - offsets[v];
  }

  template <typename Csr>
  static RefGraph copy_of(const Csr& g) {
    RefGraph r;
    r.offsets.assign(g.offsets().begin(), g.offsets().end());
    r.targets.assign(g.targets().begin(), g.targets().end());
    r.weights.assign(g.weights().begin(), g.weights().end());
    return r;
  }

  /// Sets the weight of the existing edge u -> v; false when absent.
  bool set_weight(uint32_t u, uint32_t v, uint32_t w) {
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      if (targets[e] == v) {
        weights[e] = w;
        return true;
      }
    }
    return false;
  }
};

/// What certify() saw on the way: the reach of the answer and the work any
/// correct label-correcting solver must at least have done.
struct CertStats {
  uint64_t reached = 0;
  uint64_t reached_out_degree = 0;  // sum of out-degrees of reached vertices
};

/// Shortest-path certificate. Returns "" when `dist` is exactly the
/// distance labelling of `g` from `src`, else a description of the first
/// violation found.
inline std::string certify(const RefGraph& g, uint32_t src,
                           const std::vector<uint64_t>& dist,
                           CertStats* stats = nullptr) {
  const uint32_t n = g.num_vertices();
  if (dist.size() != n)
    return "answer has " + std::to_string(dist.size()) + " labels for " +
           std::to_string(n) + " vertices";
  if (src >= n) return "source out of range";
  if (dist[src] != 0) return "dist[source] != 0";
  std::vector<uint8_t> tight(n, 0);
  tight[src] = 1;
  CertStats st;
  for (uint32_t u = 0; u < n; ++u) {
    const uint64_t du = dist[u];
    if (du == kUnreached) continue;
    ++st.reached;
    st.reached_out_degree += g.out_degree(u);
    for (uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const uint32_t v = g.targets[e];
      const uint64_t via = du + g.weights[e];
      if (dist[v] == kUnreached)
        return "vertex " + std::to_string(v) +
               " unreached but has reached in-neighbour " + std::to_string(u);
      if (via < dist[v])
        return "edge " + std::to_string(u) + "->" + std::to_string(v) +
               " infeasible: " + std::to_string(dist[v]) + " > " +
               std::to_string(via);
      if (via == dist[v]) tight[v] = 1;
    }
  }
  for (uint32_t v = 0; v < n; ++v)
    if (dist[v] != kUnreached && !tight[v])
      return "vertex " + std::to_string(v) + " label " +
             std::to_string(dist[v]) + " has no tight in-edge";
  if (stats != nullptr) *stats = st;
  return "";
}

/// Plain binary-heap Dijkstra with lazy deletion.
inline std::vector<uint64_t> dijkstra(const RefGraph& g, uint32_t src) {
  std::vector<uint64_t> dist(g.num_vertices(), kUnreached);
  using Item = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[src] = 0;
  heap.push({0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;
    for (uint64_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const uint32_t v = g.targets[e];
      const uint64_t nd = d + g.weights[e];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return dist;
}

/// Bit-for-bit comparison; "" when equal.
inline std::string compare(const std::vector<uint64_t>& got,
                           const std::vector<uint64_t>& want) {
  if (got.size() != want.size()) return "label count differs";
  for (size_t v = 0; v < got.size(); ++v)
    if (got[v] != want[v])
      return "vertex " + std::to_string(v) + ": got " +
             std::to_string(got[v]) + ", reference " + std::to_string(want[v]);
  return "";
}

/// Every reached vertex must have had its out-edges relaxed at least once.
inline std::string check_relaxations(uint64_t relaxations,
                                     uint64_t reached_out_degree) {
  if (relaxations >= reached_out_degree) return "";
  return "engine reports " + std::to_string(relaxations) +
         " relaxations, fewer than the " + std::to_string(reached_out_degree) +
         " out-edges of the vertices it reached";
}

/// The service's per-status counters, as the report gives them.
struct StatusCounts {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  uint64_t unknown_graph = 0;
  uint64_t tenant_quarantined = 0;

  uint64_t sum() const {
    return completed + failed + shed + cancelled + deadline_expired +
           unknown_graph + tenant_quarantined;
  }
};

/// The client's own count of submitted queries must match both the
/// service's admission counter and the sum of its per-status counters.
inline std::string check_status_sum(uint64_t client_submitted,
                                    const StatusCounts& c) {
  if (client_submitted == c.submitted && client_submitted == c.sum())
    return "";
  return "client submitted " + std::to_string(client_submitted) +
         ", service counted " + std::to_string(c.submitted) +
         " submitted and " + std::to_string(c.sum()) + " resolved";
}

}  // namespace bench
