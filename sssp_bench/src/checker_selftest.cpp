// Self-test of the benchmark's oracle: it must accept true answers and
// reject corrupted ones. Exits 0 only when every corrupted input was
// rejected and every true input accepted.
//
// Cases, on a directed RMAT graph and an undirected road grid:
//   * the Dijkstra labelling and an engine answer pass the certificate;
//   * one label lowered, one label raised, a reached vertex marked
//     unreached, and a tree from the wrong graph generation are rejected;
//   * the relaxation and status-sum property checks reject counts that
//     disagree with their independent source.
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "oracle.hpp"
#include "sssp/host_engine.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}
void expect_accept(const std::string& err, const std::string& what) {
  expect(err.empty(), what + (err.empty() ? "" : " (" + err + ")"));
}
void expect_reject(const std::string& err, const std::string& what) {
  expect(!err.empty(), what + (err.empty() ? "" : " -> " + err));
}

void run_cases(const std::string& name, const adds::GraphSpec& spec,
               bool symmetric) {
  using bench::kUnreached;
  const auto g = adds::generate_graph<uint32_t>(spec);
  const bench::RefGraph ref = bench::RefGraph::copy_of(g);
  // A source with out-edges, and the farthest reached vertex from it.
  uint32_t src = 0;
  while (ref.out_degree(src) < 2) ++src;
  const std::vector<uint64_t> truth = bench::dijkstra(ref, src);
  uint32_t far = src;
  for (uint32_t v = 0; v < truth.size(); ++v)
    if (truth[v] != kUnreached && truth[v] > truth[far]) far = v;

  bench::CertStats st;
  expect_accept(bench::certify(ref, src, truth, &st),
                name + ": Dijkstra labelling certifies");
  adds::AddsHostOptions opts;
  opts.num_workers = 2;
  adds::HostEngine<uint32_t> engine(opts);
  const auto r = engine.solve(g, src);
  expect_accept(bench::certify(ref, src, r.dist),
                name + ": engine answer certifies");
  expect_accept(bench::compare(r.dist, truth),
                name + ": engine answer equals Dijkstra");
  expect_accept(bench::check_relaxations(r.work.relaxations,
                                         st.reached_out_degree),
                name + ": engine relaxations cover the reached out-edges");

  auto lowered = truth;
  lowered[far] -= 1;
  expect_reject(bench::certify(ref, src, lowered), name + ": label lowered");
  expect_reject(bench::compare(lowered, truth),
                name + ": label lowered vs Dijkstra");
  auto raised = truth;
  raised[far] += 1;
  expect_reject(bench::certify(ref, src, raised), name + ": label raised");
  auto dropped = truth;
  dropped[far] = kUnreached;
  expect_reject(bench::certify(ref, src, dropped),
                name + ": reached vertex marked unreached");
  auto source_moved = truth;
  source_moved[src] = 1;
  expect_reject(bench::certify(ref, src, source_moved),
                name + ": dist[source] != 0");
  for (uint32_t v = 0; v < truth.size(); ++v) {
    if (truth[v] != kUnreached) continue;
    auto invented = truth;
    invented[v] = truth[far];
    expect_reject(bench::certify(ref, src, invented),
                  name + ": unreachable vertex given a label");
    break;
  }

  // Wrong generation: make the last edge into `far` on its shortest path
  // cheaper, so the child's tree is exact for the child and wrong for
  // the parent (and the parent's tree wrong for the child).
  bench::RefGraph child = ref;
  bool changed = false;
  for (uint32_t u = 0; u < ref.num_vertices() && !changed; ++u) {
    if (truth[u] == kUnreached) continue;
    for (uint64_t e = ref.offsets[u]; e < ref.offsets[u + 1]; ++e) {
      if (ref.targets[e] == far && truth[u] + ref.weights[e] == truth[far] &&
          ref.weights[e] > 1) {
        child.set_weight(u, far, 1);
        if (symmetric) child.set_weight(far, u, 1);
        changed = true;
        break;
      }
    }
  }
  expect(changed, name + ": built a child generation");
  const std::vector<uint64_t> child_truth = bench::dijkstra(child, src);
  expect_accept(bench::certify(child, src, child_truth),
                name + ": child tree certifies on the child");
  expect_reject(bench::certify(ref, src, child_truth),
                name + ": child tree rejected on the parent");
  expect_reject(bench::certify(child, src, truth),
                name + ": parent tree rejected on the child");

  expect_reject(bench::check_relaxations(st.reached_out_degree - 1,
                                         st.reached_out_degree),
                name + ": too few relaxations");
}

}  // namespace

int main() {
  adds::GraphSpec rmat;
  rmat.family = adds::GraphFamily::kRmat;
  rmat.scale = 10;
  rmat.a = 8;
  rmat.seed = 2;
  run_cases("rmat10", rmat, false);

  adds::GraphSpec grid;
  grid.family = adds::GraphFamily::kGridRoad;
  grid.scale = 40;
  grid.a = 40;
  grid.seed = 1;
  run_cases("grid40", grid, true);

  bench::StatusCounts c;
  c.submitted = 10;
  c.completed = 9;
  c.shed = 1;
  expect_accept(bench::check_status_sum(10, c), "status counts add up");
  expect_reject(bench::check_status_sum(11, c),
                "client count above the service's");
  c.shed = 0;
  expect_reject(bench::check_status_sum(10, c),
                "per-status counts short of submitted");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
