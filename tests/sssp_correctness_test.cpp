// End-to-end correctness: every engine must produce exactly Dijkstra's
// distances on every smoke-corpus graph (the artifact's verify_against_*
// step as a parameterized test matrix).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "core/experiment.hpp"
#include "core/validate.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/corpus.hpp"
#include "graph/generators.hpp"

namespace adds {
namespace {

// gtest prints a parameter that has no printer as its raw bytes, and ctest
// takes that text into each test's name. The padding is therefore spelled
// out and zeroed: uninitialised padding made the names differ per build.
struct Case {
  SolverKind solver;
  uint8_t pad[7] = {};
  size_t graph_index;
};
static_assert(std::has_unique_object_representations_v<Case>);

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const auto specs = corpus_specs(CorpusTier::kSmoke);
  std::string name = std::string(solver_name(info.param.solver)) + "_" +
                     specs[info.param.graph_index].name.substr(6);
  for (auto& c : name)
    if (c == '-') c = '_';
  return name;
}

class SolverCorrectness : public testing::TestWithParam<Case> {};

TEST_P(SolverCorrectness, MatchesDijkstraInt) {
  const auto specs = corpus_specs(CorpusTier::kSmoke);
  const GraphSpec& spec = specs[GetParam().graph_index];
  const auto g = generate_graph<uint32_t>(spec);
  const VertexId source = pick_source(g);

  EngineConfig cfg;
  const auto oracle = dijkstra(g, source, &cfg.cpu);
  const auto res = run_solver(GetParam().solver, g, source, cfg);

  const auto rep = validate_distances(res, oracle);
  EXPECT_TRUE(rep.ok()) << res.solver << " on " << spec.name << ": "
                        << rep.summary();
  EXPECT_GT(res.reached(), 0u);
}

TEST_P(SolverCorrectness, MatchesDijkstraFloat) {
  const auto specs = corpus_specs(CorpusTier::kSmoke);
  const GraphSpec& spec = specs[GetParam().graph_index];
  const auto g = generate_graph<float>(spec);
  const VertexId source = pick_source(g);

  EngineConfig cfg;
  const auto oracle = dijkstra(g, source, &cfg.cpu);
  const auto res = run_solver(GetParam().solver, g, source, cfg);

  const auto rep = validate_distances(res, oracle);
  EXPECT_TRUE(rep.ok()) << res.solver << " on " << spec.name << ": "
                        << rep.summary();
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const size_t n = corpus_specs(CorpusTier::kSmoke).size();
  for (const SolverKind k :
       {SolverKind::kAdds, SolverKind::kAddsHost, SolverKind::kNf,
        SolverKind::kGunNf, SolverKind::kGunBf, SolverKind::kNv,
        SolverKind::kCpuDs}) {
    for (size_t i = 0; i < n; ++i)
      cases.push_back({.solver = k, .graph_index = i});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSolversAllGraphs, SolverCorrectness,
                         testing::ValuesIn(all_cases()), case_name);

// Unreachable vertices must stay at infinity for every solver.
TEST(SsspEdgeCases, DisconnectedComponent) {
  GraphBuilder<uint32_t> b{6};
  b.add_undirected_edge(0, 1, 5);
  b.add_undirected_edge(1, 2, 7);
  b.add_undirected_edge(3, 4, 2);  // separate component
  const auto g = b.build();

  EngineConfig cfg;
  for (const SolverKind k : all_solvers()) {
    const auto res = run_solver(k, g, 0, cfg);
    EXPECT_EQ(res.dist[0], 0u) << solver_name(k);
    EXPECT_EQ(res.dist[1], 5u) << solver_name(k);
    EXPECT_EQ(res.dist[2], 12u) << solver_name(k);
    EXPECT_EQ(res.dist[3], DistTraits<uint32_t>::infinity())
        << solver_name(k);
    EXPECT_EQ(res.dist[5], DistTraits<uint32_t>::infinity())
        << solver_name(k);
    EXPECT_EQ(res.reached(), 3u) << solver_name(k);
  }
}

TEST(SsspEdgeCases, SingleVertex) {
  GraphBuilder<uint32_t> b{1};
  const auto g = b.build();
  EngineConfig cfg;
  for (const SolverKind k : all_solvers()) {
    const auto res = run_solver(k, g, 0, cfg);
    ASSERT_EQ(res.dist.size(), 1u);
    EXPECT_EQ(res.dist[0], 0u) << solver_name(k);
  }
}

TEST(SsspEdgeCases, SourceOutOfRangeThrows) {
  GraphBuilder<uint32_t> b{3};
  b.add_edge(0, 1, 1);
  const auto g = b.build();
  EngineConfig cfg;
  EXPECT_THROW(run_solver(SolverKind::kAdds, g, 7, cfg), Error);
  EXPECT_THROW(run_solver(SolverKind::kDijkstra, g, 3, cfg), Error);
}

}  // namespace
}  // namespace adds
