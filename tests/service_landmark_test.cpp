// Landmark layer wired through SsspService: publish-time table builds on
// the rebuilder, point-to-point routing at submit (oracle-exact / ALT /
// typed engine fallback), the satellite cache-key fold of
// QueryOptions::target, delta lineage (warm table repair, typed rebuild
// fallback), asymmetric graphs typed kUnsupported, and injected
// landmark.build faults that fail typed — never a wrong distance.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "oracle_util.hpp"
#include "service/result_cache.hpp"
#include "service/sssp_service.hpp"
#include "sssp/dijkstra.hpp"
#include "util/fault.hpp"

namespace adds {
namespace {

using IntGraph = CsrGraph<uint32_t>;

IntGraph test_graph(uint64_t seed = 1) {
  return make_grid_road<uint32_t>(20, 20, {WeightDist::kUniform, 200}, seed);
}

ServiceConfig small_service(uint32_t engines = 1) {
  ServiceConfig cfg;
  cfg.num_engines = engines;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.guarded_fallback = false;
  return cfg;
}

/// Mirrors every change so the child generation keeps the symmetry the
/// landmark layer requires.
GraphDelta<uint32_t> symmetric_delta(const IntGraph& g, size_t weight_changes,
                                     size_t inserts, uint64_t seed) {
  const GraphDelta<uint32_t> base =
      oracle::make_test_delta(g, weight_changes, inserts, seed);
  GraphDelta<uint32_t> out;
  for (const EdgeChange<uint32_t>& c : base.changes) {
    out.changes.push_back(c);
    out.changes.push_back(EdgeChange<uint32_t>{c.dst, c.src, c.weight});
  }
  return out;
}

LandmarkTableStatus table_status(SsspService<uint32_t>& svc, uint64_t fp) {
  for (const auto& ts : svc.report().tenants)
    if (ts.graph_fp == fp) return ts.oracle_status;
  return LandmarkTableStatus::kNone;
}

bool wait_table(SsspService<uint32_t>& svc, uint64_t fp,
                LandmarkTableStatus want, int budget_ms = 15000) {
  for (int waited = 0; waited < budget_ms; waited += 5) {
    if (table_status(svc, fp) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return table_status(svc, fp) == want;
}

TEST(ServiceLandmark, P2pServedWithoutEnginesMatchesDijkstra) {
  const auto g = test_graph();
  SsspService<uint32_t> svc(small_service());
  const uint64_t fp = svc.set_graph(g);
  ASSERT_TRUE(wait_table(svc, fp, LandmarkTableStatus::kReady));

  const std::vector<VertexId> sources = {0, 7, 123, 399};
  const std::vector<VertexId> targets = {0, 1, 57, 200, 398};
  uint64_t queries = 0;
  for (const VertexId s : sources) {
    const auto oracle = dijkstra(g, s);
    for (const VertexId t : targets) {
      QueryOptions opts;
      opts.target = t;
      const auto q = svc.query(s, opts);
      ++queries;
      ASSERT_TRUE(q.p2p_serve == P2pServe::kOracleExact ||
                  q.p2p_serve == P2pServe::kAltSearch)
          << "pair (" << s << "," << t << ") served "
          << p2p_serve_name(q.p2p_serve);
      EXPECT_EQ(q.result, nullptr) << "oracle serves carry no full tree";
      ASSERT_TRUE(q.p2p_reachable);
      EXPECT_EQ(q.p2p_distance, oracle.dist[t])
          << "pair (" << s << "," << t << ")";
    }
  }

  // Every answer came from the table or the submit-thread A* — the engine
  // fleet never ran a query.
  const auto rep = svc.report();
  EXPECT_EQ(rep.engine_queries, 0u);
  EXPECT_EQ(rep.oracle_exact_hits + rep.alt_searches, queries);
  EXPECT_EQ(rep.p2p_engine_fallbacks, 0u);
  EXPECT_GT(rep.oracle_exact_hits, 0u);  // s==t and landmark pairs are tight
  EXPECT_EQ(rep.landmark_builds_ok, 1u);
  EXPECT_EQ(rep.landmark_tables, 1u);
  bool found = false;
  for (const auto& ts : rep.tenants) {
    if (ts.graph_fp != fp) continue;
    found = true;
    EXPECT_EQ(ts.oracle_status, LandmarkTableStatus::kReady);
    EXPECT_GT(ts.oracle_landmarks, 0u);
    EXPECT_EQ(ts.oracle_exact_hits + ts.alt_searches, queries);
  }
  EXPECT_TRUE(found);
}

TEST(ServiceLandmark, DisabledLayerFallsThroughToEngineTyped) {
  const auto g = test_graph(3);
  auto cfg = small_service();
  cfg.landmark.enabled = false;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);

  const VertexId s = 5, t = 333;
  const auto oracle = dijkstra(g, s);
  QueryOptions opts;
  opts.target = t;
  const auto q = svc.query(s, opts);
  EXPECT_EQ(q.p2p_serve, P2pServe::kEngineFallback);
  ASSERT_NE(q.result, nullptr);  // the fallback carries the full tree
  EXPECT_TRUE(q.p2p_reachable);
  EXPECT_EQ(q.p2p_distance, oracle.dist[t]);

  const auto rep = svc.report();
  EXPECT_EQ(rep.p2p_engine_fallbacks, 1u);
  EXPECT_EQ(rep.landmark_builds_ok, 0u);
  EXPECT_EQ(rep.landmark_tables, 0u);

  // A target out of range is caller misuse, same contract as the source.
  QueryOptions bad;
  bad.target = g.num_vertices();
  EXPECT_THROW(svc.query(0, bad), Error);
}

// Satellite regression: QueryOptions::target is folded into the cache
// digest, so a p2p fallback's tree and a plain full-SSSP tree from the
// same (graph, source) can never serve each other's keys.
TEST(ServiceLandmark, CacheKeyFoldsTargetIntoDigest) {
  EXPECT_EQ(p2p_digest(0x1234u, kInvalidVertex), 0x1234u);
  EXPECT_NE(p2p_digest(0x1234u, 7), 0x1234u);
  EXPECT_NE(p2p_digest(0x1234u, 7), p2p_digest(0x1234u, 8));
  EXPECT_NE(p2p_digest(0x1234u, 7), p2p_digest(0x4321u, 7));

  const auto g = test_graph(5);
  auto cfg = small_service();
  cfg.landmark.enabled = false;  // force every p2p through the engine path
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);
  const VertexId s = 2;
  const auto oracle = dijkstra(g, s);

  const auto full = svc.query(s);
  EXPECT_FALSE(full.cache_hit);

  QueryOptions p2p;
  p2p.target = 111;
  const auto first = svc.query(s, p2p);
  EXPECT_FALSE(first.cache_hit) << "p2p must not alias the full-SSSP key";
  EXPECT_EQ(first.p2p_distance, oracle.dist[111]);

  const auto twin = svc.query(s, p2p);
  EXPECT_TRUE(twin.cache_hit) << "identical p2p queries share their key";
  EXPECT_EQ(twin.p2p_serve, P2pServe::kEngineFallback);
  EXPECT_EQ(twin.p2p_distance, oracle.dist[111]);

  QueryOptions other;
  other.target = 112;
  EXPECT_FALSE(svc.query(s, other).cache_hit)
      << "distinct targets must not collide";
  EXPECT_TRUE(svc.query(s).cache_hit)
      << "the full-SSSP entry is still keyed on the base digest";
}

TEST(ServiceLandmark, DeltaLineageWarmRepairsTable) {
  const auto g = test_graph(7);
  SsspService<uint32_t> svc(small_service());
  const uint64_t parent_fp = svc.set_graph(g);
  ASSERT_TRUE(wait_table(svc, parent_fp, LandmarkTableStatus::kReady));

  const auto delta = symmetric_delta(g, 8, 2, 11);
  const auto out = svc.apply_delta(0, delta);
  ASSERT_NE(out.child_fp, parent_fp);
  ASSERT_TRUE(wait_table(svc, out.child_fp, LandmarkTableStatus::kReady));

  const auto rep = svc.report();
  EXPECT_EQ(rep.landmark_repairs_ok, 1u);
  EXPECT_EQ(rep.landmark_rebuild_fallbacks, 0u);
  EXPECT_EQ(rep.landmark_build_failures, 0u);
  // The parent generation retired along with its table: one resident
  // tenant, one resident table.
  EXPECT_EQ(rep.landmark_tables, 1u);
  ASSERT_EQ(svc.resident_graphs().size(), 1u);
  EXPECT_EQ(svc.resident_graphs()[0], out.child_fp);

  // Child p2p answers are exact against a cold Dijkstra on the child.
  const auto child = apply_delta(g, delta).graph;
  const VertexId s = 9;
  const auto oracle = dijkstra(child, s);
  for (const VertexId t : {VertexId(0), VertexId(111), VertexId(399)}) {
    QueryOptions opts;
    opts.target = t;
    const auto q = svc.query(s, opts);
    ASSERT_TRUE(q.p2p_serve == P2pServe::kOracleExact ||
                q.p2p_serve == P2pServe::kAltSearch);
    EXPECT_EQ(q.p2p_distance, oracle.dist[t]) << "target " << t;
  }
}

TEST(ServiceLandmark, RepairFaultFallsBackToTypedColdRebuild) {
  const auto g = test_graph(9);
  SsspService<uint32_t> svc(small_service());
  const uint64_t parent_fp = svc.set_graph(g);
  ASSERT_TRUE(wait_table(svc, parent_fp, LandmarkTableStatus::kReady));

  // One fault: the warm repair dies, the typed cold rebuild succeeds.
  fault::FaultPlan plan(5);
  plan.set(fault::Site::kLandmarkBuild, {1.0, 1, 0});
  const auto delta = symmetric_delta(g, 6, 1, 13);
  DeltaOutcome out;
  {
    fault::FaultScope scope(plan);
    out = svc.apply_delta(0, delta);
    ASSERT_TRUE(wait_table(svc, out.child_fp, LandmarkTableStatus::kReady));
  }
  EXPECT_GT(plan.fires(fault::Site::kLandmarkBuild), 0u);

  const auto rep = svc.report();
  EXPECT_EQ(rep.landmark_rebuild_fallbacks, 1u);
  EXPECT_EQ(rep.landmark_repairs_ok, 0u);
  EXPECT_EQ(rep.landmark_builds_ok, 2u);  // publish build + cold rebuild
  uint64_t fallback_events = 0;
  for (const auto& e : svc.flight_dump())
    if (FlightKind(e.ev.kind) == FlightKind::kTableRebuildFallback)
      ++fallback_events;
  EXPECT_EQ(fallback_events, 1u);

  // The rebuilt table still serves exact answers.
  const auto child = apply_delta(g, delta).graph;
  const auto oracle = dijkstra(child, 4);
  QueryOptions opts;
  opts.target = 250;
  const auto q = svc.query(4, opts);
  ASSERT_TRUE(q.p2p_serve == P2pServe::kOracleExact ||
              q.p2p_serve == P2pServe::kAltSearch);
  EXPECT_EQ(q.p2p_distance, oracle.dist[250]);
}

TEST(ServiceLandmark, BuildFaultIsTypedAndQueriesRideTheEnginePath) {
  const auto g = test_graph(11);
  SsspService<uint32_t> svc(small_service());

  fault::FaultPlan plan(3);
  plan.set(fault::Site::kLandmarkBuild, {1.0, ~0ull, 0});
  uint64_t fp = 0;
  {
    fault::FaultScope scope(plan);
    fp = svc.set_graph(g);
    ASSERT_TRUE(wait_table(svc, fp, LandmarkTableStatus::kFailed));
  }
  EXPECT_GT(plan.fires(fault::Site::kLandmarkBuild), 0u);

  const auto rep = svc.report();
  EXPECT_EQ(rep.landmark_build_failures, 1u);
  EXPECT_EQ(rep.landmark_builds_ok, 0u);
  EXPECT_EQ(rep.landmark_tables, 0u);

  // The failure is contained to the acceleration layer: p2p queries are
  // served exact through an engine, typed kEngineFallback.
  const auto oracle = dijkstra(g, 1);
  QueryOptions opts;
  opts.target = 300;
  const auto q = svc.query(1, opts);
  EXPECT_EQ(q.p2p_serve, P2pServe::kEngineFallback);
  EXPECT_EQ(q.p2p_distance, oracle.dist[300]);
  EXPECT_EQ(svc.report().p2p_engine_fallbacks, 1u);
}

TEST(ServiceLandmark, AsymmetricGraphIsTypedUnsupported) {
  GraphBuilder<uint32_t> b{16};
  for (VertexId v = 0; v + 1 < 16; ++v) b.add_undirected_edge(v, v + 1, 3);
  b.add_edge(0, 9, 1);  // one-way shortcut: ALT bounds would be unsound
  const auto g = b.build();

  SsspService<uint32_t> svc(small_service());
  const uint64_t fp = svc.set_graph(g);
  ASSERT_TRUE(wait_table(svc, fp, LandmarkTableStatus::kUnsupported));
  const auto rep = svc.report();
  EXPECT_EQ(rep.landmark_unsupported, 1u);
  EXPECT_EQ(rep.landmark_build_failures, 0u);
  EXPECT_EQ(rep.landmark_tables, 0u);

  // Still served — exactly — through the engine path.
  const auto oracle = dijkstra(g, 0);
  QueryOptions opts;
  opts.target = 12;
  const auto q = svc.query(0, opts);
  EXPECT_EQ(q.p2p_serve, P2pServe::kEngineFallback);
  EXPECT_EQ(q.p2p_distance, oracle.dist[12]);
}

// Slows every engine sweep (the table build runs on the rebuilder's
// engine) so a build stays on the rebuilder long enough to be observed.
void slow_builds(fault::FaultPlan& plan) {
  plan.set(fault::Site::kManagerScanStall, {1.0, 8, 30000});
}

TEST(ServiceLandmark, PendingCountsTheBuildOnTheRebuilder) {
  // A build is pending from the moment it is scheduled until its terminal
  // event: queued, and also while it runs on the rebuilder. Until then
  // the generation's table status reads kBuilding.
  const auto g = test_graph(13);
  SsspService<uint32_t> svc(small_service());
  fault::FaultPlan plan(21);
  slow_builds(plan);
  fault::FaultScope scope(plan);
  const uint64_t fp = svc.set_graph(g);
  uint64_t building_polls = 0, unaccounted = 0;
  for (int waited = 0; waited < 15000; waited += 2) {
    const auto rep = svc.report();
    LandmarkTableStatus st = LandmarkTableStatus::kNone;
    for (const auto& ts : rep.tenants)
      if (ts.graph_fp == fp) st = ts.oracle_status;
    if (st == LandmarkTableStatus::kReady) break;
    if (st == LandmarkTableStatus::kBuilding) {
      ++building_polls;
      if (rep.landmark_builds_pending != 1) ++unaccounted;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(table_status(svc, fp), LandmarkTableStatus::kReady);
  EXPECT_GT(building_polls, 0u);
  EXPECT_EQ(unaccounted, 0u);
  EXPECT_EQ(svc.report().landmark_builds_pending, 0u);
  EXPECT_GT(plan.fires(fault::Site::kManagerScanStall), 0u);
}

TEST(ServiceLandmark, RetiredGenerationsBuildEndsWithDroppedEvent) {
  // Every kTableBuildStart gets a terminal event. A build whose generation
  // leaves the catalog before it installs ends in kTableDropped.
  const auto g = test_graph(17);
  SsspService<uint32_t> svc(small_service());
  fault::FaultPlan plan(21);
  slow_builds(plan);
  fault::FaultScope scope(plan);
  const uint64_t fp = svc.publish_graph(g);
  ASSERT_EQ(svc.report().landmark_builds_pending, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(svc.retire_graph(fp));
  for (int waited = 0; waited < 15000; waited += 2) {
    if (svc.report().landmark_builds_pending == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(svc.report().landmark_builds_pending, 0u);
  uint64_t starts = 0, dropped = 0, other_ends = 0;
  for (const auto& e : svc.flight_dump()) {
    if (e.ev.b != fp) continue;
    switch (FlightKind(e.ev.kind)) {
      case FlightKind::kTableBuildStart: ++starts; break;
      case FlightKind::kTableDropped: ++dropped; break;
      case FlightKind::kTableBuilt:
      case FlightKind::kTableRepaired:
      case FlightKind::kTableBuildFailed: ++other_ends; break;
      default: break;
    }
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(other_ends, 0u);
}

}  // namespace
}  // namespace adds
