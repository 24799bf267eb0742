// Warm HostEngine: correctness and accounting across reuse — the invariant
// the whole serving layer leans on is that query N+1 on a warm engine is
// indistinguishable (results AND stats) from query N+1 on a cold one.
#include <gtest/gtest.h>

#include <atomic>

#include "core/validate.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/host_engine.hpp"

namespace adds {
namespace {

AddsHostOptions small_opts() {
  AddsHostOptions o;
  o.num_workers = 3;
  o.chunk_items = 32;
  o.block_words = 256;
  return o;
}

TEST(HostEngine, WarmReuseMatchesDijkstraAcrossQueries) {
  const auto g = make_rmat<uint32_t>(10, 8, 0.57, 0.19, 0.19,
                                     {WeightDist::kUniform, 500}, 11);
  HostEngine<uint32_t> engine(small_opts());
  const VertexId sources[] = {pick_source(g), 0, 1, 7, pick_source(g), 3};
  for (VertexId s : sources) {
    const auto res = engine.solve(g, s);
    const auto oracle = dijkstra(g, s);
    const auto rep = validate_distances(res, oracle);
    EXPECT_TRUE(rep.ok()) << "source " << s << ": " << rep.summary();
  }
  EXPECT_EQ(engine.queries_served(), 6u);
  EXPECT_GT(engine.pool_blocks(), 0u);
}

TEST(HostEngine, WorkStatsDoNotAccumulateAcrossQueries) {
  // Regression: with per-worker stats objects living as long as the
  // engine, a missing reset (or a combiner merged only at thread exit)
  // doubles every counter on the second run. Identical queries must report
  // statistically identical work.
  const auto g = make_grid_road<uint32_t>(24, 24, {WeightDist::kUniform, 200},
                                          5);
  HostEngine<uint32_t> engine(small_opts());
  const VertexId s = pick_source(g);
  const auto r1 = engine.solve(g, s);
  const auto r2 = engine.solve(g, s);
  EXPECT_TRUE(validate_distances(r1, r2).ok());

  ASSERT_GT(r1.work.items_processed, 0u);
  ASSERT_GT(r1.work.pushes, 0u);
  ASSERT_GT(r1.work.queue_publish_ops, 0u);
  // A leak shows up as ~2x; scheduling noise stays well under 1.5x.
  EXPECT_LE(r2.work.items_processed, r1.work.items_processed * 3 / 2);
  EXPECT_LE(r2.work.pushes, r1.work.pushes * 3 / 2);
  EXPECT_LE(r2.work.relaxations, r1.work.relaxations * 3 / 2);
  EXPECT_LE(r2.work.queue_publish_ops, r1.work.queue_publish_ops * 3 / 2);
  EXPECT_LE(r2.work.combined_items, r1.work.combined_items * 3 / 2 + 64);
  // Per-query pool peaks, not engine-lifetime peaks.
  EXPECT_GT(r2.health.peak_blocks_in_use, 0u);
  EXPECT_LE(r2.health.peak_blocks_in_use, r1.health.pool_blocks);
}

TEST(HostEngine, WorkStatsResetZeroesEveryCounter) {
  WorkStats s;
  s.items_processed = 1;
  s.relaxations = 2;
  s.improvements = 3;
  s.pushes = 4;
  s.queue_reserve_ops = 5;
  s.queue_publish_ops = 6;
  s.batch_flushes = 7;
  s.combined_items = 8;
  s.assigned_items = 9;
  s.inline_ranges = 10;
  s.inline_items = 11;
  s.stale_skipped = 12;
  s.heap_ops = 13;
  s.reset();
  WorkStats fresh;
  fresh.merge(s);
  EXPECT_EQ(fresh.items_processed, 0u);
  EXPECT_EQ(fresh.relaxations, 0u);
  EXPECT_EQ(fresh.improvements, 0u);
  EXPECT_EQ(fresh.pushes, 0u);
  EXPECT_EQ(fresh.queue_reserve_ops, 0u);
  EXPECT_EQ(fresh.queue_publish_ops, 0u);
  EXPECT_EQ(fresh.batch_flushes, 0u);
  EXPECT_EQ(fresh.combined_items, 0u);
  EXPECT_EQ(fresh.assigned_items, 0u);
  EXPECT_EQ(fresh.inline_ranges, 0u);
  EXPECT_EQ(fresh.inline_items, 0u);
  EXPECT_EQ(fresh.stale_skipped, 0u);
  EXPECT_EQ(fresh.heap_ops, 0u);
}

TEST(HostEngine, ReusesAcrossDifferentGraphsAndRegrowsPool) {
  HostEngine<uint32_t> engine(small_opts());
  const auto small = make_grid_road<uint32_t>(10, 10,
                                              {WeightDist::kUniform, 100}, 1);
  const auto big = make_rmat<uint32_t>(11, 8, 0.57, 0.19, 0.19,
                                       {WeightDist::kUniform, 500}, 2);

  const auto r1 = engine.solve(small, 0);
  const uint32_t small_pool = engine.pool_blocks();
  EXPECT_TRUE(validate_distances(r1, dijkstra(small, VertexId{0})).ok());

  const auto r2 = engine.solve(big, 0);
  EXPECT_GE(engine.pool_blocks(), small_pool);  // regrown for the big graph
  EXPECT_TRUE(validate_distances(r2, dijkstra(big, VertexId{0})).ok());

  // Back to the small graph on the big pool: no rebuild, still correct.
  const auto r3 = engine.solve(small, 5);
  EXPECT_TRUE(validate_distances(r3, dijkstra(small, VertexId{5})).ok());
  EXPECT_EQ(engine.queries_served(), 3u);
}

TEST(HostEngine, RecoversAfterCancelledQuery) {
  const auto g = make_grid_road<uint32_t>(30, 30, {WeightDist::kUniform, 300},
                                          9);
  HostEngine<uint32_t> engine(small_opts());
  std::atomic<bool> cancel{true};  // pre-set: aborts on the first sweep
  QueryControl ctl;
  ctl.cancel = &cancel;
  EXPECT_THROW(engine.solve(g, 0, ctl), Error);

  // The abort is cleared by the next query's reset; the same warm engine
  // must produce a correct result.
  const auto res = engine.solve(g, 0);
  EXPECT_TRUE(validate_distances(res, dijkstra(g, VertexId{0})).ok());
}

TEST(HostEngine, DeadlineThrowsDistinctTypeAndEngineSurvives) {
  const auto g = make_grid_road<uint32_t>(60, 60, {WeightDist::kUniform, 500},
                                          13);
  HostEngine<uint32_t> engine(small_opts());
  QueryControl ctl;
  ctl.deadline_ms = 1e-3;  // expires on the first manager sweep
  bool deadline_seen = false;
  try {
    engine.solve(g, 0, ctl);
  } catch (const DeadlineError&) {
    deadline_seen = true;
  }
  EXPECT_TRUE(deadline_seen);

  const auto res = engine.solve(g, 0);
  EXPECT_TRUE(validate_distances(res, dijkstra(g, VertexId{0})).ok());
}

TEST(HostEngine, ManagerInlineExecutionFiresAndStaysCorrect) {
  // One worker + tiny chunks: the manager regularly finds sub-threshold
  // leftovers with nobody idle, so the inline path gets real traffic.
  AddsHostOptions opts;
  opts.num_workers = 1;
  opts.chunk_items = 16;
  opts.manager_inline_items = 16;
  const auto g = make_rmat<uint32_t>(10, 8, 0.57, 0.19, 0.19,
                                     {WeightDist::kUniform, 400}, 17);
  HostEngine<uint32_t> engine(opts);
  const VertexId s = pick_source(g);
  const auto res = engine.solve(g, s);
  EXPECT_TRUE(validate_distances(res, dijkstra(g, s)).ok());
  EXPECT_GT(res.work.inline_ranges, 0u);
  EXPECT_GT(res.work.inline_items, 0u);
  EXPECT_GE(res.work.inline_items, res.work.inline_ranges);

  // And with the knob off, the counters stay silent.
  opts.manager_inline_items = 0;
  HostEngine<uint32_t> off(opts);
  const auto res_off = off.solve(g, s);
  EXPECT_TRUE(validate_distances(res_off, dijkstra(g, s)).ok());
  EXPECT_EQ(res_off.work.inline_ranges, 0u);
  EXPECT_EQ(res_off.work.inline_items, 0u);
}

TEST(HostEngine, FloatVariantReusesCorrectly) {
  const auto g = make_grid_road<float>(20, 20, {WeightDist::kUniform, 100}, 3);
  HostEngine<float> engine;
  for (VertexId s : {VertexId{0}, VertexId{17}, VertexId{0}}) {
    const auto res = engine.solve(g, s);
    EXPECT_TRUE(validate_distances(res, dijkstra(g, s)).ok());
  }
}

// Diamond s -> {a, b} -> v -> t. The heavier route through a is relaxed
// first (a precedes b in s's row and in the queue), so v is improved twice
// — to 11, then to 5 — and sits in the queue twice before either copy
// pops. Exactly one of the two copies may expand v.
CsrGraph<uint32_t> diamond() {
  GraphBuilder<uint32_t> b(5);
  b.add_edge(0, 1, 1);   // s -> a
  b.add_edge(0, 2, 2);   // s -> b
  b.add_edge(1, 3, 10);  // a -> v
  b.add_edge(2, 3, 3);   // b -> v
  b.add_edge(3, 4, 1);   // v -> t
  return b.build();
}

AddsHostOptions diamond_opts() {
  AddsHostOptions o;
  o.num_workers = 1;
  o.delta = 1000.0;  // one bucket: every push lands behind the one before
  return o;
}

TEST(HostEngine, DuplicatePopsExpandEachLabelOnce) {
  const auto g = diamond();
  const auto oracle = dijkstra(g, VertexId{0});
  HostEngine<uint32_t> engine(diamond_opts());
  const auto res = engine.solve(g, 0);
  EXPECT_TRUE(validate_distances(res, oracle).ok());
  EXPECT_EQ(res.dist[3], 5u);
  EXPECT_EQ(res.work.improvements, 5u);  // a, b, v twice, t
  EXPECT_EQ(res.work.stale_skipped, 1u);
  EXPECT_EQ(res.work.items_processed, 5u);  // == reached
}

TEST(HostEngine, DuplicatePopsExpandEachLabelOnceInBatch) {
  const auto g = diamond();
  const auto oracle = dijkstra(g, VertexId{0});
  HostEngine<uint32_t> engine(diamond_opts());
  const auto br = engine.solve_batch(g, {LaneQuery{0}, LaneQuery{0}});
  for (const auto& o : br.lanes) {
    ASSERT_EQ(o.status, LaneStatus::kOk);
    EXPECT_TRUE(validate_distances(o.result, oracle).ok());
  }
  EXPECT_EQ(br.work.stale_skipped, 2u);        // one per lane
  EXPECT_EQ(br.work.items_processed, 2u * 5);  // == reached, per lane
}

TEST(HostEngine, DuplicatePopsExpandEachLabelOnceInRepair) {
  // Warm labels from a solve that had not reached v or t yet; the repair
  // frontier re-relaxes a and b, which improve v twice again.
  const auto g = diamond();
  const auto oracle = dijkstra(g, VertexId{0});
  constexpr DistT<uint32_t> kInf = DistTraits<uint32_t>::infinity();
  RepairPlan<uint32_t> plan;
  plan.warm = {0, 1, 2, kInf, kInf};
  plan.frontier = {{1, 1}, {2, 2}};
  HostEngine<uint32_t> engine(diamond_opts());
  const auto res = engine.solve_repair(g, 0, plan);
  EXPECT_TRUE(validate_distances(res, oracle).ok());
  EXPECT_EQ(res.work.stale_skipped, 1u);
  EXPECT_EQ(res.work.items_processed, 4u);  // a, b, v, t
}

TEST(HostEngine, HeadSpanBeyondSixtyFourBlocksCompletes) {
  // A bucket used to map at most 64 blocks (a fixed translation table),
  // and its writers are the head bucket's own workers: once the live head
  // span outgrew 64 blocks, they parked on capacity that only their own
  // unfinished ranges could free, and the solve spun until its deadline.
  // With 64-word blocks, 64 blocks hold 4,096 items; one Δ bucket over
  // this RMAT graph holds many times that.
  const auto g = make_rmat<uint32_t>(13, 8, 0.57, 0.19, 0.19,
                                     {WeightDist::kUniform, 10000}, 2);
  AddsHostOptions opts;
  opts.num_workers = 3;
  opts.block_words = 64;
  opts.delta = 1e9;  // one bucket: the whole traversal lives at the head
  HostEngine<uint32_t> engine(opts);
  QueryControl ctl;
  ctl.deadline_ms = 20000.0;  // a livelock fails here instead of hanging
  const VertexId s = pick_source(g);
  const auto res = engine.solve(g, s, ctl);
  EXPECT_TRUE(validate_distances(res, dijkstra(g, s)).ok());
  EXPECT_GT(res.health.peak_blocks_in_use, 64u);
}

TEST(HostEngine, OneShotWrapperStillWorks) {
  // adds_host() is now a thin wrapper over a throwaway engine; its
  // semantics must be unchanged.
  const auto g = make_grid_road<uint32_t>(15, 15, {WeightDist::kUniform, 50},
                                          21);
  const auto res = adds_host(g, 0, small_opts());
  EXPECT_EQ(res.solver, "adds-host");
  EXPECT_TRUE(validate_distances(res, dijkstra(g, VertexId{0})).ok());
}

}  // namespace
}  // namespace adds
