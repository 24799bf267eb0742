// Batched dispatch at the service layer: same-graph queue coalescing into
// one HostEngine::solve_batch, per-member fan-out, duplicate-source lane
// sharing, and the batches/batched_queries/batch_fills accounting.
//
// The recipe every test uses to make coalescing deterministic: a fault
// plan stalls the FIRST query's manager sweep (Site::kManagerScanStall,
// one fire), the test submits the batch members while the lone engine is
// pinned inside that stall, and the dispatcher then drains the whole
// same-fingerprint backlog as one batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/validate.hpp"
#include "graph/generators.hpp"
#include "service/sssp_service.hpp"
#include "sssp/dijkstra.hpp"
#include "util/fault.hpp"

namespace adds {
namespace {

ServiceConfig batch_service() {
  ServiceConfig cfg;
  cfg.num_engines = 1;  // one slot => everything behind the blocker queues
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.guarded_fallback = false;
  cfg.max_batch_lanes = 8;
  return cfg;
}

IntGraph batch_graph(uint64_t seed = 11) {
  return make_grid_road<uint32_t>(40, 40, {WeightDist::kUniform, 200}, seed);
}

void expect_valid(const QueryOutcome<uint32_t>& out, const IntGraph& g,
                  VertexId s) {
  ASSERT_EQ(out.status, QueryStatus::kOk);
  ASSERT_NE(out.result, nullptr);
  const auto rep = validate_distances(*out.result, dijkstra(g, s));
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

/// One 60ms manager-sweep stall: long enough to queue every member while
/// the blocker runs, far too short to flake a CI timeout.
void arm_blocker(fault::FaultPlan& plan) {
  plan.set(fault::Site::kManagerScanStall, {1.0, 1, 60000});
}

/// Publishing a graph schedules its landmark table build on the rebuilder.
/// The blocker is armed only once that build has settled; otherwise the
/// build's own manager sweep can take the one stall meant for the blocker.
void wait_landmark_builds(const SsspService<uint32_t>& svc) {
  while (svc.report().landmark_builds_pending != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/// Waits until the dispatcher has dequeued the blocker (queue empty), so
/// members submitted next are what the post-blocker dispatch coalesces —
/// without this the blocker itself would join the batch.
void wait_until_picked(SsspService<uint32_t>& svc) {
  while (svc.report().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ServiceBatch, CoalescesQueuedSameGraphQueriesIntoOneSolve) {
  const auto g = batch_graph();
  fault::FaultPlan plan(3);
  arm_blocker(plan);

  SsspService<uint32_t> svc(batch_service());
  svc.set_graph(g);
  wait_landmark_builds(svc);
  fault::FaultScope scope(plan);

  auto blocker = svc.submit(0);
  wait_until_picked(svc);
  std::vector<std::future<QueryOutcome<uint32_t>>> futs;
  for (VertexId s = 1; s <= 6; ++s) futs.push_back(svc.submit(s));

  expect_valid(blocker.get(), g, 0);
  for (VertexId s = 1; s <= 6; ++s) expect_valid(futs[s - 1].get(), g, s);

  const ServiceReport rep = svc.report();
  EXPECT_EQ(rep.completed, 7u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.batched_queries, 6u);
  EXPECT_EQ(rep.batch_fills, 6u);  // six distinct sources, six entries
  // The batch charged the engine once: blocker + one batched dispatch.
  EXPECT_EQ(rep.engine_queries, 2u);

  // Every member's result is now cached individually: a re-query of any
  // batched source is a submit-time hit.
  const auto again = svc.submit(3).get();
  EXPECT_EQ(again.status, QueryStatus::kOk);
  EXPECT_TRUE(again.cache_hit);
}

TEST(ServiceBatch, DuplicateSourcesShareOneLaneAndOneResult) {
  const auto g = batch_graph();
  fault::FaultPlan plan(4);
  arm_blocker(plan);

  SsspService<uint32_t> svc(batch_service());
  svc.set_graph(g);
  wait_landmark_builds(svc);
  fault::FaultScope scope(plan);

  auto blocker = svc.submit(0);
  wait_until_picked(svc);
  const std::vector<VertexId> sources{7, 7, 9, 9, 9};
  std::vector<std::future<QueryOutcome<uint32_t>>> futs;
  for (VertexId s : sources) futs.push_back(svc.submit(s));

  expect_valid(blocker.get(), g, 0);
  std::vector<QueryOutcome<uint32_t>> outs;
  for (size_t i = 0; i < sources.size(); ++i) {
    outs.push_back(futs[i].get());
    expect_valid(outs.back(), g, sources[i]);
  }
  // Same source => same lane => the SAME immutable result object.
  EXPECT_EQ(outs[0].result.get(), outs[1].result.get());
  EXPECT_EQ(outs[2].result.get(), outs[3].result.get());
  EXPECT_EQ(outs[3].result.get(), outs[4].result.get());
  EXPECT_NE(outs[0].result.get(), outs[2].result.get());

  const ServiceReport rep = svc.report();
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.batched_queries, 5u);
  EXPECT_EQ(rep.batch_fills, 2u);  // one entry per distinct lane
}

TEST(ServiceBatch, PreCancelledMemberResolvesWithoutDisturbingTheBatch) {
  const auto g = batch_graph();
  fault::FaultPlan plan(5);
  arm_blocker(plan);

  SsspService<uint32_t> svc(batch_service());
  svc.set_graph(g);
  wait_landmark_builds(svc);
  fault::FaultScope scope(plan);

  std::atomic<bool> cancel{false};
  auto blocker = svc.submit(0);
  wait_until_picked(svc);
  QueryOptions q;
  q.cancel = &cancel;
  auto f1 = svc.submit(1);
  auto f2 = svc.submit(2, q);
  auto f3 = svc.submit(3);
  cancel.store(true, std::memory_order_release);  // fires while queued

  expect_valid(blocker.get(), g, 0);
  expect_valid(f1.get(), g, 1);
  EXPECT_EQ(f2.get().status, QueryStatus::kCancelled);
  expect_valid(f3.get(), g, 3);

  const ServiceReport rep = svc.report();
  EXPECT_EQ(rep.cancelled, 1u);
  EXPECT_EQ(rep.completed, 3u);
}

TEST(ServiceBatch, MaxBatchLanesOneDisablesCoalescing) {
  const auto g = batch_graph();
  fault::FaultPlan plan(6);
  arm_blocker(plan);

  ServiceConfig cfg = batch_service();
  cfg.max_batch_lanes = 1;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);
  wait_landmark_builds(svc);
  fault::FaultScope scope(plan);

  auto blocker = svc.submit(0);
  wait_until_picked(svc);
  std::vector<std::future<QueryOutcome<uint32_t>>> futs;
  for (VertexId s = 1; s <= 3; ++s) futs.push_back(svc.submit(s));

  expect_valid(blocker.get(), g, 0);
  for (VertexId s = 1; s <= 3; ++s) expect_valid(futs[s - 1].get(), g, s);

  const ServiceReport rep = svc.report();
  EXPECT_EQ(rep.batches, 0u);
  EXPECT_EQ(rep.batched_queries, 0u);
  EXPECT_EQ(rep.batch_fills, 0u);
  EXPECT_EQ(rep.engine_queries, 4u);  // every query ran alone
}

}  // namespace
}  // namespace adds
