// Fault matrix: every injection site, across several seeds, against the
// guarded runtime. The contract under any single armed site:
//
//   * run_solver_guarded never hangs (bounded by the watchdog deadline),
//   * it never returns distances that differ from the Dijkstra oracle
//     (the relaxation audit rejects corrupted attempts; the fallback chain
//     ends in engines with no injection sites, so the guarded run always
//     produces a validated result).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/resilience.hpp"
#include "core/validate.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "util/fault.hpp"

namespace adds {
namespace {

using fault::FaultPlan;
using fault::FaultScope;
using fault::FaultSpec;
using fault::Site;

// gtest prints a parameter that has no printer as its raw bytes, and ctest
// takes that text into each test's name. The case therefore has no padding
// bytes (uninitialised padding made the names differ per build): padding is
// spelled out and zeroed, and the FaultSpec fields are held flat with
// delay_us widened over FaultSpec's tail padding.
struct SiteCase {
  Site site;
  uint8_t pad0[7] = {};
  double probability = 0.0;
  uint64_t max_fires = ~0ull;
  uint64_t delay_us = 0;
  // Write combining on (default) routes pushes through batched flushes, so
  // the push-site injections fire inside PushCombiner::flush_lane; off
  // exercises the legacy single-item path.
  bool combining = true;
  uint8_t pad1[3] = {};
  // Nonzero: run on a deliberately tiny pool (this many blocks). Used with
  // pool.exhausted to force real pressure onto the spill governor.
  uint32_t pool_blocks = 0;
  // The site must be absorbed in-run by the governor: the guarded run must
  // finish on adds-host itself with zero fallbacks, with spilled work.
  bool expect_no_fallback = false;
  uint8_t pad2[7] = {};

  FaultSpec spec() const {
    return {probability, max_fires, uint32_t(delay_us)};
  }
};
// No padding: the size is exactly the sum of the fields.
static_assert(sizeof(SiteCase) == 1 + 7 + 8 + 8 + 8 + 1 + 3 + 4 + 1 + 7);

class FaultMatrix : public ::testing::TestWithParam<SiteCase> {};

TEST_P(FaultMatrix, GuardedRunSurvivesInjection) {
  const auto g =
      make_grid_road<uint32_t>(30, 30, {WeightDist::kUniform, 1000}, 3);
  const auto oracle = dijkstra(g, VertexId{0});

  const SiteCase& c = GetParam();

  EngineConfig cfg;
  cfg.adds_host.num_workers = 3;
  cfg.adds_host.block_words = 256;  // small blocks: more allocator traffic
  cfg.adds_host.write_combining = c.combining;
  cfg.adds_host.combine_capacity = 16;  // small lanes: frequent batch flushes
  if (c.pool_blocks != 0) cfg.adds_host.pool_blocks = c.pool_blocks;

  ResiliencePolicy policy;
  policy.max_attempts_per_engine = 1;  // go straight down the chain
  policy.watchdog_min_ms = 1500.0;     // hang bound per attempt
  policy.retry_backoff_ms = 1.0;
  policy.audit_sample_edges = ~0ull;   // full audit on these tiny graphs

  uint64_t total_fires = 0;
  uint64_t total_spilled = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FaultPlan plan(seed);
    plan.set(c.site, c.spec());
    FaultScope scope(plan);
    const auto res =
        run_solver_guarded(SolverKind::kAddsHost, g, 0, cfg, policy);
    EXPECT_TRUE(validate_distances(res, oracle).ok())
        << fault::site_name(c.site) << " seed " << seed;
    ASSERT_NE(res.resilience, nullptr);
    EXPECT_TRUE(res.resilience->ok);
    if (c.expect_no_fallback) {
      // The governor must absorb the overload in-run: same engine, no
      // retries down the chain, spill machinery actually engaged.
      EXPECT_EQ(res.resilience->fallbacks, 0u)
          << fault::site_name(c.site) << " seed " << seed;
      EXPECT_EQ(res.resilience->final_solver, "adds-host");
      total_spilled += res.health.spilled_items;
    }
    total_fires += plan.total_fires();
  }
  if (c.expect_no_fallback) {
    EXPECT_GT(total_spilled, 0u);
  }
  // The matrix must actually exercise the site: across 5 seeds at these
  // probabilities at least one injection fires.
  EXPECT_GT(total_fires, 0u) << fault::site_name(c.site);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultMatrix,
    ::testing::Values(
        // Allocation failure: adds-host dies with adds::Error, chain falls
        // through to engines that never touch the pool.
        SiteCase{.site = Site::kPoolAllocFail, .probability = 0.3},
        // Write->publish window widened: stresses the partial-segment scan;
        // results must stay exact.
        SiteCase{
            .site = Site::kPushDelay, .probability = 0.05, .delay_us = 200},
        // Lost publication: wedges the segment scan, termination hangs, the
        // watchdog must cut the attempt loose.
        SiteCase{.site = Site::kPushDropBeforePublish, .probability = 0.05},
        // Manager preemption jitter.
        SiteCase{.site = Site::kManagerScanStall,
                 .probability = 0.2,
                 .delay_us = 1000},
        // Late assignment-flag delivery.
        SiteCase{.site = Site::kAfDeliveryDelay,
                 .probability = 0.1,
                 .delay_us = 500},
        // Worker preemption with an assignment in flight.
        SiteCase{
            .site = Site::kWorkerStall, .probability = 0.1, .delay_us = 1000},
        // The push sites again with combining disabled: the injections must
        // be survivable on the single-item path too.
        SiteCase{.site = Site::kPushDelay,
                 .probability = 0.05,
                 .delay_us = 200,
                 .combining = false},
        SiteCase{.site = Site::kPushDropBeforePublish,
                 .probability = 0.05,
                 .combining = false},
        // Soft pool exhaustion on an undersized pool: try_allocate reports
        // an empty pool, the spill governor absorbs the pressure, and the
        // run must finish on adds-host with no fallback at all.
        SiteCase{.site = Site::kPoolExhausted,
                 .probability = 0.3,
                 .pool_blocks = 12,
                 .expect_no_fallback = true},
        SiteCase{.site = Site::kPoolExhausted,
                 .probability = 0.3,
                 .combining = false,
                 .pool_blocks = 12,
                 .expect_no_fallback = true}),
    [](const ::testing::TestParamInfo<SiteCase>& info) {
      std::string name = fault::site_name(info.param.site);
      for (char& ch : name)
        if (ch == '.' || ch == '-') ch = '_';
      if (!info.param.combining) name += "_single";
      return name;
    });

}  // namespace
}  // namespace adds
