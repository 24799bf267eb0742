// Cross-tenant blast-radius containment: a tenant whose queries wedge
// engines, trip its circuit breaker, or flood its admission quota damages
// ONLY itself — every other tenant stays kHealthy with zero sheds and a
// closed breaker, and its queries keep validating against its own oracle.
// These are the invariants docs/RESILIENCE.md promises; this file and the
// soak suite's --tenant-chaos phase are their enforcement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/validate.hpp"
#include "graph/generators.hpp"
#include "service/sssp_service.hpp"
#include "service/supervisor.hpp"
#include "sssp/dijkstra.hpp"
#include "util/fault.hpp"

namespace adds {
namespace {

std::shared_ptr<const IntGraph> shared_grid(uint64_t seed, uint32_t side) {
  return std::make_shared<const IntGraph>(
      make_grid_road<uint32_t>(side, side, {WeightDist::kUniform, 200}, seed));
}

bool dump_has(const std::vector<StampedFlightEvent>& events, FlightKind k) {
  for (const auto& e : events)
    if (e.ev.kind == uint16_t(k)) return true;
  return false;
}

template <typename Pred>
bool poll_until(Pred&& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Publishing a graph schedules its landmark table build on the rebuilder,
/// in that graph's fault domain. Faults are armed only once those builds
/// have settled; otherwise a build can take a fault meant for a query.
bool landmark_builds_settled(const SsspService<uint32_t>& svc) {
  return poll_until(
      [&] { return svc.report().landmark_builds_pending == 0; }, 20000);
}

const TenantStatus* tenant_row(const ServiceReport& rep, uint64_t fp) {
  for (const auto& t : rep.tenants)
    if (t.graph_fp == fp) return &t;
  return nullptr;
}

// ---- wedge containment -------------------------------------------------------

TEST(TenantIsolation, WedgingTenantLeavesOthersHealthyAndServing) {
  const auto ga = shared_grid(1, 20);
  const auto gb = shared_grid(2, 20);
  const uint64_t fp_a = graph_fingerprint(*ga);
  const uint64_t fp_b = graph_fingerprint(*gb);
  const auto oracle_b = dijkstra(*gb, VertexId{0});

  ServiceConfig cfg;
  cfg.num_engines = 2;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.guarded_fallback = false;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.wedge_ms = 100.0;
  cfg.supervisor.quarantine_after_errors = 1;
  cfg.tenant.engine_share = 0.5;  // A may hold at most 1 of the 2 slots
  cfg.tenant.breaker_open_after = 3;
  cfg.tenant.breaker_cooldown_ms = 60000.0;  // no half-open inside this test
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(ga);
  ASSERT_EQ(svc.publish_graph(gb), fp_b);
  ASSERT_TRUE(landmark_builds_settled(svc));

  // Chaos scoped to tenant A: every solve of A's graph wedges; B's solves
  // (and rebuild probes, which run in domain 0) never see the plan.
  fault::FaultPlan plan(7);
  plan.set(fault::Site::kPushDropBeforePublish, {1.0, ~0ull, 0});
  plan.restrict_domain(fp_a);
  fault::FaultScope scope(plan);

  QueryOptions qa, qb;
  qa.graph_fp = fp_a;
  qa.bypass_cache = true;
  qb.graph_fp = fp_b;
  qb.bypass_cache = true;

  // Drive A into its breaker while B keeps serving. B is checked BETWEEN
  // every A failure — containment during the blast, not just after it.
  uint32_t a_failures = 0;
  for (int round = 0; round < 3; ++round) {
    auto fut = svc.submit(0, qa);
    for (int i = 0; i < 3; ++i) {
      const auto out_b = svc.submit(0, qb).get();
      ASSERT_EQ(out_b.status, QueryStatus::kOk) << out_b.error;
      EXPECT_TRUE(validate_distances(*out_b.result, oracle_b).ok());
      const auto mid_rep = svc.report();
      const auto* row_b = tenant_row(mid_rep, fp_b);
      ASSERT_NE(row_b, nullptr);
      EXPECT_EQ(row_b->health, ServiceHealth::kHealthy)
          << "tenant B degraded while tenant A wedged";
    }
    const auto out_a = fut.get();
    ASSERT_EQ(out_a.status, QueryStatus::kFailed) << out_a.error;
    ++a_failures;
    // The poisoned slot must finish rebuilding before the next round so
    // A's next query has capacity inside its bulkhead share.
    ASSERT_TRUE(poll_until(
        [&] { return svc.report().engines_available == 2; }, 30000))
        << "wedged slot never returned";
  }

  // Third consecutive failure opened A's breaker: typed rejection now.
  const auto rejected = svc.submit(0, qa).get();
  EXPECT_EQ(rejected.status, QueryStatus::kTenantQuarantined);

  const auto rep = svc.report();
  const auto* row_a = tenant_row(rep, fp_a);
  const auto* row_b = tenant_row(rep, fp_b);
  ASSERT_NE(row_a, nullptr);
  ASSERT_NE(row_b, nullptr);
  EXPECT_EQ(row_a->breaker, BreakerState::kOpen);
  EXPECT_GE(row_a->breaker_opens, 1u);
  EXPECT_EQ(row_a->failed, a_failures);
  EXPECT_GE(row_a->quarantined, 1u);
  // The blast radius: B took NO typed damage of any kind.
  EXPECT_EQ(row_b->health, ServiceHealth::kHealthy);
  EXPECT_EQ(row_b->breaker, BreakerState::kClosed);
  EXPECT_EQ(row_b->failed, 0u);
  EXPECT_EQ(row_b->shed, 0u);
  EXPECT_EQ(row_b->quarantined, 0u);
  EXPECT_GE(rep.quarantines, 1u);  // A really did poison slots
  EXPECT_EQ(rep.tenant_quarantined, 1u);

  const auto events = svc.flight_dump();
  EXPECT_TRUE(dump_has(events, FlightKind::kBreakerOpen));
  EXPECT_TRUE(dump_has(events, FlightKind::kQueryQuarantined));
}

// ---- breaker recovery --------------------------------------------------------

TEST(TenantIsolation, BreakerHalfOpensAfterCooldownAndClosesOnSuccess) {
  const auto g = shared_grid(3, 20);
  const uint64_t fp = graph_fingerprint(*g);
  const auto oracle = dijkstra(*g, VertexId{0});

  ServiceConfig cfg;
  cfg.num_engines = 2;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.guarded_fallback = false;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.wedge_ms = 100.0;
  cfg.supervisor.quarantine_after_errors = 1;
  cfg.tenant.breaker_open_after = 1;      // one failure opens
  cfg.tenant.breaker_cooldown_ms = 100.0; // then a short quarantine
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);
  ASSERT_TRUE(landmark_builds_settled(svc));

  QueryOptions q;
  q.bypass_cache = true;

  {
    // Exactly one wedge: the fault is spent after the first solve, so the
    // half-open trial later proves the tenant genuinely recovered.
    fault::FaultPlan plan(11);
    plan.set(fault::Site::kPushDropBeforePublish, {1.0, /*max_fires=*/1, 0});
    plan.restrict_domain(fp);
    fault::FaultScope scope(plan);
    const auto failed = svc.submit(0, q).get();
    ASSERT_EQ(failed.status, QueryStatus::kFailed) << failed.error;
  }

  // Open: rejects typed while the cooldown runs.
  const auto rejected = svc.submit(0, q).get();
  EXPECT_EQ(rejected.status, QueryStatus::kTenantQuarantined);

  // After the cooldown the next submit is the half-open trial; it succeeds
  // and closes the breaker for everything that follows.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto trial = svc.submit(0, q).get();
  ASSERT_EQ(trial.status, QueryStatus::kOk) << trial.error;
  EXPECT_TRUE(validate_distances(*trial.result, oracle).ok());

  const auto rep = svc.report();
  const auto* row = tenant_row(rep, fp);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->breaker, BreakerState::kClosed);
  EXPECT_EQ(row->breaker_opens, 1u);
  EXPECT_EQ(row->breaker_failures, 0u);

  const auto out = svc.submit(0, q).get();
  EXPECT_EQ(out.status, QueryStatus::kOk);

  const auto events = svc.flight_dump();
  EXPECT_TRUE(dump_has(events, FlightKind::kBreakerOpen));
  EXPECT_TRUE(dump_has(events, FlightKind::kBreakerHalfOpen));
  EXPECT_TRUE(dump_has(events, FlightKind::kBreakerClosed));
}

// ---- admission quota ----------------------------------------------------------

TEST(TenantIsolation, QuotaFloodShedsOnlyTheFloodingTenant) {
  const auto ga = shared_grid(4, 60);  // big enough that solves queue up
  const auto gb = shared_grid(5, 12);
  const uint64_t fp_a = graph_fingerprint(*ga);
  const uint64_t fp_b = graph_fingerprint(*gb);

  ServiceConfig cfg;
  cfg.num_engines = 1;
  cfg.engine.num_workers = 2;
  cfg.max_queue_depth = 8;
  cfg.tenant.queue_share = 0.25;  // each tenant may queue at most 2
  cfg.guarded_fallback = false;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(ga);
  ASSERT_EQ(svc.publish_graph(gb), fp_b);

  QueryOptions qa, qb;
  qa.graph_fp = fp_a;
  qa.bypass_cache = true;
  qb.graph_fp = fp_b;
  qb.bypass_cache = true;

  // Flood A far past its quota in one burst.
  std::vector<std::future<QueryOutcome<uint32_t>>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(svc.submit(0, qa));

  // B submits into the SAME (globally non-full) queue: its quota is its
  // own, so A's flood cannot starve it of admission.
  for (int i = 0; i < 3; ++i) {
    const auto out = svc.submit(0, qb).get();
    EXPECT_EQ(out.status, QueryStatus::kOk) << out.error;
  }

  uint32_t a_ok = 0, a_shed = 0;
  for (auto& f : futs) {
    const auto out = f.get();
    if (out.status == QueryStatus::kOk) {
      ++a_ok;
    } else {
      ASSERT_EQ(out.status, QueryStatus::kOverloaded) << out.error;
      EXPECT_NE(out.error.find("quota"), std::string::npos) << out.error;
      ++a_shed;
    }
  }
  EXPECT_GE(a_ok, 1u);
  EXPECT_GE(a_shed, 1u) << "the flood should overrun a quota of 2";

  const auto rep = svc.report();
  const auto* row_a = tenant_row(rep, fp_a);
  const auto* row_b = tenant_row(rep, fp_b);
  ASSERT_NE(row_a, nullptr);
  ASSERT_NE(row_b, nullptr);
  EXPECT_EQ(row_a->queue_quota, 2u);
  EXPECT_EQ(row_a->shed, a_shed);
  EXPECT_EQ(row_b->shed, 0u);
  EXPECT_EQ(row_b->completed, 3u);
  EXPECT_TRUE(dump_has(svc.flight_dump(), FlightKind::kTenantShed));
}

// ---- report plumbing -----------------------------------------------------------

TEST(TenantIsolation, ReportCarriesPerTenantCacheSliceAndBindings) {
  const auto ga = shared_grid(6, 12);
  const auto gb = shared_grid(7, 12);
  const uint64_t fp_a = graph_fingerprint(*ga);
  const uint64_t fp_b = graph_fingerprint(*gb);

  ServiceConfig cfg;
  cfg.num_engines = 1;
  cfg.engine.num_workers = 2;
  cfg.tenant.cache_entries_per_tenant = 2;
  cfg.guarded_fallback = false;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(ga);
  ASSERT_EQ(svc.publish_graph(gb), fp_b);
  EXPECT_EQ(svc.resident_graphs().size(), 2u);

  QueryOptions qa, qb;
  qa.graph_fp = fp_a;
  qb.graph_fp = fp_b;
  // A: 4 distinct sources (cap 2 -> A recycles its own entries), then one
  // hit. B: one entry, which A's overflow must NOT evict.
  svc.query(0, qb);
  for (VertexId s = 0; s < 4; ++s) svc.query(s, qa);
  svc.query(3, qa);  // hit (most recent survives the per-tenant cap)
  const auto hit_b = svc.query(0, qb);
  EXPECT_TRUE(hit_b.cache_hit) << "A's overflow evicted B's entry";

  const auto rep = svc.report();
  const auto* row_a = tenant_row(rep, fp_a);
  const auto* row_b = tenant_row(rep, fp_b);
  ASSERT_NE(row_a, nullptr);
  ASSERT_NE(row_b, nullptr);
  EXPECT_LE(row_a->cache_entries, 2u);
  EXPECT_GE(row_a->cache_hits, 1u);
  EXPECT_EQ(row_a->cache_misses, 4u);
  EXPECT_EQ(row_b->cache_entries, 1u);
  EXPECT_GE(row_b->cache_hits, 1u);
  EXPECT_TRUE(row_b->is_default == false && row_a->is_default == true);
  // The single engine served both tenants: the keyed binding switched.
  EXPECT_GE(rep.engine_rebinds, 1u);
  ASSERT_EQ(rep.engine_status.size(), 1u);
  EXPECT_NE(rep.engine_status[0].bound_fp, 0u);
}

}  // namespace
}  // namespace adds
