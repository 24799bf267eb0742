// Self-healing service: supervision policy units (HealthGovernor,
// beacon_wedged, flight-event formatting) plus end-to-end recovery — a
// fault-wedged engine is killed, quarantined and rebuilt while the pool
// keeps serving, a persistently failing engine is permanently retired,
// and brownout serves bounded-staleness results with typed fingerprints.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/validate.hpp"
#include "graph/generators.hpp"
#include "service/result_cache.hpp"
#include "service/sssp_service.hpp"
#include "service/supervisor.hpp"
#include "sssp/dijkstra.hpp"
#include "util/fault.hpp"

namespace adds {
namespace {

// ---- HealthGovernor (pure policy) -----------------------------------------

SupervisorConfig governor_cfg() {
  SupervisorConfig cfg;
  cfg.brownout_enter_load = 0.75;
  cfg.brownout_exit_load = 0.50;
  return cfg;
}

HealthSignals signals(double load, uint32_t avail, uint32_t fleet,
                      double p99 = 0.0) {
  HealthSignals s;
  s.load = load;
  s.engines_available = avail;
  s.engines_in_fleet = fleet;
  s.p99_ms = p99;
  return s;
}

TEST(HealthGovernor, LoadDrivesBrownoutWithHysteresis) {
  HealthGovernor g(governor_cfg());
  EXPECT_EQ(g.state(), ServiceHealth::kHealthy);
  EXPECT_FALSE(g.update(signals(0.5, 2, 2)));  // below enter: no change
  EXPECT_TRUE(g.update(signals(0.8, 2, 2)));   // >= enter
  EXPECT_EQ(g.state(), ServiceHealth::kBrownout);
  // Between exit and enter: hysteresis holds the brownout band.
  EXPECT_FALSE(g.update(signals(0.6, 2, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kBrownout);
  // Drained to the exit watermark with a full fleet: healthy again.
  EXPECT_TRUE(g.update(signals(0.4, 2, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kHealthy);
  EXPECT_EQ(g.transitions(), 2u);
}

TEST(HealthGovernor, DegradedFleetForcesBrownout) {
  HealthGovernor g(governor_cfg());
  EXPECT_TRUE(g.update(signals(0.0, 1, 2)));  // one engine quarantined
  EXPECT_EQ(g.state(), ServiceHealth::kBrownout);
  EXPECT_TRUE(g.update(signals(0.0, 2, 2)));  // fleet restored
  EXPECT_EQ(g.state(), ServiceHealth::kHealthy);
}

TEST(HealthGovernor, SheddingAlwaysReEntersThroughBrownout) {
  HealthGovernor g(governor_cfg());
  EXPECT_TRUE(g.update(signals(0.0, 0, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kShedding);
  // Capacity returns with zero load: still brownout first, never a jump
  // straight to healthy.
  EXPECT_TRUE(g.update(signals(0.0, 2, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kBrownout);
  EXPECT_TRUE(g.update(signals(0.0, 2, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kHealthy);
}

TEST(HealthGovernor, LatencySignalOnlyWhenConfigured) {
  SupervisorConfig cfg = governor_cfg();
  HealthGovernor off(cfg);
  EXPECT_FALSE(off.update(signals(0.0, 2, 2, /*p99=*/1e9)));  // disabled
  cfg.brownout_p99_ms = 100.0;
  HealthGovernor on(cfg);
  EXPECT_TRUE(on.update(signals(0.0, 2, 2, /*p99=*/250.0)));
  EXPECT_EQ(on.state(), ServiceHealth::kBrownout);
}

TEST(HealthGovernor, ZeroEnterLoadIsPermanentBrownout) {
  // The deterministic test hook used by the stale-serve tests below: with
  // enter load 0 every snapshot (load >= 0) engages brownout.
  SupervisorConfig cfg = governor_cfg();
  cfg.brownout_enter_load = 0.0;
  HealthGovernor g(cfg);
  EXPECT_TRUE(g.update(signals(0.0, 2, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kBrownout);
  EXPECT_FALSE(g.update(signals(0.0, 2, 2)));
  EXPECT_EQ(g.state(), ServiceHealth::kBrownout);
}

// ---- beacon_wedged (pure policy) ------------------------------------------

TEST(BeaconWedged, QuietBusySlotWedgesOnlyPastThreshold) {
  EngineSupervision slot;
  slot.state = EngineState::kBusy;
  slot.busy_since_ms = 100.0;
  slot.last_pulse_ms = 100.0;
  slot.pulse_seen = slot.beacon.pulse.load();
  EXPECT_FALSE(beacon_wedged(slot, 150.0, 100.0));  // 50ms quiet
  EXPECT_FALSE(beacon_wedged(slot, 200.0, 100.0));  // exactly at bound
  EXPECT_TRUE(beacon_wedged(slot, 201.0, 100.0));   // past it
}

TEST(BeaconWedged, PulseAdvanceRefreshesTheClock) {
  EngineSupervision slot;
  slot.state = EngineState::kBusy;
  slot.busy_since_ms = 0.0;
  slot.last_pulse_ms = 0.0;
  slot.pulse_seen = slot.beacon.pulse.load();
  slot.beacon.pulse.fetch_add(1);  // the engine made progress
  EXPECT_FALSE(beacon_wedged(slot, 500.0, 100.0));  // refresh, not wedge
  EXPECT_EQ(slot.last_pulse_ms, 500.0);
  EXPECT_FALSE(beacon_wedged(slot, 590.0, 100.0));
  EXPECT_TRUE(beacon_wedged(slot, 601.0, 100.0));
}

TEST(BeaconWedged, FreshDispatchIsNotJudgedByOldTimestamps) {
  // A slot re-dispatched moments ago must be measured from busy_since, not
  // the previous query's pulse bookkeeping.
  EngineSupervision slot;
  slot.state = EngineState::kBusy;
  slot.last_pulse_ms = 0.0;     // stale, from the previous query
  slot.busy_since_ms = 1000.0;  // dispatched just now
  slot.pulse_seen = slot.beacon.pulse.load();
  EXPECT_FALSE(beacon_wedged(slot, 1050.0, 100.0));
  EXPECT_TRUE(beacon_wedged(slot, 1101.0, 100.0));
}

// ---- flight-event formatting ----------------------------------------------

TEST(FlightFormat, NamesAndFormatterCoverTheVocabulary) {
  EXPECT_STREQ(flight_kind_name(FlightKind::kEngineRetired),
               "engine-retired");
  EXPECT_STREQ(flight_kind_name(FlightKind::kQueryStaleHit),
               "query-stale-hit");

  StampedFlightEvent e{};
  e.seq = 42;
  e.ev.t_ms = 12.5f;
  e.ev.kind = uint16_t(FlightKind::kEngineWedged);
  e.ev.engine = 1;
  e.ev.a = 310;  // pulse age ms
  e.ev.b = 17;   // query id
  const std::string line = format_flight_event(e);
  EXPECT_NE(line.find("#42"), std::string::npos) << line;
  EXPECT_NE(line.find("engine 1"), std::string::npos) << line;
  EXPECT_NE(line.find("engine-wedged"), std::string::npos) << line;
  EXPECT_NE(line.find("q=17"), std::string::npos) << line;

  e.ev.kind = uint16_t(FlightKind::kHealthTransition);
  e.ev.engine = FlightEvent::kNoEngine;
  e.ev.a = (uint32_t(ServiceHealth::kHealthy) << 8) |
           uint32_t(ServiceHealth::kBrownout);
  e.ev.c = 2;
  const std::string h = format_flight_event(e);
  EXPECT_NE(h.find("healthy -> brownout"), std::string::npos) << h;
}

// ---- end-to-end recovery ---------------------------------------------------

IntGraph supervisor_graph() {
  return make_grid_road<uint32_t>(30, 30, {WeightDist::kUniform, 200}, 11);
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

TEST(SupervisorRecovery, WedgedEngineIsKilledQuarantinedAndRebuilt) {
  const auto g = supervisor_graph();
  const auto oracle = dijkstra(g, VertexId{0});

  ServiceConfig cfg;
  cfg.num_engines = 2;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.guarded_fallback = false;  // the supervisor is the recovery story
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.wedge_ms = 100.0;  // well inside the engine's own 250ms
  cfg.supervisor.quarantine_after_errors = 1;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);
  ASSERT_TRUE(landmark_builds_settled(svc));

  QueryOptions q;
  q.bypass_cache = true;

  // One dropped publication wedges exactly one solve's termination scan.
  fault::FaultPlan plan(7);
  plan.set(fault::Site::kPushDropBeforePublish, {1.0, /*max_fires=*/1, 0});
  QueryOutcome<uint32_t> wedged;
  {
    fault::FaultScope scope(plan);
    wedged = svc.submit(0, q).get();
  }
  ASSERT_EQ(plan.fires(fault::Site::kPushDropBeforePublish), 1u);
  EXPECT_EQ(wedged.status, QueryStatus::kFailed) << wedged.error;

  // The pool keeps answering on the surviving engine while the rebuilder
  // works, and the rebuilt slot returns: full availability again.
  ASSERT_TRUE(poll_until(
      [&] {
        const auto rep = svc.report();
        return rep.rebuilds >= 1 && rep.engines_available == 2;
      },
      20000))
      << "engine never returned to service";

  for (int i = 0; i < 6; ++i) {
    const auto out = svc.submit(0, q).get();
    ASSERT_EQ(out.status, QueryStatus::kOk) << out.error;
    EXPECT_TRUE(validate_distances(*out.result, oracle).ok());
  }

  const auto rep = svc.report();
  EXPECT_GE(rep.supervisor_kills, 1u);  // the beacon, not luck, caught it
  EXPECT_GE(rep.quarantines, 1u);
  EXPECT_GE(rep.rebuilds, 1u);
  EXPECT_EQ(rep.engines_retired, 0u);
  EXPECT_EQ(rep.failed, 1u);

  // The whole episode is reconstructible from the flight recorder.
  const auto events = svc.flight_dump();
  EXPECT_TRUE(dump_has(events, FlightKind::kQueryAdmit));
  EXPECT_TRUE(dump_has(events, FlightKind::kEngineWedged));
  EXPECT_TRUE(dump_has(events, FlightKind::kEngineQuarantined));
  EXPECT_TRUE(dump_has(events, FlightKind::kEngineRecovered));
  EXPECT_TRUE(dump_has(events, FlightKind::kFaultObserved));
  for (const auto& e : events)
    EXPECT_FALSE(format_flight_event(e).empty());
}

TEST(SupervisorRecovery, PersistentlyFailingEngineIsRetiredTyped) {
  const auto g = supervisor_graph();

  ServiceConfig cfg;
  cfg.num_engines = 1;
  cfg.engine.num_workers = 2;
  cfg.engine.chunk_items = 32;
  cfg.guarded_fallback = false;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.wedge_ms = 80.0;
  cfg.supervisor.quarantine_after_errors = 1;
  cfg.supervisor.max_probe_failures = 2;
  cfg.supervisor.probe_deadline_ms = 150.0;  // probes fail fast
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);
  ASSERT_TRUE(landmark_builds_settled(svc));

  // Every solve — including each post-rebuild probe — wedges, so the
  // rebuilder burns through max_probe_failures and retires the slot.
  fault::FaultPlan plan(11);
  plan.set(fault::Site::kPushDropBeforePublish, {1.0, ~0ull, 0});
  fault::FaultScope scope(plan);

  QueryOptions q;
  q.bypass_cache = true;
  const auto out = svc.submit(0, q).get();
  EXPECT_EQ(out.status, QueryStatus::kFailed) << out.error;

  ASSERT_TRUE(poll_until(
      [&] { return svc.report().engines_retired == 1; }, 30000))
      << "engine was never retired";

  const auto rep = svc.report();
  ASSERT_EQ(rep.engine_status.size(), 1u);
  EXPECT_EQ(rep.engine_status[0].state, EngineState::kRetired);
  EXPECT_GE(rep.probe_failures, 2u);
  EXPECT_GE(rep.quarantines, 1u);
  EXPECT_EQ(rep.engines_available, 0u);

  // With zero capacity the governor sheds new work typed, never hangs it.
  ASSERT_TRUE(poll_until(
      [&] { return svc.report().health == ServiceHealth::kShedding; }, 5000));
  const auto shed = svc.submit(0, q).get();
  EXPECT_EQ(shed.status, QueryStatus::kOverloaded);

  const auto events = svc.flight_dump();
  EXPECT_TRUE(dump_has(events, FlightKind::kEngineProbeFailed));
  EXPECT_TRUE(dump_has(events, FlightKind::kEngineRetired));
  svc.shutdown();
}

TEST(SupervisorBrownout, StaleServeCarriesOldFingerprintWithinWindow) {
  const auto g1 = make_grid_road<uint32_t>(20, 20,
                                           {WeightDist::kUniform, 200}, 1);
  const auto g2 = make_grid_road<uint32_t>(20, 20,
                                           {WeightDist::kUniform, 200}, 2);
  const uint64_t fp1 = graph_fingerprint(g1);
  const uint64_t fp2 = graph_fingerprint(g2);
  ASSERT_NE(fp1, fp2);
  const auto oracle1 = dijkstra(g1, VertexId{0});
  const auto oracle2 = dijkstra(g2, VertexId{0});

  ServiceConfig cfg;
  cfg.num_engines = 1;
  cfg.engine.num_workers = 2;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.brownout_enter_load = 0.0;  // permanent brownout (hook)
  cfg.supervisor.stale_serve_ms = 60000.0;
  cfg.supervisor.brownout_deadline_clamp_ms = 30000.0;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g1);
  ASSERT_TRUE(poll_until(
      [&] { return svc.report().health == ServiceHealth::kBrownout; }, 5000));

  // Populate the cache on generation 1 (the clamp applies: no deadline was
  // given, brownout imposes one).
  const auto first = svc.query(0);
  EXPECT_FALSE(first.stale);
  EXPECT_EQ(first.graph_fp, fp1);
  EXPECT_TRUE(validate_distances(*first.result, oracle1).ok());
  EXPECT_GE(svc.report().brownout_clamped, 1u);

  // Swap graphs: inside the stale window a brownout miss on the current
  // generation serves the old one, and says so.
  svc.set_graph(g2);
  const auto stale = svc.query(0);
  EXPECT_TRUE(stale.cache_hit);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.graph_fp, fp1);
  EXPECT_TRUE(validate_distances(*stale.result, oracle1).ok());
  EXPECT_EQ(svc.report().stale_hits, 1u);

  // A source never cached for generation 1 cannot be served stale: it is
  // computed fresh on generation 2.
  const auto fresh = svc.query(7);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.graph_fp, fp2);

  EXPECT_TRUE(dump_has(svc.flight_dump(), FlightKind::kQueryStaleHit));
}

TEST(SupervisorBrownout, StaleWindowExpiryForcesFreshResults) {
  const auto g1 = make_grid_road<uint32_t>(15, 15,
                                           {WeightDist::kUniform, 100}, 3);
  const auto g2 = make_grid_road<uint32_t>(15, 15,
                                           {WeightDist::kUniform, 100}, 4);
  const uint64_t fp2 = graph_fingerprint(g2);

  ServiceConfig cfg;
  cfg.num_engines = 1;
  cfg.engine.num_workers = 2;
  cfg.supervisor.tick_ms = 1.0;
  cfg.supervisor.brownout_enter_load = 0.0;
  cfg.supervisor.stale_serve_ms = 50.0;  // a window short enough to outlive
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g1);
  svc.query(0);
  svc.set_graph(g2);

  // After the window closes the supervisor purges the old generation; the
  // same source now computes fresh on the new graph.
  ASSERT_TRUE(poll_until(
      [&] {
        return dump_has(svc.flight_dump(), FlightKind::kStaleWindowExpired);
      },
      5000))
      << "stale window never expired";
  const auto out = svc.query(0);
  EXPECT_FALSE(out.stale);
  EXPECT_EQ(out.graph_fp, fp2);
  EXPECT_TRUE(
      validate_distances(*out.result, dijkstra(g2, VertexId{0})).ok());
}

TEST(SupervisorDisabled, ConfigOffMeansNoSupervisionMachinery) {
  // The master switch preserves pre-supervision behavior: no health
  // machine (always kHealthy), no beacon wiring, queries still serve.
  const auto g = supervisor_graph();
  ServiceConfig cfg;
  cfg.num_engines = 1;
  cfg.engine.num_workers = 2;
  cfg.supervisor.enabled = false;
  SsspService<uint32_t> svc(cfg);
  svc.set_graph(g);
  const auto out = svc.query(0);
  EXPECT_EQ(out.status, QueryStatus::kOk);
  const auto rep = svc.report();
  EXPECT_EQ(rep.health, ServiceHealth::kHealthy);
  EXPECT_EQ(rep.supervisor_kills, 0u);
  EXPECT_EQ(rep.quarantines, 0u);
  EXPECT_EQ(rep.engines_available, 1u);
}

}  // namespace
}  // namespace adds
