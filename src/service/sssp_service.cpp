#include "service/sssp_service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <unordered_map>

#include "core/solver.hpp"
#include "persist/state_store.hpp"
#include "service/graph_catalog.hpp"
#include "service/result_cache.hpp"
#include "sssp/astar.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/repair.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace adds {

const char* query_status_name(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kOverloaded: return "overloaded";
    case QueryStatus::kDeadlineExpired: return "deadline-expired";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kFailed: return "failed";
    case QueryStatus::kShutdown: return "shutdown";
    case QueryStatus::kUnknownGraph: return "unknown-graph";
    case QueryStatus::kTenantQuarantined: return "tenant-quarantined";
  }
  return "?";
}

// Thread model (supervisor enabled):
//
//   N dispatchers   one per engine slot; run queries while their slot is
//                   kIdle, park while it is quarantined/rebuilding, exit
//                   when it retires or the service drains.
//   1 supervisor    ticks every tick_ms: wedge detection (interrupt + mark
//                   for quarantine), health-band updates, shedding the
//                   backlog when no engine is available, closing the stale
//                   cache window.
//   1 rebuilder     owns quarantined slots: destroys the engine (joins its
//                   workers), constructs a fresh one, runs a probe query,
//                   and either returns the slot to service or retires it.
//                   Also drains the delta-repair queue (apply_delta): warm
//                   repairs run on its own dedicated engine, never on a
//                   dispatcher slot, so repair work cannot starve queries.
//                   The rebuilder runs even with the supervisor disabled
//                   (repairs need it; the slot-rebuild queue just stays
//                   empty).
//
// All slot state transitions happen under `m`. The only cross-thread
// engine touch outside `m` is HostEngine::interrupt(), which is designed
// for exactly that, and the rebuilder's destroy/construct/probe of a slot
// it owns (state kRebuilding keeps everyone else away).
template <WeightType W>
struct SsspService<W>::Impl {
  struct Pending {
    uint64_t id = 0;
    VertexId source = 0;
    QueryOptions q;
    double deadline_ms = 0.0;  // resolved (query override or default)
    double submit_ms = 0.0;    // uptime-clock submit timestamp
    std::shared_ptr<const CsrGraph<W>> graph;  // snapshot at submit
    CacheKey key;
    bool cacheable = false;
    std::promise<QueryOutcome<W>> promise;
  };

  /// Per-tenant bulkhead state, one per catalog-resident graph. Created at
  /// publish, torn down at retire/evict. All under `m`.
  struct Tenant {
    explicit Tenant(const ServiceConfig& c)
        : breaker(c.tenant.breaker_open_after, c.tenant.breaker_cooldown_ms),
          governor(c.supervisor),
          recorder(512) {}
    TenantBreaker breaker;
    HealthGovernor governor;
    LatencyRecorder recorder;  // this tenant's completions (p99 signal)
    uint32_t waiting = 0;      // queued queries of this tenant
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t shed = 0;
    uint64_t quarantined = 0;
    uint64_t stale_hits = 0;
    // Live-delta lifecycle (accumulates on the CHILD generation's tenant).
    uint64_t repairs_ok = 0;
    uint64_t repair_fallbacks = 0;
    uint64_t delta_stale_hits = 0;
    // Landmark oracle point-to-point serves, this tenant only.
    uint64_t oracle_exact_hits = 0;
    uint64_t alt_searches = 0;
    uint64_t p2p_engine_fallbacks = 0;
  };

  /// One scheduled warm repair: rebuild the cached (source, parent fp)
  /// tree into an exact (source, child fp) tree on the rebuilder thread.
  /// Snapshots and the warm result ride along so neither retirement nor
  /// cache eviction can pull them out from under the repair.
  struct RepairTask {
    uint64_t child_fp = 0;
    uint64_t parent_fp = 0;
    VertexId source = 0;
    std::shared_ptr<const CsrGraph<W>> parent;
    std::shared_ptr<const CsrGraph<W>> child;
    std::shared_ptr<const SsspResult<W>> warm;  // parent's cached tree
    std::shared_ptr<const AppliedDelta<W>> delta;  // shared classification
  };

  /// Per-child repair window: while `pending > 0` and the stale budget has
  /// not elapsed, child-fp cache misses may serve the parent's cached tree
  /// typed-stale. When the last repair settles the parent is retired.
  struct DeltaWindow {
    uint64_t parent_fp = 0;
    uint32_t pending = 0;
    double stale_until_ms = 0.0;  // uptime clock
  };

  /// One scheduled landmark-table build on the rebuilder: a cold build
  /// (warm == false) or, across a delta, a warm per-lane repair from the
  /// parent generation's table. Snapshots and the parent table ride along
  /// refcounted, so neither retirement nor registry eviction can pull
  /// them out from under the build.
  struct LandmarkTask {
    uint64_t fp = 0;
    std::shared_ptr<const CsrGraph<W>> graph;
    bool warm = false;
    uint64_t parent_fp = 0;
    std::shared_ptr<const CsrGraph<W>> parent;
    std::shared_ptr<const LandmarkTable<W>> parent_table;
    std::shared_ptr<const AppliedDelta<W>> delta;  // shared classification
  };

  ServiceConfig cfg;
  const bool supervise;
  WallTimer uptime;
  uint64_t config_digest = 0;

  mutable std::mutex m;
  std::condition_variable cv;      // dispatchers park here for work
  std::condition_variable sup_cv;  // supervisor tick / shutdown wake
  std::condition_variable rb_cv;   // rebuilder parks here
  std::deque<std::unique_ptr<Pending>> waiting;
  std::deque<uint32_t> rebuild_queue;  // slot indices awaiting rebuild
  bool stopping = false;
  std::atomic<bool> stop_flag{false};  // mirrors `stopping` for probes
  // Tenancy: the catalog owns graph residency; `default_fp` is where
  // fp-less queries route (the last set_graph). The catalog has its own
  // leaf mutex but every service-side call happens under `m`, which also
  // guards `tenants` consistency with residency.
  GraphCatalog<W> catalog;
  std::unordered_map<uint64_t, Tenant> tenants;
  uint64_t default_fp = 0;
  // Per-tenant bulkhead bounds, resolved once from TenantPolicy.
  const uint32_t tenant_queue_quota;
  const uint32_t tenant_engine_cap;
  // Brownout stale window (default tenant only): entries of `stale_fp`
  // stay servable until `stale_deadline_ms` (uptime clock), then the
  // supervisor closes the window (and purges the entries if that
  // generation is no longer catalog-resident).
  uint64_t stale_fp = 0;
  double stale_deadline_ms = 0.0;
  // Live-delta pipeline (apply_delta): tasks drain on the rebuilder
  // thread; windows are keyed by child fingerprint. The repair engine is
  // lazily built and only ever touched by the rebuilder.
  std::deque<RepairTask> repair_queue;
  std::unordered_map<uint64_t, DeltaWindow> delta_windows;
  std::unique_ptr<HostEngine<W>> repair_engine;
  uint64_t deltas_applied = 0;
  uint64_t repairs_scheduled = 0;
  uint64_t repairs_ok = 0;
  uint64_t repair_fallbacks = 0;
  uint64_t delta_stale_hits = 0;
  // Landmark oracle: ALT tables keyed by fingerprint (refcounted, LRU —
  // the registry has its own leaf mutex, safe to touch under m or not).
  // Builds and warm repairs drain on the rebuilder thread behind slot
  // rebuilds and delta repairs.
  LandmarkRegistry<W> landmarks;
  std::deque<LandmarkTask> landmark_queue;
  bool landmark_running = false;  // a task is on the rebuilder, outside m
  uint64_t landmark_builds_ok = 0;
  uint64_t landmark_repairs_ok = 0;
  uint64_t landmark_rebuild_fallbacks = 0;
  uint64_t landmark_build_failures = 0;
  uint64_t landmark_unsupported = 0;
  uint64_t oracle_exact_hits = 0;
  uint64_t alt_searches = 0;
  uint64_t p2p_engine_fallbacks = 0;
  // Persistence (save/restore through the src/persist/ state store).
  uint64_t state_saves_ok = 0;
  uint64_t state_saves_failed = 0;
  uint64_t state_restores_ok = 0;
  uint64_t state_restores_failed = 0;
  uint64_t state_corrupt_sections = 0;
  uint64_t state_cold_rebuilds = 0;
  uint64_t state_graphs_restored = 0;
  uint64_t state_tables_restored = 0;
  uint64_t state_cache_restored = 0;
  double last_restore_load_ms = 0.0;
  double last_restore_verify_ms = 0.0;
  ResultCache<W> cache;
  LatencyRecorder recorder;
  FlightRecorder flightrec;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_expired = 0;
  uint64_t unknown_graph = 0;
  uint64_t tenant_quarantined = 0;
  uint64_t stale_hits = 0;
  uint64_t brownout_clamped = 0;
  uint64_t probe_failures_total = 0;
  uint32_t peak_depth = 0;
  uint64_t engine_queries = 0;
  double engine_busy_ms = 0.0;
  uint64_t batches = 0;          // solve_batch dispatches (>= 2 lanes)
  uint64_t batched_queries = 0;  // queries served through those dispatches
  QueueHealth last_health;

  std::vector<EngineSupervision> sup;
  /// Keyed-binding snapshot refs, one per slot: the graph behind
  /// sup[i].bound_fp. An idle bound engine counts as a snapshot holder
  /// (the catalog contract), released on rebind, retire/evict and rebuild.
  std::vector<std::shared_ptr<const CsrGraph<W>>> bound_graphs;
  std::vector<std::unique_ptr<HostEngine<W>>> engines;
  std::vector<std::thread> dispatchers;
  std::thread supervisor_thread;
  std::thread rebuilder_thread;
  std::mutex join_m;
  bool joined = false;

  static uint32_t share_of(double share, uint32_t total) noexcept {
    if (share >= 1.0 || total == 0) return total;
    const double f = share > 0.0 ? share : 0.0;
    return std::max<uint32_t>(1, uint32_t(f * double(total)));
  }

  explicit Impl(const ServiceConfig& c)
      : cfg(c),
        supervise(c.supervisor.enabled),
        config_digest(options_digest(c.engine)),
        catalog(c.tenant.catalog_graphs),
        tenant_queue_quota(share_of(c.tenant.queue_share, c.max_queue_depth)),
        tenant_engine_cap(share_of(c.tenant.engine_share, c.num_engines)),
        landmarks(c.landmark.max_tables),
        cache(c.cache_entries, c.tenant.cache_entries_per_tenant),
        flightrec(c.supervisor.flight_recorder_events),
        sup(c.num_engines),
        bound_graphs(c.num_engines) {
    ADDS_REQUIRE(cfg.num_engines >= 1, "sssp-service: need at least one engine");
    // Lane arithmetic caps a batch at kMaxLanes; 0 is treated as "no
    // coalescing", same as 1.
    cfg.max_batch_lanes = std::max(1u, std::min(cfg.max_batch_lanes, kMaxLanes));
    catalog.set_evict_hook([this](uint64_t fp) { on_evicted_locked(fp); });
    engines.reserve(cfg.num_engines);
    dispatchers.reserve(cfg.num_engines);
    for (uint32_t i = 0; i < cfg.num_engines; ++i)
      engines.push_back(std::make_unique<HostEngine<W>>(cfg.engine));
    for (uint32_t i = 0; i < cfg.num_engines; ++i)
      dispatchers.emplace_back([this, i] { dispatch_loop(i); });
    if (supervise) supervisor_thread = std::thread([this] { supervisor_loop(); });
    // The rebuilder runs unconditionally: slot rebuilds only arrive with
    // the supervisor on, but delta repairs (apply_delta) need it always.
    rebuilder_thread = std::thread([this] { rebuild_loop(); });
  }

  // --- flight recorder -----------------------------------------------------

  void record(FlightKind kind, uint16_t engine_idx, uint64_t b, uint32_t a = 0,
              uint32_t c = 0) noexcept {
    FlightEvent e;
    e.t_ms = float(uptime.elapsed_ms());
    e.kind = uint16_t(kind);
    e.engine = engine_idx;
    e.a = a;
    e.c = c;
    e.b = b;
    flightrec.record(e);
  }

  void record_query(FlightKind kind, const Pending& p,
                    uint16_t engine_idx = FlightEvent::kNoEngine,
                    uint32_t c = 0) noexcept {
    record(kind, engine_idx, p.id, uint32_t(p.source), c);
  }

  /// On retirement the flight recorder *is* the postmortem: dump it to the
  /// log right there, while the interleaving that killed the engine is
  /// still in the ring.
  void dump_flight_to_log(const char* why) {
    const auto events = flightrec.dump();
    ADDS_LOG_WARN("sssp-service: flight recorder dump (%s), %zu events",
                  why, events.size());
    for (const auto& e : events)
      ADDS_LOG_WARN("  %s", format_flight_event(e).c_str());
  }

  // --- engine availability -------------------------------------------------

  uint32_t count_available() const noexcept {  // call under m
    uint32_t n = 0;
    for (const auto& s : sup)
      n += s.state == EngineState::kIdle || s.state == EngineState::kBusy;
    return n;
  }

  uint32_t count_retired() const noexcept {  // call under m
    uint32_t n = 0;
    for (const auto& s : sup) n += s.state == EngineState::kRetired;
    return n;
  }

  // --- tenancy helpers (all under m) ----------------------------------------

  Tenant* tenant_for(uint64_t fp) noexcept {
    const auto it = tenants.find(fp);
    return it != tenants.end() ? &it->second : nullptr;
  }

  /// This tenant's view of engine availability: idle/busy slots plus
  /// quarantined/rebuilding slots some OTHER tenant poisoned (from this
  /// tenant's perspective that capacity is merely in maintenance, not
  /// gone). Only the offending tenant perceives its own blast damage —
  /// the per-tenant governor feeds on this, which is what keeps tenant B
  /// kHealthy while tenant A wedges engines.
  uint32_t tenant_view_available(uint64_t fp) const noexcept {
    uint32_t n = 0;
    for (const auto& s : sup) {
      if (s.state == EngineState::kIdle || s.state == EngineState::kBusy)
        ++n;
      else if (s.state != EngineState::kRetired && s.fault_fp != 0 &&
               s.fault_fp != fp)
        ++n;
    }
    return n;
  }

  /// Engine slots a tenant currently holds: busy slots running its
  /// queries plus quarantined/rebuilding slots its queries poisoned. The
  /// bulkhead cap compares against this, so a tenant whose queries keep
  /// wedging engines runs out of *its own* share instead of serially
  /// taking down the fleet.
  uint32_t tenant_occupancy(uint64_t fp) const noexcept {
    uint32_t n = 0;
    for (const auto& s : sup) {
      if (s.state == EngineState::kBusy && s.active_fp == fp)
        ++n;
      else if ((s.state == EngineState::kQuarantined ||
                s.state == EngineState::kRebuilding) &&
               s.fault_fp == fp)
        ++n;
    }
    return n;
  }

  /// Service-wide health = the worst band across tenants. A single-tenant
  /// service degenerates to the old semantics exactly.
  ServiceHealth worst_health() const noexcept {
    ServiceHealth worst = ServiceHealth::kHealthy;
    for (const auto& [fp, t] : tenants)
      worst = std::max(worst, t.governor.state());
    return worst;
  }

  /// Sheds queued queries matching `pred` with a typed status. Returns how
  /// many were swept.
  template <typename Pred>
  uint32_t shed_matching_locked(Pred&& pred, QueryStatus status,
                                const char* why, FlightKind kind) {
    uint32_t swept = 0;
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (!pred(**it)) {
        ++it;
        continue;
      }
      std::unique_ptr<Pending> p = std::move(*it);
      it = waiting.erase(it);
      ++swept;
      if (Tenant* t = tenant_for(p->key.graph_fp)) {
        if (t->waiting > 0) --t->waiting;
        if (status == QueryStatus::kOverloaded) ++t->shed;
        if (status == QueryStatus::kTenantQuarantined) ++t->quarantined;
      }
      if (status == QueryStatus::kOverloaded) ++shed;
      if (status == QueryStatus::kTenantQuarantined) ++tenant_quarantined;
      if (status == QueryStatus::kUnknownGraph) ++unknown_graph;
      QueryOutcome<W> out;
      out.status = status;
      out.query_id = p->id;
      out.graph_fp = p->key.graph_fp;
      out.latency_ms = uptime.elapsed_ms() - p->submit_ms;
      out.error = why;
      record_query(kind, *p);
      p->promise.set_value(std::move(out));
    }
    return swept;
  }

  /// Capacity-eviction hook (runs inside catalog.publish, under m): the
  /// evicted tenant takes its cache entries, bulkhead state, queued
  /// queries and engine bindings with it.
  void on_evicted_locked(uint64_t fp) {
    const size_t dropped = cache.invalidate_fp(fp);
    drop_tenant_locked(fp);
    record(FlightKind::kGraphEvicted, FlightEvent::kNoEngine, fp,
           uint32_t(dropped));
    ADDS_LOG_WARN("sssp-service: graph %016llx evicted from catalog "
                  "(%zu cache entries dropped)",
                  (unsigned long long)fp, dropped);
  }

  /// Shared retire/evict teardown: queued queries resolve kUnknownGraph,
  /// bindings release their snapshot refs, the Tenant record goes away.
  void drop_tenant_locked(uint64_t fp) {
    shed_matching_locked(
        [fp](const Pending& p) { return p.key.graph_fp == fp; },
        QueryStatus::kUnknownGraph, "graph left the catalog while queued",
        FlightKind::kUnknownGraph);
    for (uint32_t i = 0; i < sup.size(); ++i) {
      if (sup[i].bound_fp == fp) {
        sup[i].bound_fp = 0;
        bound_graphs[i].reset();
      }
    }
    tenants.erase(fp);
    if (default_fp == fp) default_fp = 0;
    if (stale_fp == fp) stale_fp = 0;
    // Landmark lifecycle mirrors catalog residency: the table and any
    // queued build for this generation go with it. A build already
    // running on the rebuilder finishes on its refcounted snapshot and
    // discards its table at install time (catalog.contains re-check).
    landmarks.drop(fp);
    for (auto it = landmark_queue.begin(); it != landmark_queue.end();) {
      if (it->fp != fp) {
        ++it;
        continue;
      }
      record(FlightKind::kTableDropped, FlightEvent::kNoEngine, fp, 0);
      it = landmark_queue.erase(it);
    }
  }

  /// Projects a full SSSP tree onto the point-to-point fields of an
  /// outcome whose query carried a target but was served by the engine
  /// path (fresh solve or cached/stale full tree). The distance is read
  /// off the tree — exact by construction — and the serve is typed
  /// kEngineFallback. Call under m (bumps the fallback counters).
  void project_p2p_locked(QueryOutcome<W>& out, const Pending& p) {
    if (p.q.target == kInvalidVertex || out.result == nullptr) return;
    out.p2p_serve = P2pServe::kEngineFallback;
    const auto& dist = out.result->dist;
    if (size_t(p.q.target) < dist.size() &&
        dist[p.q.target] != DistTraits<W>::infinity()) {
      out.p2p_reachable = true;
      out.p2p_distance = dist[p.q.target];
    }
    ++p2p_engine_fallbacks;
    if (Tenant* t = tenant_for(p.key.graph_fp)) ++t->p2p_engine_fallbacks;
  }

  // --- dispatcher ----------------------------------------------------------

  /// First queued query whose tenant is under its engine cap; among the
  /// eligible, one matching this slot's keyed binding wins (no rebind, and
  /// its warm pool is already sized for that graph). FIFO otherwise.
  /// Returns waiting.end() when nothing is runnable. O(queue * engines) —
  /// both are small and bounded. Call under m.
  typename std::deque<std::unique_ptr<Pending>>::iterator pick_locked(
      uint32_t slot) noexcept {
    auto pick = waiting.end();
    for (auto it = waiting.begin(); it != waiting.end(); ++it) {
      const uint64_t fp = (*it)->key.graph_fp;
      if (tenant_occupancy(fp) >= tenant_engine_cap) continue;
      if (fp == sup[slot].bound_fp) return it;  // affinity hit
      if (pick == waiting.end()) pick = it;     // first eligible (FIFO)
    }
    return pick;
  }

  /// One dispatcher per engine slot. The predicate is slot-local: a
  /// quarantined slot's dispatcher parks (its engine is being rebuilt
  /// under it) and resumes when the rebuilder returns the slot to kIdle.
  /// A queue whose every entry belongs to capped tenants parks everyone;
  /// occupancy releases (run_one return, rebuild completion) notify.
  void dispatch_loop(uint32_t i) {
    for (;;) {
      std::unique_ptr<Pending> p;
      std::vector<std::unique_ptr<Pending>> batch;
      {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] {
          const EngineState st = sup[i].state;
          return st == EngineState::kRetired ||
                 (st == EngineState::kIdle && !waiting.empty()) || stopping;
        });
        const EngineState st = sup[i].state;
        if (st == EngineState::kRetired) return;
        if (st != EngineState::kIdle) {
          // Quarantined/rebuilding while stopping: the rebuilder abandons
          // in-flight rebuilds at shutdown, so there is nothing to wait
          // for — the post-join sweep fails any leftover queries.
          if (stopping) return;
          continue;
        }
        const auto it = pick_locked(i);
        if (it == waiting.end()) {
          if (stopping) return;
          // Everything queued belongs to tenants at their engine cap;
          // park until an occupancy release re-notifies. At shutdown the
          // post-join sweep resolves what remains.
          if (!waiting.empty())
            cv.wait_for(lk, std::chrono::milliseconds(1));
          continue;
        }
        p = std::move(*it);
        waiting.erase(it);
        EngineSupervision& s = sup[i];
        if (Tenant* t = tenant_for(p->key.graph_fp))
          if (t->waiting > 0) --t->waiting;
        // Keyed binding: rebind the warm engine to this query's tenant if
        // it last served another (the engine itself rewinds via the next
        // solve's WorkQueue::reset — this is bookkeeping plus the
        // snapshot ref that keeps the bound graph catalog-safe).
        if (s.bound_fp != p->key.graph_fp) {
          if (s.bound_fp != 0) {
            ++s.rebinds;
            record(FlightKind::kEngineRebound, uint16_t(i), p->key.graph_fp);
          }
          s.bound_fp = p->key.graph_fp;
        }
        bound_graphs[i] = p->graph;
        s.active_fp = p->key.graph_fp;
        s.state = EngineState::kBusy;
        s.kill_reason = KillReason::kNone;
        s.active_query = p->id;
        s.busy_since_ms = uptime.elapsed_ms();
        s.pulse_seen = s.beacon.pulse.load(std::memory_order_relaxed);
        s.last_pulse_ms = s.busy_since_ms;
        ++s.queries;
        // Queue coalescing: fold other waiting queries for the SAME graph
        // into this dispatch as lanes of one batched solve — K queries pay
        // the traversal's fixed scheduling costs once. A repeated source
        // shares a lane (it does not consume a new one), but TOTAL members
        // are still capped at max_batch_lanes: one dispatch may never
        // swallow a whole burst, or a single engine failure would fail
        // every query in flight while the rest of the pool sat idle — the
        // leftovers spread across the other slots instead. Tenant
        // bulkheads are preserved: all members are one tenant's traffic
        // on one slot.
        if (cfg.max_batch_lanes > 1 &&
            p->graph->num_vertices() <= kMaxLaneVertices) {
          std::vector<VertexId> lane_sources{p->source};
          for (auto wit = waiting.begin();
               wit != waiting.end() &&
               batch.size() + 1 < cfg.max_batch_lanes;) {
            if ((*wit)->key.graph_fp != p->key.graph_fp) {
              ++wit;
              continue;
            }
            const VertexId src = (*wit)->source;
            const bool shares_lane =
                std::find(lane_sources.begin(), lane_sources.end(), src) !=
                lane_sources.end();
            if (!shares_lane && lane_sources.size() >= cfg.max_batch_lanes) {
              ++wit;
              continue;
            }
            if (!shares_lane) lane_sources.push_back(src);
            if (Tenant* t = tenant_for((*wit)->key.graph_fp))
              if (t->waiting > 0) --t->waiting;
            ++s.queries;
            batch.push_back(std::move(*wit));
            wit = waiting.erase(wit);
          }
        }
      }
      if (batch.empty()) {
        run_one(i, std::move(p));
      } else {
        batch.insert(batch.begin(), std::move(p));
        run_batch(i, std::move(batch));
      }
      {
        std::lock_guard<std::mutex> lk(m);
        // run_one may have quarantined the slot; only a still-busy slot
        // returns to idle here.
        if (sup[i].state == EngineState::kBusy)
          sup[i].state = EngineState::kIdle;
      }
      // The slot released occupancy (back to idle, or quarantined with the
      // fault attributed): queries of other tenants capped a moment ago —
      // or parked sibling dispatchers — may be runnable now.
      cv.notify_all();
    }
  }

  void run_one(uint32_t engine_idx, std::unique_ptr<Pending> p) {
    QueryOutcome<W> out;
    out.query_id = p->id;
    out.graph_fp = p->key.graph_fp;
    const double start_ms = uptime.elapsed_ms();
    out.queue_ms = start_ms - p->submit_ms;

    const auto charge_engine = [&] {
      std::lock_guard<std::mutex> lk(m);
      engine_busy_ms += uptime.elapsed_ms() - start_ms;
      ++engine_queries;
    };
    const auto finish = [&](QueryStatus st) {
      out.status = st;
      out.latency_ms = uptime.elapsed_ms() - p->submit_ms;
      {
        std::lock_guard<std::mutex> lk(m);
        Tenant* t = tenant_for(p->key.graph_fp);
        switch (st) {
          case QueryStatus::kOk:
            project_p2p_locked(out, *p);
            ++completed;
            recorder.add(out.latency_ms);
            if (t) {
              ++t->completed;
              t->recorder.add(out.latency_ms);
            }
            break;
          case QueryStatus::kFailed:
            ++failed;
            if (t) ++t->failed;
            break;
          case QueryStatus::kCancelled: ++cancelled; break;
          case QueryStatus::kDeadlineExpired: ++deadline_expired; break;
          case QueryStatus::kOverloaded:
          case QueryStatus::kShutdown:
          case QueryStatus::kUnknownGraph:
          case QueryStatus::kTenantQuarantined:
            break;  // not produced here
        }
      }
      switch (st) {
        case QueryStatus::kOk:
          record_query(out.cache_hit ? FlightKind::kQueryCacheHit
                                     : FlightKind::kQueryDone,
                       *p, uint16_t(engine_idx),
                       out.cache_hit ? 1 : uint32_t(out.latency_ms * 1000.0));
          break;
        case QueryStatus::kFailed:
          record_query(FlightKind::kQueryFailed, *p, uint16_t(engine_idx));
          break;
        case QueryStatus::kCancelled:
          record_query(FlightKind::kQueryCancelled, *p, uint16_t(engine_idx));
          break;
        case QueryStatus::kDeadlineExpired:
          record_query(FlightKind::kQueryDeadline, *p, uint16_t(engine_idx));
          break;
        default: break;
      }
      p->promise.set_value(std::move(out));
    };
    const auto cancelled_now = [&] {
      return p->q.cancel != nullptr &&
             p->q.cancel->load(std::memory_order_acquire);
    };

    // Conditions that already hold after the queue wait are honoured
    // without burning an engine on a result nobody wants.
    if (cancelled_now()) return finish(QueryStatus::kCancelled);
    if (p->deadline_ms > 0.0 && out.queue_ms >= p->deadline_ms)
      return finish(QueryStatus::kDeadlineExpired);

    // A twin query may have completed while this one waited in the
    // admission queue: serve it from the cache instead of burning an
    // engine on a recomputation.
    if (p->cacheable) {
      std::shared_ptr<const SsspResult<W>> v;
      {
        std::lock_guard<std::mutex> lk(m);
        v = cache.lookup(p->key, /*count_miss=*/false);
      }
      if (v) {
        out.result = std::move(v);
        out.cache_hit = true;
        return finish(QueryStatus::kOk);
      }
    }

    QueryControl ctl;
    ctl.cancel = p->q.cancel;
    ctl.deadline_ms =
        p->deadline_ms > 0.0 ? p->deadline_ms - out.queue_ms : 0.0;
    ctl.beacon = supervise ? &sup[engine_idx].beacon : nullptr;
    // Tenant-scoped chaos: the solve executes in this tenant's fault
    // domain, so a domain-restricted FaultPlan wedges exactly this graph's
    // queries (rebuild probes run in domain 0 and stay clean).
    ctl.fault_domain = p->key.graph_fp;

    const auto publish_ok = [&](SsspResult<W>&& r) {
      auto sp = std::make_shared<const SsspResult<W>>(std::move(r));
      {
        std::lock_guard<std::mutex> lk(m);
        last_health = sp->health;
        if (p->cacheable) cache.insert(p->key, sp);
      }
      out.result = std::move(sp);
      finish(QueryStatus::kOk);
    };

    const uint64_t fault_fires_before = fault::total_fires();
    const auto note_faults = [&] {
      const uint64_t delta = fault::total_fires() - fault_fires_before;
      if (delta > 0)
        record_query(FlightKind::kFaultObserved, *p, uint16_t(engine_idx),
                     uint32_t(delta));
    };

    try {
      SsspResult<W> r = engines[engine_idx]->solve(*p->graph, p->source, ctl);
      charge_engine();
      note_faults();
      if (supervise) {
        std::lock_guard<std::mutex> lk(m);
        EngineSupervision& s = sup[engine_idx];
        s.consecutive_errors = 0;
        // A kill that raced a clean completion: the engine proved alive,
        // ignore the mark. The stray abort flag is cleared by the next
        // solve's queue reset.
        s.kill_reason = KillReason::kNone;
        // Tenant breaker: an end-to-end engine success resets the failure
        // streak; from half-open it is the recovery proof that closes.
        if (Tenant* t = tenant_for(p->key.graph_fp))
          if (t->breaker.on_success())
            record(FlightKind::kBreakerClosed, FlightEvent::kNoEngine,
                   p->key.graph_fp);
      }
      return publish_ok(std::move(r));
    } catch (const DeadlineError&) {
      charge_engine();
      note_faults();
      return finish(QueryStatus::kDeadlineExpired);
    } catch (const Error& e) {
      charge_engine();
      note_faults();
      if (cancelled_now()) return finish(QueryStatus::kCancelled);

      bool quarantined_now = false;
      bool breaker_opened = false;
      ServiceHealth health_now = ServiceHealth::kHealthy;
      if (supervise) {
        std::lock_guard<std::mutex> lk(m);
        EngineSupervision& s = sup[engine_idx];
        const bool killed = s.kill_reason == KillReason::kWedge;
        if (!killed) ++s.consecutive_errors;
        s.kill_reason = KillReason::kNone;
        if (killed ||
            s.consecutive_errors >= cfg.supervisor.quarantine_after_errors) {
          s.state = EngineState::kQuarantined;
          s.consecutive_errors = 0;
          ++s.quarantines;
          // Blast-radius attribution: the slot is out of service because
          // THIS tenant's query poisoned it. Other tenants' availability
          // views (and so their governors) ignore this slot's outage.
          s.fault_fp = p->key.graph_fp;
          record(FlightKind::kEngineQuarantined, uint16_t(engine_idx), p->id,
                 killed ? 0 : s.consecutive_errors);
          rebuild_queue.push_back(engine_idx);
          quarantined_now = true;
        }
        // Tenant breaker: every engine failure (wedge kill or error)
        // counts against the offending tenant only.
        if (Tenant* t = tenant_for(p->key.graph_fp)) {
          if (t->breaker.on_failure(uptime.elapsed_ms())) {
            breaker_opened = true;
            record(FlightKind::kBreakerOpen, FlightEvent::kNoEngine,
                   p->key.graph_fp, t->breaker.consecutive_failures());
            // Sweep the quarantined tenant's backlog typed: those queries
            // would only feed more failures into the same graph.
            const uint64_t fp = p->key.graph_fp;
            shed_matching_locked(
                [fp](const Pending& q) { return q.key.graph_fp == fp; },
                QueryStatus::kTenantQuarantined,
                "tenant circuit breaker opened",
                FlightKind::kQueryQuarantined);
          }
          health_now = t->governor.state();
        }
      }
      if (quarantined_now) rb_cv.notify_one();
      if (breaker_opened)
        ADDS_LOG_WARN("sssp-service: tenant %016llx circuit breaker opened",
                      (unsigned long long)p->key.graph_fp);

      // Guarded fallback is a luxury of a healthy service: in brownout the
      // one-shot runtime (fresh threads, fresh pool, retries) would pile
      // load onto a service already degraded — fail typed instead.
      const bool allow_fallback =
          cfg.guarded_fallback &&
          (!supervise || health_now == ServiceHealth::kHealthy);
      if (!allow_fallback) {
        out.error = quarantined_now
                        ? std::string("engine quarantined after failure: ") +
                              e.what()
                        : e.what();
        return finish(QueryStatus::kFailed);
      }
      // The warm engine gave up (e.g. a pool wedge beyond governance, or
      // an injected fault): route the query through the guarded one-shot
      // runtime — watchdog, pool-resized retries, engine fallback chain —
      // before declaring failure.
      try {
        EngineConfig ecfg;
        ecfg.adds_host = cfg.engine;
        SsspResult<W> r = run_solver_guarded(SolverKind::kAddsHost, *p->graph,
                                             p->source, ecfg, cfg.resilience);
        return publish_ok(std::move(r));
      } catch (const Error& e2) {
        out.error =
            std::string(e.what()) + "; guarded fallback: " + e2.what();
        return finish(QueryStatus::kFailed);
      }
    }
  }

  /// Runs K coalesced same-graph queries as lanes of ONE batched solve
  /// (HostEngine::solve_batch). Mirrors run_one's lifecycle per member —
  /// precheck, execute, finish typed — but the engine is charged once,
  /// supervision sees one success/failure event per batch, and every
  /// cacheable lane result is installed in a single locked pass
  /// (ResultCache::insert_batch). The batch deadline is the minimum over
  /// its members; a member's cancel detaches only its lane when it owns
  /// the lane alone, and resolves at fan-out when the lane is shared.
  /// Batches never take the guarded one-shot fallback: K fresh-thread
  /// retries would multiply recovery load exactly when the engine just
  /// proved unhealthy — members fail typed and retry individually
  /// (docs/SERVICE.md §"Batched dispatch").
  void run_batch(uint32_t engine_idx,
                 std::vector<std::unique_ptr<Pending>> members) {
    struct Slot {
      std::unique_ptr<Pending> p;
      QueryOutcome<W> out;
      uint32_t lane = 0;
      bool done = false;
    };
    const double start_ms = uptime.elapsed_ms();
    std::vector<Slot> slots;
    slots.reserve(members.size());
    for (auto& mp : members) {
      Slot s;
      s.out.query_id = mp->id;
      s.out.graph_fp = mp->key.graph_fp;
      s.out.queue_ms = start_ms - mp->submit_ms;
      s.p = std::move(mp);
      slots.push_back(std::move(s));
    }

    const auto member_cancelled = [](const Slot& s) {
      return s.p->q.cancel != nullptr &&
             s.p->q.cancel->load(std::memory_order_acquire);
    };
    const auto finish = [&](Slot& s, QueryStatus st) {
      s.out.status = st;
      s.out.latency_ms = uptime.elapsed_ms() - s.p->submit_ms;
      {
        std::lock_guard<std::mutex> lk(m);
        Tenant* t = tenant_for(s.p->key.graph_fp);
        switch (st) {
          case QueryStatus::kOk:
            project_p2p_locked(s.out, *s.p);
            ++completed;
            recorder.add(s.out.latency_ms);
            if (t) {
              ++t->completed;
              t->recorder.add(s.out.latency_ms);
            }
            break;
          case QueryStatus::kFailed:
            ++failed;
            if (t) ++t->failed;
            break;
          case QueryStatus::kCancelled: ++cancelled; break;
          case QueryStatus::kDeadlineExpired: ++deadline_expired; break;
          default: break;  // not produced here
        }
      }
      switch (st) {
        case QueryStatus::kOk:
          record_query(s.out.cache_hit ? FlightKind::kQueryCacheHit
                                       : FlightKind::kQueryDone,
                       *s.p, uint16_t(engine_idx),
                       s.out.cache_hit ? 1
                                       : uint32_t(s.out.latency_ms * 1000.0));
          break;
        case QueryStatus::kFailed:
          record_query(FlightKind::kQueryFailed, *s.p, uint16_t(engine_idx));
          break;
        case QueryStatus::kCancelled:
          record_query(FlightKind::kQueryCancelled, *s.p,
                       uint16_t(engine_idx));
          break;
        case QueryStatus::kDeadlineExpired:
          record_query(FlightKind::kQueryDeadline, *s.p, uint16_t(engine_idx));
          break;
        default: break;
      }
      s.p->promise.set_value(std::move(s.out));
      s.done = true;
    };

    // Per-member prechecks, same as run_one's preamble: conditions that
    // already hold after the queue wait resolve without burning a lane.
    for (Slot& s : slots) {
      if (member_cancelled(s)) {
        finish(s, QueryStatus::kCancelled);
      } else if (s.p->deadline_ms > 0.0 && s.out.queue_ms >= s.p->deadline_ms) {
        finish(s, QueryStatus::kDeadlineExpired);
      }
    }
    {
      // Dequeue-time cache recheck, one lock for the whole batch (a twin
      // may have completed while these members queued).
      std::lock_guard<std::mutex> lk(m);
      for (Slot& s : slots) {
        if (s.done || !s.p->cacheable) continue;
        if (auto v = cache.lookup(s.p->key, /*count_miss=*/false)) {
          s.out.result = std::move(v);
          s.out.cache_hit = true;
        }
      }
    }
    for (Slot& s : slots)
      if (!s.done && s.out.cache_hit) finish(s, QueryStatus::kOk);

    std::vector<Slot*> live;
    for (Slot& s : slots)
      if (!s.done) live.push_back(&s);
    if (live.empty()) return;
    if (live.size() == 1) {
      // The batch collapsed to one query: run the singleton path — it
      // keeps the guarded fallback and per-query supervision shape.
      return run_one(engine_idx, std::move(live.front()->p));
    }

    const uint64_t fp = live.front()->p->key.graph_fp;
    const std::shared_ptr<const CsrGraph<W>> graph = live.front()->p->graph;

    // Distinct sources become lanes; members repeating a source share one.
    std::vector<LaneQuery> lanes;
    for (Slot* s : live) {
      uint32_t lane = uint32_t(lanes.size());
      for (uint32_t l = 0; l < lanes.size(); ++l) {
        if (lanes[l].source == s->p->source) {
          lane = l;
          break;
        }
      }
      if (lane == lanes.size()) lanes.push_back(LaneQuery{s->p->source, nullptr});
      s->lane = lane;
    }
    // A lane owned by exactly one member carries that member's cancel so a
    // fired cancel detaches the lane mid-solve; a shared lane solves for
    // everyone and a cancelled member resolves at fan-out instead.
    std::vector<uint32_t> owners(lanes.size(), 0);
    for (Slot* s : live) ++owners[s->lane];
    for (Slot* s : live)
      if (owners[s->lane] == 1) lanes[s->lane].cancel = s->p->q.cancel;

    QueryControl ctl;
    double min_deadline = 0.0;
    for (Slot* s : live) {
      if (s->p->deadline_ms <= 0.0) continue;
      const double remaining = s->p->deadline_ms - s->out.queue_ms;
      if (min_deadline <= 0.0 || remaining < min_deadline)
        min_deadline = remaining;
    }
    ctl.deadline_ms = min_deadline;
    ctl.beacon = supervise ? &sup[engine_idx].beacon : nullptr;
    ctl.fault_domain = fp;

    {
      std::lock_guard<std::mutex> lk(m);
      ++batches;
      batched_queries += live.size();
    }
    const auto charge_engine = [&] {
      std::lock_guard<std::mutex> lk(m);
      engine_busy_ms += uptime.elapsed_ms() - start_ms;
      ++engine_queries;
    };
    const uint64_t fault_fires_before = fault::total_fires();
    const auto note_faults = [&] {
      const uint64_t delta = fault::total_fires() - fault_fires_before;
      if (delta > 0)
        record_query(FlightKind::kFaultObserved, *live.front()->p,
                     uint16_t(engine_idx), uint32_t(delta));
    };

    try {
      BatchResult<W> br = engines[engine_idx]->solve_batch(*graph, lanes, ctl);
      charge_engine();
      note_faults();
      if (supervise) {
        std::lock_guard<std::mutex> lk(m);
        EngineSupervision& es = sup[engine_idx];
        es.consecutive_errors = 0;
        es.kill_reason = KillReason::kNone;
        if (Tenant* t = tenant_for(fp))
          if (t->breaker.on_success())
            record(FlightKind::kBreakerClosed, FlightEvent::kNoEngine, fp);
      }
      // One shared_ptr per ok lane; every member of the lane shares it
      // (same immutability contract as a cache hit).
      std::vector<std::shared_ptr<const SsspResult<W>>> lane_results(
          lanes.size());
      for (uint32_t l = 0; l < lanes.size(); ++l) {
        if (br.lanes[l].status != LaneStatus::kOk) continue;
        lane_results[l] = std::make_shared<const SsspResult<W>>(
            std::move(br.lanes[l].result));
      }
      // Cache fill: one entry per distinct ok lane with a cacheable
      // member (members of a lane share the key), installed with the
      // health snapshot under ONE lock acquisition.
      std::vector<std::pair<CacheKey, typename ResultCache<W>::Value>> fills;
      std::vector<bool> filled(lanes.size(), false);
      for (Slot* s : live) {
        if (!s->p->cacheable || filled[s->lane] || !lane_results[s->lane])
          continue;
        fills.emplace_back(s->p->key, lane_results[s->lane]);
        filled[s->lane] = true;
      }
      {
        std::lock_guard<std::mutex> lk(m);
        last_health = br.health;
        if (!fills.empty()) cache.insert_batch(std::move(fills));
      }
      for (Slot* s : live) {
        if (member_cancelled(*s) || !lane_results[s->lane]) {
          finish(*s, QueryStatus::kCancelled);
          continue;
        }
        s->out.result = lane_results[s->lane];
        finish(*s, QueryStatus::kOk);
      }
    } catch (const DeadlineError&) {
      charge_engine();
      note_faults();
      // The min-over-members deadline elapsed: the shared traversal is
      // gone, so every remaining member expires together (documented
      // batching tradeoff — a short-deadline member caps the batch).
      for (Slot* s : live) finish(*s, QueryStatus::kDeadlineExpired);
    } catch (const Error& e) {
      charge_engine();
      note_faults();
      bool quarantined_now = false;
      bool breaker_opened = false;
      if (supervise) {
        std::lock_guard<std::mutex> lk(m);
        EngineSupervision& es = sup[engine_idx];
        const bool killed = es.kill_reason == KillReason::kWedge;
        if (!killed) ++es.consecutive_errors;
        es.kill_reason = KillReason::kNone;
        if (killed ||
            es.consecutive_errors >= cfg.supervisor.quarantine_after_errors) {
          es.state = EngineState::kQuarantined;
          es.consecutive_errors = 0;
          ++es.quarantines;
          es.fault_fp = fp;
          record(FlightKind::kEngineQuarantined, uint16_t(engine_idx),
                 live.front()->p->id, killed ? 0 : es.consecutive_errors);
          rebuild_queue.push_back(engine_idx);
          quarantined_now = true;
        }
        // One breaker event per batch: the engine failed once, not K
        // times — K counts would open the breaker on a single incident.
        if (Tenant* t = tenant_for(fp)) {
          if (t->breaker.on_failure(uptime.elapsed_ms())) {
            breaker_opened = true;
            record(FlightKind::kBreakerOpen, FlightEvent::kNoEngine, fp,
                   t->breaker.consecutive_failures());
            shed_matching_locked(
                [fp](const Pending& q) { return q.key.graph_fp == fp; },
                QueryStatus::kTenantQuarantined,
                "tenant circuit breaker opened",
                FlightKind::kQueryQuarantined);
          }
        }
      }
      if (quarantined_now) rb_cv.notify_one();
      if (breaker_opened)
        ADDS_LOG_WARN("sssp-service: tenant %016llx circuit breaker opened",
                      (unsigned long long)fp);
      const std::string err =
          quarantined_now
              ? std::string("engine quarantined after batch failure: ") +
                    e.what()
              : std::string(e.what());
      for (Slot* s : live) {
        if (member_cancelled(*s)) {
          finish(*s, QueryStatus::kCancelled);
          continue;
        }
        s->out.error = err;
        finish(*s, QueryStatus::kFailed);
      }
    }
  }

  // --- supervisor ----------------------------------------------------------

  void shed_waiting_locked(const char* why, FlightKind kind) {
    const bool is_shutdown = kind == FlightKind::kShutdownDrain;
    shed_matching_locked([](const Pending&) { return true; },
                         is_shutdown ? QueryStatus::kShutdown
                                     : QueryStatus::kOverloaded,
                         why, kind);
  }

  void supervisor_loop() {
    std::unique_lock<std::mutex> lk(m);
    while (!stopping) {
      const double now = uptime.elapsed_ms();

      // Wedge detection: a busy slot whose pulse froze gets its query
      // killed via the engine's own abort path. The dispatcher observes
      // the thrown abort, sees kill_reason, and quarantines the slot.
      for (uint32_t i = 0; i < sup.size(); ++i) {
        EngineSupervision& s = sup[i];
        if (s.state != EngineState::kBusy) continue;
        if (s.kill_reason != KillReason::kNone) continue;  // already shot
        if (beacon_wedged(s, now, cfg.supervisor.wedge_ms)) {
          s.kill_reason = KillReason::kWedge;
          ++s.kills;
          record(FlightKind::kEngineWedged, uint16_t(i), s.active_query,
                 uint32_t(now - std::max(s.last_pulse_ms, s.busy_since_ms)));
          // interrupt() is cheap (sticky abort + wake) and safe to call
          // under m: the engine mutex it takes is leaf-level.
          engines[i]->interrupt();
        }
      }

      // Per-tenant health bands. Each tenant's governor sees ITS view of
      // the fleet (a slot another tenant poisoned still counts as capacity
      // for this one) and its own queue pressure and latency — wedges and
      // brownout stay scoped to the offending graph.
      const uint32_t fleet = uint32_t(sup.size()) - count_retired();
      for (auto& [fp, t] : tenants) {
        HealthSignals sig;
        sig.load = tenant_queue_quota > 0
                       ? double(t.waiting) / double(tenant_queue_quota)
                       : 0.0;
        sig.engines_available = tenant_view_available(fp);
        sig.engines_in_fleet = fleet;
        if (cfg.supervisor.brownout_p99_ms > 0.0)
          sig.p99_ms = t.recorder.summary().p99;
        const ServiceHealth before = t.governor.state();
        if (t.governor.update(sig)) {
          record(FlightKind::kTenantHealth, FlightEvent::kNoEngine, fp,
                 (uint32_t(before) << 8) | uint32_t(t.governor.state()));
          record(FlightKind::kHealthTransition, FlightEvent::kNoEngine, fp,
                 (uint32_t(before) << 8) | uint32_t(t.governor.state()),
                 sig.engines_available);
        }

        // Shedding, tenant-scoped: when THIS tenant's availability view is
        // zero nothing will ever drain its backlog — fail it typed now
        // instead of letting its callers hang. Other tenants' queues are
        // untouched (their engines are fine).
        if (sig.engines_available == 0 && t.waiting > 0) {
          const uint64_t shed_fp = fp;
          shed_matching_locked(
              [shed_fp](const Pending& p) {
                return p.key.graph_fp == shed_fp;
              },
              QueryStatus::kOverloaded, "shed: no engines available",
              FlightKind::kQueryShed);
        }
      }

      // Stale-window close: stop serving the previous default generation
      // once its bounded staleness budget is spent. Its entries are
      // dropped only if the graph also left the catalog — a still-resident
      // tenant keeps them for queries that target it explicitly.
      if (stale_fp != 0 && now >= stale_deadline_ms) {
        const size_t dropped =
            catalog.contains(stale_fp) ? 0 : cache.invalidate_fp(stale_fp);
        record(FlightKind::kStaleWindowExpired, FlightEvent::kNoEngine,
               stale_fp, uint32_t(dropped));
        stale_fp = 0;
      }

      sup_cv.wait_for(lk, std::chrono::duration<double, std::milli>(
                              cfg.supervisor.tick_ms));
    }
  }

  // --- rebuilder -----------------------------------------------------------

  /// Owns quarantined slots end to end: destroy (joins the wedged engine's
  /// workers — safe, the failed solve quiesced them), rebuild, probe, and
  /// either return to service or retire. One slot at a time: rebuilds are
  /// rare and serializing them caps the memory spike of an extra
  /// pool+worker set to one.
  void rebuild_loop() {
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      rb_cv.wait(lk, [&] {
        return stopping || !rebuild_queue.empty() || !repair_queue.empty() ||
               !landmark_queue.empty();
      });
      if (stopping) return;
      if (rebuild_queue.empty()) {
        if (!repair_queue.empty()) {
          // No slot to restore: drain one delta repair. Rebuilds keep
          // priority — restoring fleet capacity beats repair latency (the
          // stale window covers the wait).
          RepairTask task = std::move(repair_queue.front());
          repair_queue.pop_front();
          run_repair_locked(lk, std::move(task));
        } else {
          // Lowest priority: landmark tables are an acceleration, not an
          // answer — while one is pending, point-to-point queries ride
          // the engine path, typed by the kBuilding/kRepairing status.
          LandmarkTask task = std::move(landmark_queue.front());
          landmark_queue.pop_front();
          run_landmark_locked(lk, std::move(task));
        }
        continue;
      }
      const uint32_t i = rebuild_queue.front();
      rebuild_queue.pop_front();
      sup[i].state = EngineState::kRebuilding;
      // The rebuilt slot starts unbound; drop the old binding's snapshot
      // ref now (the engine it belonged to is about to be destroyed).
      sup[i].bound_fp = 0;
      bound_graphs[i].reset();
      // Probe on the default tenant's graph (any resident one if no
      // default is set) — current generation, not the old query's. Probes
      // run in fault domain 0, so tenant-scoped chaos never fails them.
      auto probe_graph = catalog.try_lookup(default_fp);
      if (!probe_graph) {
        const auto residents = catalog.entries();
        if (!residents.empty())
          probe_graph = catalog.try_lookup(residents.front().graph_fp);
      }

      lk.unlock();
      std::string probe_err;
      bool ok = true;
      try {
        engines[i].reset();  // join workers, free pool
        engines[i] = std::make_unique<HostEngine<W>>(cfg.engine);
      } catch (const Error& e) {
        ok = false;
        probe_err = std::string("rebuild failed: ") + e.what();
      }
      if (ok && probe_graph && !probe_graph->empty()) {
        QueryControl ctl;
        ctl.cancel = &stop_flag;
        ctl.deadline_ms = cfg.supervisor.probe_deadline_ms;
        ctl.beacon = &sup[i].beacon;
        try {
          engines[i]->solve(*probe_graph, VertexId{0}, ctl);
        } catch (const Error& e) {
          ok = false;
          probe_err = e.what();
        }
      }
      lk.lock();

      if (stopping) return;  // abandoned mid-rebuild; shutdown sweeps up
      EngineSupervision& s = sup[i];
      ++s.rebuilds;
      record(FlightKind::kEngineRebuilt, uint16_t(i), 0, uint32_t(s.rebuilds));
      if (ok) {
        s.probe_failures = 0;
        s.consecutive_errors = 0;
        s.fault_fp = 0;  // blast damage repaired; attribution cleared
        s.state = EngineState::kIdle;
        record(FlightKind::kEngineRecovered, uint16_t(i), 0);
        cv.notify_all();  // slot is serviceable again
      } else {
        ++s.probe_failures;
        ++probe_failures_total;
        record(FlightKind::kEngineProbeFailed, uint16_t(i), 0,
               s.probe_failures);
        ADDS_LOG_WARN(
            "sssp-service: engine %u post-rebuild probe failed (%u/%u): %s",
            i, s.probe_failures, cfg.supervisor.max_probe_failures,
            probe_err.c_str());
        if (s.probe_failures >= cfg.supervisor.max_probe_failures) {
          s.state = EngineState::kRetired;
          record(FlightKind::kEngineRetired, uint16_t(i), 0,
                 s.probe_failures);
          ADDS_LOG_WARN("sssp-service: engine %u permanently retired", i);
          dump_flight_to_log("engine retired");
          cv.notify_all();  // its dispatcher exits
        } else {
          s.state = EngineState::kQuarantined;
          rebuild_queue.push_back(i);  // try again
        }
      }
    }
  }

  // --- delta repair --------------------------------------------------------

  /// Runs one warm repair on the rebuilder's dedicated engine. Enters and
  /// leaves with `lk` held; the solve itself runs unlocked. Failure
  /// containment, in order: a thrown plan/solve error, a deadline-expired
  /// (wedged) repair, and a flunked exactness certificate all fall back
  /// typed to a cold solve on the child — the half-repaired tree is
  /// discarded, never cached. Either way the window's pending count drops
  /// and, at zero, the parent generation is handed over.
  void run_repair_locked(std::unique_lock<std::mutex>& lk, RepairTask task) {
    record(FlightKind::kRepairStart, FlightEvent::kNoEngine, task.child_fp,
           uint32_t(task.source));
    const double t0 = uptime.elapsed_ms();
    lk.unlock();

    if (!repair_engine)
      repair_engine = std::make_unique<HostEngine<W>>(cfg.engine);
    std::shared_ptr<const SsspResult<W>> result;
    std::string repair_err;
    try {
      RepairPlan<W> plan =
          plan_repair(*task.parent, *task.child, task.delta->classification,
                      task.warm->dist, task.source);
      QueryControl ctl;
      ctl.cancel = &stop_flag;
      ctl.deadline_ms = cfg.delta.repair_deadline_ms;
      ctl.fault_domain = task.child_fp;
      SsspResult<W> res =
          repair_engine->solve_repair(*task.child, task.source, plan, ctl);
      if (cfg.delta.verify) {
        const RepairVerdict v =
            verify_repair(*task.child, task.source, res.dist);
        if (!v.exact)
          throw Error(
              "repair certificate failed (" +
              std::to_string(v.feasibility_violations) + " infeasible, " +
              std::to_string(v.unsupported) + " unsupported labels)");
      }
      result = std::make_shared<const SsspResult<W>>(std::move(res));
    } catch (const Error& e) {
      repair_err = e.what();
    }
    if (!repair_err.empty()) {
      // Typed fallback: full recompute on the child. Domain 0, so the
      // chaos plan that killed the repair cannot also kill the answer.
      try {
        QueryControl ctl;
        ctl.cancel = &stop_flag;
        ctl.deadline_ms = cfg.delta.repair_deadline_ms;
        SsspResult<W> res =
            repair_engine->solve(*task.child, task.source, ctl);
        result = std::make_shared<const SsspResult<W>>(std::move(res));
      } catch (const Error& e) {
        // Both paths failed (shutdown race, injected chaos on the whole
        // engine). Queries for this (source, child) recompute on demand —
        // degraded to cold, never wrong, never hung.
        ADDS_LOG_WARN(
            "sssp-service: delta repair fallback solve failed "
            "(source=%u child=%016llx): %s",
            unsigned(task.source), (unsigned long long)task.child_fp,
            e.what());
      }
    }

    lk.lock();
    if (repair_err.empty()) {
      ++repairs_ok;
      if (auto it = tenants.find(task.child_fp); it != tenants.end())
        ++it->second.repairs_ok;
      record(FlightKind::kRepairDone, FlightEvent::kNoEngine, task.child_fp,
             uint32_t(task.source),
             uint32_t((uptime.elapsed_ms() - t0) * 1e3));
    } else {
      ++repair_fallbacks;
      if (auto it = tenants.find(task.child_fp); it != tenants.end())
        ++it->second.repair_fallbacks;
      record(FlightKind::kRepairFallback, FlightEvent::kNoEngine,
             task.child_fp, uint32_t(task.source));
      ADDS_LOG_WARN(
          "sssp-service: delta repair fell back to cold solve "
          "(source=%u child=%016llx): %s",
          unsigned(task.source), (unsigned long long)task.child_fp,
          repair_err.c_str());
    }
    // Cache only while the child is still the serving generation — a
    // retire/evict that raced the repair wins.
    if (result && !stopping && catalog.contains(task.child_fp))
      cache.insert(CacheKey{task.child_fp, task.source, config_digest},
                   std::move(result));
    settle_repair_locked(task.child_fp);
  }

  /// One repair of `child_fp`'s window settled (ok or fallback). At zero
  /// pending the handover completes: the parent generation retires.
  void settle_repair_locked(uint64_t child_fp) {
    const auto it = delta_windows.find(child_fp);
    if (it == delta_windows.end()) return;
    if (it->second.pending > 0) --it->second.pending;
    if (it->second.pending > 0) return;
    const uint64_t parent_fp = it->second.parent_fp;
    delta_windows.erase(it);
    retire_parent_locked(parent_fp);
  }

  /// Retires a delta's parent generation once nothing depends on it:
  /// cache entries invalidated, queued queries resolved typed, bindings
  /// released. In-flight queries hold their own snapshot refs. A parent
  /// still serving another open window (chained deltas) stays resident.
  void retire_parent_locked(uint64_t parent_fp) {
    for (const auto& [cfp, w] : delta_windows)
      if (w.parent_fp == parent_fp) return;
    if (!catalog.retire(parent_fp)) return;  // already gone — fine
    const size_t dropped = cache.invalidate_fp(parent_fp);
    drop_tenant_locked(parent_fp);
    record(FlightKind::kGraphRetired, FlightEvent::kNoEngine, parent_fp,
           uint32_t(dropped));
  }

  // --- landmark tables -----------------------------------------------------

  /// Queues a cold table build for `fp` if the landmark layer is enabled
  /// and this generation has no table, build, or typed decline on record.
  /// Call under m; returns true when a task was queued (notify rb_cv).
  bool schedule_landmark_build_locked(uint64_t fp) {
    if (!cfg.landmark.enabled) return false;
    if (landmarks.status(fp) != LandmarkTableStatus::kNone) return false;
    auto g = catalog.try_lookup(fp);
    if (!g || g->empty()) return false;
    landmarks.set_status(fp, LandmarkTableStatus::kBuilding);
    LandmarkTask t;
    t.fp = fp;
    t.graph = std::move(g);
    record(FlightKind::kTableBuildStart, FlightEvent::kNoEngine, fp, 0);
    landmark_queue.push_back(std::move(t));
    return true;
  }

  /// Runs one landmark-table build (cold) or warm per-lane repair on the
  /// rebuilder's dedicated engine. Enters and leaves with `lk` held; the
  /// build itself runs unlocked. Failure containment: a failed warm
  /// repair falls back typed to a cold build (kTableRebuildFallback); a
  /// failed cold build types the generation kFailed (asymmetric graphs
  /// kUnsupported) and point-to-point queries keep riding the engine path
  /// — a table is installed whole or not at all, never a partial bound.
  void run_landmark_locked(std::unique_lock<std::mutex>& lk,
                           LandmarkTask task) {
    const double t0 = uptime.elapsed_ms();
    landmark_running = true;
    lk.unlock();

    if (!repair_engine)
      repair_engine = std::make_unique<HostEngine<W>>(cfg.engine);
    QueryControl ctl;
    ctl.cancel = &stop_flag;
    ctl.deadline_ms = cfg.landmark.build_deadline_ms;
    ctl.fault_domain = task.fp;
    // Build-time chaos (landmark.build and engine-level sites) fires in
    // this tenant's domain, so a targeted plan can break one tenant's
    // builds without touching repairs or probes (domain 0).
    fault::ThreadDomainScope domain(task.fp);

    std::shared_ptr<const LandmarkTable<W>> table;
    bool unsupported = false;
    bool fell_back = false;
    std::string err;
    if (task.warm) {
      try {
        if (!task.parent_table)
          throw Error("parent table gone before repair");
        table = LandmarkOracle<W>::repair(
            *task.parent_table, *task.parent, *task.graph, task.fp,
            task.delta->classification, *repair_engine, cfg.landmark, ctl);
      } catch (const LandmarkUnsupportedError& e) {
        unsupported = true;
        err = e.what();
      } catch (const Error& e) {
        fell_back = true;  // typed fallback: cold rebuild below
        err = e.what();
      }
    }
    if (table == nullptr && !unsupported) {
      try {
        table = LandmarkOracle<W>::build(*task.graph, task.fp, *repair_engine,
                                         cfg.landmark, ctl);
      } catch (const LandmarkUnsupportedError& e) {
        unsupported = true;
        err = e.what();
      } catch (const Error& e) {
        err = e.what();
      }
    }

    lk.lock();
    landmark_running = false;
    if (fell_back) {
      ++landmark_rebuild_fallbacks;
      record(FlightKind::kTableRebuildFallback, FlightEvent::kNoEngine,
             task.fp, 1);
      ADDS_LOG_WARN(
          "sssp-service: landmark table repair fell back to cold build "
          "(fp=%016llx): %s",
          (unsigned long long)task.fp, err.c_str());
    }
    // Install only while the generation is still catalog-resident — a
    // retire/evict that raced the build wins (drop_tenant_locked already
    // dropped the registry entry; do not resurrect it).
    const bool resident = !stopping && catalog.contains(task.fp);
    if (table != nullptr && resident) {
      landmarks.install(task.fp, table);
      if (task.warm && !fell_back) {
        ++landmark_repairs_ok;
        record(FlightKind::kTableRepaired, FlightEvent::kNoEngine, task.fp,
               table->num_landmarks(), uint32_t(uptime.elapsed_ms() - t0));
      } else {
        ++landmark_builds_ok;
        record(FlightKind::kTableBuilt, FlightEvent::kNoEngine, task.fp,
               table->num_landmarks(), uint32_t(uptime.elapsed_ms() - t0));
      }
    } else if (table == nullptr && resident) {
      landmarks.set_status(task.fp, unsupported
                                        ? LandmarkTableStatus::kUnsupported
                                        : LandmarkTableStatus::kFailed);
      if (unsupported) {
        ++landmark_unsupported;
      } else {
        ++landmark_build_failures;
        ADDS_LOG_WARN(
            "sssp-service: landmark table build failed (fp=%016llx): %s",
            (unsigned long long)task.fp, err.c_str());
      }
      record(FlightKind::kTableBuildFailed, FlightEvent::kNoEngine, task.fp,
             unsupported ? 1 : 0);
    } else {
      landmarks.drop(task.fp);  // generation left the catalog mid-build
      record(FlightKind::kTableDropped, FlightEvent::kNoEngine, task.fp, 1);
    }
  }

  /// SsspService::apply_delta body. Runs under `m` end to end: the
  /// catalog's eviction hook assumes the service lock, and publication +
  /// repair scheduling + default handover must be atomic against submits.
  DeltaOutcome apply_delta(uint64_t parent_fp_in, const GraphDelta<W>& delta) {
    std::unique_lock<std::mutex> lk(m);
    ADDS_REQUIRE(!stopping, "sssp-service: shut down");
    const uint64_t parent_fp = parent_fp_in != 0 ? parent_fp_in : default_fp;
    ADDS_REQUIRE(parent_fp != 0, "sssp-service: no graph set");

    auto ad = std::make_shared<const AppliedDelta<W>>(
        catalog.apply_delta(parent_fp, delta));
    DeltaOutcome out;
    out.parent_fp = ad->parent_fp;
    out.child_fp = ad->child_fp;
    out.stats = ad->classification.stats;
    if (ad->unchanged()) {
      out.unchanged = true;
      return out;
    }
    ++deltas_applied;

    // The child is a first-class tenant from this point on.
    const auto [tit, fresh] = tenants.try_emplace(ad->child_fp, cfg);
    if (fresh && supervise) {
      HealthSignals sig;
      sig.engines_available = tenant_view_available(ad->child_fp);
      sig.engines_in_fleet = uint32_t(sup.size()) - count_retired();
      tit->second.governor.update(sig);
    }
    record(FlightKind::kGraphPublished, FlightEvent::kNoEngine, ad->child_fp,
           uint32_t(catalog.size()), 1);
    if (default_fp == ad->parent_fp) {
      default_fp = ad->child_fp;
      out.was_default = true;
    }

    // Queued queries that asked for the default route follow the handover:
    // they were bound to the parent only because it was the default when
    // they were admitted, and re-aiming them at the child (same vertex
    // count by construction) keeps a zero-repair handover from shedding
    // them when the parent retires. Explicitly pinned queries keep their
    // generation — if it retires, they resolve typed kUnknownGraph.
    if (out.was_default)
      for (auto& p : waiting)
        if (p->q.graph_fp == 0 && p->key.graph_fp == ad->parent_fp) {
          p->key.graph_fp = ad->child_fp;
          p->graph = ad->child;
        }

    // One warm repair per distinct cached source of the parent: each
    // cached tree becomes the warm labels for an exact child tree.
    std::unordered_set<VertexId> seen;
    uint32_t scheduled = 0;
    for (auto& [key, value] : cache.entries_of_fp(ad->parent_fp)) {
      if (!value || value->dist.size() != ad->child->num_vertices()) continue;
      if (!seen.insert(key.source).second) continue;
      RepairTask t;
      t.child_fp = ad->child_fp;
      t.parent_fp = ad->parent_fp;
      t.source = key.source;
      t.parent = ad->parent;
      t.child = ad->child;
      t.warm = std::move(value);
      t.delta = ad;
      repair_queue.push_back(std::move(t));
      ++scheduled;
    }
    repairs_scheduled += scheduled;
    out.repairs_scheduled = scheduled;
    record(FlightKind::kDeltaPublished, FlightEvent::kNoEngine, ad->child_fp,
           scheduled, uint32_t(ad->classification.stats.total()));

    // Landmark table lineage: the child generation warm-repairs the
    // parent's table per landmark lane when one is READY (the snapshot
    // rides the task refcounted — parent retirement cannot pull it out
    // from under the repair), and cold-builds otherwise. Until the task
    // lands, the child's kRepairing/kBuilding status types the window and
    // p2p queries ride the engine path.
    bool lm_scheduled = false;
    if (cfg.landmark.enabled &&
        landmarks.status(ad->child_fp) == LandmarkTableStatus::kNone) {
      LandmarkTask t;
      t.fp = ad->child_fp;
      t.graph = ad->child;
      t.parent_table = landmarks.lookup(ad->parent_fp);
      if (t.parent_table != nullptr) {
        t.warm = true;
        t.parent_fp = ad->parent_fp;
        t.parent = ad->parent;
        t.delta = ad;
        landmarks.set_status(ad->child_fp, LandmarkTableStatus::kRepairing);
      } else {
        landmarks.set_status(ad->child_fp, LandmarkTableStatus::kBuilding);
      }
      record(FlightKind::kTableBuildStart, FlightEvent::kNoEngine,
             ad->child_fp, t.warm ? 1 : 0);
      landmark_queue.push_back(std::move(t));
      lm_scheduled = true;
    }

    if (scheduled == 0) {
      // Nothing cached to repair: the handover completes immediately.
      retire_parent_locked(ad->parent_fp);
      lk.unlock();
      if (lm_scheduled) rb_cv.notify_all();
      return out;
    }
    DeltaWindow& w = delta_windows[ad->child_fp];
    w.parent_fp = ad->parent_fp;
    w.pending += scheduled;  // merge with a re-applied identical delta
    w.stale_until_ms = uptime.elapsed_ms() + cfg.delta.stale_serve_ms;
    lk.unlock();
    rb_cv.notify_all();
    return out;
  }

  // --- admission -----------------------------------------------------------

  std::future<QueryOutcome<W>> submit(VertexId source, const QueryOptions& q) {
    auto p = std::make_unique<Pending>();
    p->source = source;
    p->q = q;
    std::future<QueryOutcome<W>> fut = p->promise.get_future();

    {
      std::unique_lock<std::mutex> lk(m);
      if (stopping) {
        QueryOutcome<W> out;
        out.status = QueryStatus::kShutdown;
        out.error = "service is shut down";
        p->promise.set_value(std::move(out));
        return fut;
      }
      // Tenant resolution: an explicit fingerprint routes to that tenant;
      // 0 routes to the set_graph default. Misuse (no graph anywhere)
      // still throws; a *wrong* fingerprint is a per-query condition and
      // resolves typed.
      ADDS_REQUIRE(q.graph_fp != 0 || default_fp != 0,
                   "sssp-service: no graph set");
      const uint64_t fp = q.graph_fp != 0 ? q.graph_fp : default_fp;
      p->id = ++submitted;
      p->submit_ms = uptime.elapsed_ms();
      p->graph = catalog.try_lookup(fp);
      if (p->graph == nullptr) {
        ++unknown_graph;
        QueryOutcome<W> out;
        out.status = QueryStatus::kUnknownGraph;
        out.query_id = p->id;
        out.graph_fp = fp;
        out.error = "graph not resident in catalog";
        record_query(FlightKind::kUnknownGraph, *p);
        p->promise.set_value(std::move(out));
        return fut;
      }
      ADDS_REQUIRE(source < p->graph->num_vertices(),
                   "sssp-service: source vertex out of range");
      ADDS_REQUIRE(q.target == kInvalidVertex ||
                       q.target < p->graph->num_vertices(),
                   "sssp-service: target vertex out of range");
      Tenant& ten = tenants.at(fp);  // resident => tenant state exists
      ++ten.submitted;
      p->deadline_ms =
          q.deadline_ms > 0.0 ? q.deadline_ms : cfg.default_deadline_ms;
      p->cacheable = !q.bypass_cache && cache.capacity() > 0;
      // Point-to-point queries key under a target-tagged digest: a p2p
      // fallback's full tree and a plain full-SSSP tree never alias.
      p->key = CacheKey{fp, source, p2p_digest(config_digest, q.target)};

      // Circuit breaker: an open tenant rejects typed before any queue or
      // engine resource is spent on it. The cooldown check lives inside
      // admit() — an expired cooldown half-opens here and lets the query
      // through as the trial.
      if (supervise && ten.breaker.enabled()) {
        const BreakerState before = ten.breaker.state();
        const auto verdict = ten.breaker.admit(p->submit_ms);
        if (before == BreakerState::kOpen &&
            ten.breaker.state() == BreakerState::kHalfOpen)
          record(FlightKind::kBreakerHalfOpen, FlightEvent::kNoEngine, fp);
        if (verdict == TenantBreaker::Admit::kReject) {
          ++tenant_quarantined;
          ++ten.quarantined;
          QueryOutcome<W> out;
          out.status = QueryStatus::kTenantQuarantined;
          out.query_id = p->id;
          out.graph_fp = fp;
          out.error = "tenant circuit breaker open";
          record_query(FlightKind::kQueryQuarantined, *p);
          p->promise.set_value(std::move(out));
          return fut;
        }
      }

      const ServiceHealth health = supervise ? ten.governor.state()
                                             : ServiceHealth::kHealthy;
      if (health == ServiceHealth::kBrownout) {
        // Degraded-mode deadline clamp: spend less engine time per query
        // while capacity is short.
        const double clamp = cfg.supervisor.brownout_deadline_clamp_ms;
        if (clamp > 0.0 &&
            (p->deadline_ms <= 0.0 || p->deadline_ms > clamp)) {
          p->deadline_ms = clamp;
          ++brownout_clamped;
        }
      }

      // Point-to-point routing: a READY landmark table answers before any
      // queue or engine resource is spent. Tight triangle-inequality
      // bounds (or a landmark endpoint, or decisive unreachability) serve
      // exact right here; otherwise an ALT-guided A* runs on the SUBMIT
      // thread over refcounted snapshots, outside the lock — engines stay
      // free for full solves. No table (building, repairing, unsupported,
      // failed, disabled) falls through to normal admission: the typed
      // engine path. An oracle answer is exact or it is not given.
      if (q.target != kInvalidVertex && cfg.landmark.enabled) {
        if (auto table = landmarks.lookup(fp)) {
          const OracleAnswer<W> ans = table->answer(source, q.target);
          if (ans.answered) {
            QueryOutcome<W> out;
            out.status = QueryStatus::kOk;
            out.p2p_serve = P2pServe::kOracleExact;
            out.p2p_reachable = ans.reachable;
            out.p2p_distance = ans.distance;
            out.graph_fp = fp;
            out.query_id = p->id;
            out.latency_ms = uptime.elapsed_ms() - p->submit_ms;
            ++completed;
            ++ten.completed;
            ++oracle_exact_hits;
            ++ten.oracle_exact_hits;
            recorder.add(out.latency_ms);
            ten.recorder.add(out.latency_ms);
            record(FlightKind::kOracleServe, FlightEvent::kNoEngine, p->id,
                   uint32_t(source), uint32_t(P2pServe::kOracleExact));
            p->promise.set_value(std::move(out));
            return fut;
          }
          const auto graph = p->graph;
          const uint64_t qid = p->id;
          const double submit_ms = p->submit_ms;
          lk.unlock();
          PointToPointResult<W> r =
              astar(*graph, source, q.target,
                    LandmarkHeuristic<W>(table->row_ptrs(), q.target));
          lk.lock();
          QueryOutcome<W> out;
          out.status = QueryStatus::kOk;
          out.p2p_serve = P2pServe::kAltSearch;
          out.p2p_reachable = r.reachable;
          out.p2p_distance = r.distance;
          out.graph_fp = fp;
          out.query_id = qid;
          out.latency_ms = uptime.elapsed_ms() - submit_ms;
          ++completed;
          ++alt_searches;
          recorder.add(out.latency_ms);
          // `ten` may have retired while the lock was dropped — re-find.
          if (Tenant* t = tenant_for(fp)) {
            ++t->completed;
            ++t->alt_searches;
            t->recorder.add(out.latency_ms);
          }
          record(FlightKind::kOracleServe, FlightEvent::kNoEngine, qid,
                 uint32_t(source), uint32_t(P2pServe::kAltSearch));
          p->promise.set_value(std::move(out));
          return fut;
        }
      }

      if (p->cacheable) {
        if (auto v = cache.lookup(p->key)) {
          QueryOutcome<W> out;
          out.status = QueryStatus::kOk;
          out.result = std::move(v);
          out.cache_hit = true;
          out.graph_fp = fp;
          out.query_id = p->id;
          out.latency_ms = uptime.elapsed_ms() - p->submit_ms;
          project_p2p_locked(out, *p);
          ++completed;
          ++ten.completed;
          recorder.add(out.latency_ms);
          ten.recorder.add(out.latency_ms);
          record_query(FlightKind::kQueryCacheHit, *p);
          p->promise.set_value(std::move(out));
          return fut;
        }
        // Brownout bounded-staleness serve (default tenant only — the
        // stale generation is the graph set_graph replaced): a miss on
        // the current generation may still hit the previous one while its
        // window is open. The outcome says so (stale=true, old fp).
        if (health == ServiceHealth::kBrownout && fp == default_fp &&
            stale_fp != 0 && uptime.elapsed_ms() < stale_deadline_ms) {
          const CacheKey old_key{stale_fp, source,
                                 p2p_digest(config_digest, q.target)};
          if (auto v = cache.lookup(old_key, /*count_miss=*/false)) {
            QueryOutcome<W> out;
            out.status = QueryStatus::kOk;
            out.result = std::move(v);
            out.cache_hit = true;
            out.stale = true;
            out.graph_fp = stale_fp;
            out.query_id = p->id;
            out.latency_ms = uptime.elapsed_ms() - p->submit_ms;
            project_p2p_locked(out, *p);
            ++completed;
            ++ten.completed;
            ++stale_hits;
            ++ten.stale_hits;
            recorder.add(out.latency_ms);
            ten.recorder.add(out.latency_ms);
            record_query(FlightKind::kQueryStaleHit, *p);
            p->promise.set_value(std::move(out));
            return fut;
          }
        }
        // Delta repair window: a miss on a freshly-patched child
        // generation serves the PARENT's cached tree as a typed
        // bounded-stale answer while the warm repair is still in flight.
        // The outcome carries the parent's fingerprint — the caller knows
        // exactly which graph version answered.
        const auto dw = delta_windows.find(fp);
        if (dw != delta_windows.end() && dw->second.pending > 0 &&
            uptime.elapsed_ms() < dw->second.stale_until_ms) {
          const CacheKey pkey{dw->second.parent_fp, source,
                              p2p_digest(config_digest, q.target)};
          if (auto v = cache.lookup(pkey, /*count_miss=*/false)) {
            QueryOutcome<W> out;
            out.status = QueryStatus::kOk;
            out.result = std::move(v);
            out.cache_hit = true;
            out.stale = true;
            out.graph_fp = dw->second.parent_fp;
            out.query_id = p->id;
            out.latency_ms = uptime.elapsed_ms() - p->submit_ms;
            project_p2p_locked(out, *p);
            ++completed;
            ++ten.completed;
            ++delta_stale_hits;
            ++ten.delta_stale_hits;
            recorder.add(out.latency_ms);
            ten.recorder.add(out.latency_ms);
            record_query(FlightKind::kQueryStaleHit, *p);
            p->promise.set_value(std::move(out));
            return fut;
          }
        }
      }

      const auto shed_overloaded = [&](const std::string& why,
                                       bool tenant_scoped) {
        ++shed;
        ++ten.shed;
        QueryOutcome<W> out;
        out.status = QueryStatus::kOverloaded;
        out.query_id = p->id;
        out.graph_fp = fp;
        out.error = why;
        record_query(tenant_scoped ? FlightKind::kTenantShed
                                   : FlightKind::kQueryShed,
                     *p);
        p->promise.set_value(std::move(out));
      };

      if (health == ServiceHealth::kShedding) {
        shed_overloaded("service shedding: no engines available", false);
        return fut;
      }
      // Per-tenant admission quota: a tenant burst sheds ITS OWN traffic
      // once its queue share is spent; other tenants keep queueing into
      // the remaining depth.
      if (ten.waiting >= tenant_queue_quota) {
        shed_overloaded("tenant admission quota full (queue_quota=" +
                            std::to_string(tenant_queue_quota) + ")",
                        true);
        return fut;
      }
      if (waiting.size() >= cfg.max_queue_depth) {
        // Graceful shedding: reject now rather than queue into an
        // unbounded backlog the deadline will kill anyway.
        shed_overloaded("admission queue full (max_queue_depth=" +
                            std::to_string(cfg.max_queue_depth) + ")",
                        false);
        return fut;
      }
      record_query(FlightKind::kQueryAdmit, *p);
      ++ten.waiting;
      waiting.push_back(std::move(p));
      peak_depth = std::max<uint32_t>(peak_depth, uint32_t(waiting.size()));
    }
    // notify_all, not notify_one: with per-slot predicates a notify_one
    // could land on a parked quarantined slot's dispatcher, which would
    // swallow the wake without running the query.
    cv.notify_all();
    return fut;
  }

  // --- tenancy surface -------------------------------------------------------

  /// Shared publish path (under m): catalog residency (possibly evicting
  /// the LRU unpinned tenant through the hook) plus this service's Tenant
  /// bulkhead record.
  uint64_t publish_locked(std::shared_ptr<const CsrGraph<W>> g, bool pinned,
                          uint64_t fp) {
    catalog.publish(std::move(g), pinned, fp);  // may run on_evicted_locked
    const auto [it, fresh] = tenants.try_emplace(fp, cfg);
    if (fresh && supervise) {
      // Seed the new tenant's band from the signals as they stand instead
      // of assuming kHealthy until the next supervisor tick — a submit
      // racing that tick must already see the configured policy.
      HealthSignals sig;
      sig.engines_available = tenant_view_available(fp);
      sig.engines_in_fleet = uint32_t(sup.size()) - count_retired();
      it->second.governor.update(sig);
    }
    record(FlightKind::kGraphPublished, FlightEvent::kNoEngine, fp,
           uint32_t(catalog.size()), pinned ? 1 : 0);
    // Publish-time table build: p2p queries ride the engine path (typed
    // kBuilding) until the rebuilder lands the table.
    if (schedule_landmark_build_locked(fp)) rb_cv.notify_all();
    return fp;
  }

  uint64_t publish(std::shared_ptr<const CsrGraph<W>> g, bool pinned,
                   uint64_t fp) {
    std::lock_guard<std::mutex> lk(m);
    return publish_locked(std::move(g), pinned, fp);
  }

  bool retire(uint64_t fp) {
    std::lock_guard<std::mutex> lk(m);
    if (!catalog.retire(fp)) return false;
    const size_t dropped = cache.invalidate_fp(fp);
    drop_tenant_locked(fp);
    record(FlightKind::kGraphRetired, FlightEvent::kNoEngine, fp,
           uint32_t(dropped));
    return true;
  }

  std::vector<uint64_t> residents() const {
    std::vector<uint64_t> fps;
    for (const auto& e : catalog.entries()) fps.push_back(e.graph_fp);
    return fps;
  }

  /// set_graph = publish(pinned) + default routing. The outgoing default
  /// is unpinned but stays resident, and — deliberately — its cache
  /// entries are NOT invalidated: they are still correct for queries that
  /// target its fingerprint, and publishing tenant B must never cost
  /// tenant A its cache. Dead entries die by LRU or when their graph
  /// leaves the catalog.
  void set_graph(std::shared_ptr<const CsrGraph<W>> g, uint64_t fp) {
    std::lock_guard<std::mutex> lk(m);
    const uint64_t old_fp = default_fp;
    publish_locked(std::move(g), /*pinned=*/true, fp);
    if (old_fp != 0 && old_fp != fp) catalog.set_pinned(old_fp, false);
    default_fp = fp;
    const double window = supervise ? cfg.supervisor.stale_serve_ms : 0.0;
    if (window > 0.0 && old_fp != 0 && old_fp != fp) {
      // Keep the outgoing generation servable to default-routed brownout
      // queries for the bounded window; at most one old generation is ever
      // retained in that role.
      if (stale_fp != 0 && stale_fp != fp && !catalog.contains(stale_fp))
        cache.invalidate_fp(stale_fp);
      stale_fp = old_fp;
      stale_deadline_ms = uptime.elapsed_ms() + window;
    } else if (old_fp != fp) {
      stale_fp = 0;
    }
    record(FlightKind::kGraphSwap, FlightEvent::kNoEngine, fp, 0,
           uint32_t(window));
  }

  // --- persistence (src/persist/ state store) -------------------------------

  /// Collects the serving state under m — refcounted snapshots only, so
  /// the lock is held for bookkeeping, not byte-copying — then serializes
  /// and publishes the store OUTSIDE the lock. Queries keep flowing while
  /// the bytes hit disk.
  SaveOutcome save_state(const std::string& state_dir) {
    SaveOutcome out;
    persist::StateSnapshot<W> snap;
    std::vector<std::pair<CacheKey, std::shared_ptr<const SsspResult<W>>>>
        cache_rows;
    {
      std::lock_guard<std::mutex> lk(m);
      const auto residents = catalog.entries();
      snap.graphs.reserve(residents.size());
      for (const auto& ent : residents) {
        auto g = catalog.try_lookup(ent.graph_fp);
        if (!g) continue;
        persist::GraphRecord<W> gr;
        gr.graph_fp = ent.graph_fp;
        gr.parent_fp = catalog.parent_of(ent.graph_fp);
        gr.pinned = ent.pinned;
        gr.is_default = ent.graph_fp == default_fp;
        gr.graph = std::move(g);
        snap.graphs.push_back(std::move(gr));
        if (auto table = landmarks.lookup(ent.graph_fp)) {
          persist::LandmarkRecord<W> lr;
          lr.graph_fp = ent.graph_fp;
          lr.table = std::move(table);
          snap.landmarks.push_back(std::move(lr));
        }
        for (auto& [key, value] : cache.entries_of_fp(ent.graph_fp)) {
          // Only full-tree entries computed under the CURRENT solver
          // config persist: p2p digests are one-way (the key cannot be
          // reconstructed at load) and another config's trees would be
          // cache-key-dead in a restarted process anyway.
          if (key.config_digest != config_digest) continue;
          if (!value || value->dist.empty()) continue;
          cache_rows.emplace_back(key, value);
        }
      }
    }
    // Distance arrays are copied out here, off the lock.
    snap.cache.reserve(cache_rows.size());
    for (auto& [key, value] : cache_rows) {
      persist::CacheRecord<W> cr;
      cr.graph_fp = key.graph_fp;
      cr.source = key.source;
      cr.config_digest = key.config_digest;
      cr.dist = value->dist;
      snap.cache.push_back(std::move(cr));
    }
    out.graphs = uint32_t(snap.graphs.size());
    out.tables = uint32_t(snap.landmarks.size());
    out.cache_entries = uint32_t(snap.cache.size());
    const persist::StateStore store(state_dir);
    out.path = store.path();
    try {
      const persist::SaveStats st = store.save(snap);
      out.ok = true;
      out.sections = st.sections;
      out.bytes = st.bytes;
      {
        std::lock_guard<std::mutex> lk(m);
        ++state_saves_ok;
      }
      record(FlightKind::kStateSaved, FlightEvent::kNoEngine, out.bytes,
             out.graphs, out.tables + out.cache_entries);
    } catch (const persist::StoreError& e) {
      out.error = std::string(persist::store_error_kind_name(e.kind())) +
                  ": " + e.what();
      std::lock_guard<std::mutex> lk(m);
      ++state_saves_failed;
    }
    return out;
  }

  /// One tenant that survived the verify phase, staged for installation.
  struct RestoredTenant {
    persist::GraphRecord<W> g;
    std::shared_ptr<const LandmarkTable<W>> table;  // verified or null
    bool table_went_cold = false;  // a table existed but flunked its check
    std::vector<std::pair<VertexId, std::shared_ptr<const SsspResult<W>>>>
        cache_rows;  // certified entries
  };

  /// Load + verify + install. The store's checksums only prove the bytes
  /// round-tripped; this path proves the DATA is true before any of it can
  /// serve: fingerprints recomputed over the decoded CSR, one full
  /// landmark row per tenant recomputed with Dijkstra and compared
  /// bit-for-bit, every cache entry pushed through the O(E) exactness
  /// certificate. Whatever fails is dropped, counted, and replaced by a
  /// typed cold rebuild — never served.
  RestoreOutcome restore_state(const std::string& state_dir) {
    RestoreOutcome out;
    const persist::StateStore store(state_dir);
    if (!store.exists()) return out;  // cold start, not an error
    out.store_found = true;

    WallTimer t_load;
    persist::LoadResult<W> loaded;
    try {
      loaded = store.template load<W>();
    } catch (const persist::StoreError& e) {
      // Whole-store failure: unusable prologue, version skew, io error.
      // Typed degradation to a fully cold start.
      out.error = std::string(persist::store_error_kind_name(e.kind())) +
                  ": " + e.what();
      out.corrupt_sections = 1;
      out.load_ms = t_load.elapsed_ms();
      {
        std::lock_guard<std::mutex> lk(m);
        ++state_restores_failed;
        ++state_corrupt_sections;
        last_restore_load_ms = out.load_ms;
        last_restore_verify_ms = 0.0;
      }
      record(FlightKind::kStateCorrupt, FlightEvent::kNoEngine,
             uint64_t(e.kind()) + 1, 1);
      ADDS_LOG_WARN("sssp-service: restore: store unusable (%s)",
                    out.error.c_str());
      return out;
    }
    out.ok = true;
    out.load_ms = t_load.elapsed_ms();
    out.sections_total = loaded.sections_total;
    out.corrupt_sections = loaded.corrupt_sections;
    for (const auto& err : loaded.errors)
      ADDS_LOG_WARN("sssp-service: restore: %s", err.c_str());

    // ---- Verify phase (no service lock: pure CPU work vs ground truth).
    WallTimer t_verify;
    std::vector<RestoredTenant> verified;
    std::unordered_map<uint64_t, size_t> by_fp;  // verified graph -> index
    for (auto& gr : loaded.snap.graphs) {
      if (!gr.graph) continue;
      if (graph_fingerprint(*gr.graph) != gr.graph_fp) {
        // The snapshot decoded cleanly but is not the graph it claims to
        // be. Nothing downstream of it is verifiable; the tenant goes
        // cold (the operator republishes from source-of-truth).
        ++out.corrupt_sections;
        ++out.cold_rebuilds;
        record(FlightKind::kColdRebuild, FlightEvent::kNoEngine, gr.graph_fp,
               0);
        ADDS_LOG_WARN(
            "sssp-service: restore: graph %016llx failed fingerprint "
            "recompute — tenant goes cold",
            (unsigned long long)gr.graph_fp);
        continue;
      }
      RestoredTenant rt;
      rt.g = std::move(gr);
      by_fp.emplace(rt.g.graph_fp, verified.size());
      verified.push_back(std::move(rt));
    }
    for (auto& lr : loaded.snap.landmarks) {
      const auto it = by_fp.find(lr.graph_fp);
      if (it == by_fp.end()) {
        // Orphaned table: no verified graph to check it against, so it
        // cannot be trusted. Dropped; if the tenant itself restores some
        // other way its publish schedules a fresh build.
        ADDS_LOG_WARN(
            "sssp-service: restore: dropping landmark table for "
            "unrestored graph %016llx",
            (unsigned long long)lr.graph_fp);
        continue;
      }
      RestoredTenant& rt = verified[it->second];
      const CsrGraph<W>& g = *rt.g.graph;
      bool ok = lr.table != nullptr && lr.table->graph_fp() == lr.graph_fp &&
                lr.table->num_vertices() == g.num_vertices() &&
                lr.table->num_landmarks() > 0;
      if (ok) {
        // Dijkstra spot check: recompute ONE full row and demand bit
        // equality. The row index derives from the fingerprint, so which
        // row gets audited is stable per graph but not guessable as
        // "always row 0" — a corruption in any fixed row is caught for
        // 1/K of graphs, and the corruption-matrix tests cover the rest.
        const uint32_t k = uint32_t(lr.graph_fp % lr.table->num_landmarks());
        const VertexId lm = lr.table->landmarks()[k];
        ok = lm < g.num_vertices();
        if (ok) {
          const SsspResult<W> truth = dijkstra(g, lm);
          ok = std::equal(truth.dist.begin(), truth.dist.end(),
                          lr.table->row(k));
        }
      }
      if (ok) {
        rt.table = std::move(lr.table);
      } else {
        ++out.corrupt_sections;
        rt.table_went_cold = true;
        ADDS_LOG_WARN(
            "sssp-service: restore: landmark table for %016llx failed its "
            "Dijkstra spot check — scheduling cold rebuild",
            (unsigned long long)lr.graph_fp);
      }
    }
    for (auto& cr : loaded.snap.cache) {
      const auto it = by_fp.find(cr.graph_fp);
      if (it == by_fp.end()) continue;  // orphaned — recomputes on demand
      // Another configuration's trees are not corruption, just not OURS:
      // a cache entry reproduces the result of an identical solver config.
      if (cr.config_digest != config_digest) continue;
      RestoredTenant& rt = verified[it->second];
      const CsrGraph<W>& g = *rt.g.graph;
      bool ok = cr.source < g.num_vertices() &&
                cr.dist.size() == g.num_vertices();
      if (ok) ok = verify_repair(g, cr.source, cr.dist).exact;
      if (!ok) {
        // The cold rebuild of a cache entry is implicit: the next query
        // for this source computes it fresh through an engine.
        ++out.corrupt_sections;
        ++out.cold_rebuilds;
        record(FlightKind::kColdRebuild, FlightEvent::kNoEngine, cr.graph_fp,
               2);
        continue;
      }
      auto res = std::make_shared<SsspResult<W>>();
      res->solver = "restored";
      res->dist = std::move(cr.dist);
      rt.cache_rows.emplace_back(
          cr.source,
          std::shared_ptr<const SsspResult<W>>(std::move(res)));
    }
    out.verify_ms = t_verify.elapsed_ms();

    // ---- Install phase (under m): verified artifacts enter service the
    // same way live ones do — publish_locked, registry install, cache
    // insert — so restored tenants are indistinguishable from published
    // ones.
    {
      std::lock_guard<std::mutex> lk(m);
      for (auto& rt : verified) {
        // Table first: publish_locked schedules a cold build only while
        // the registry has NO entry for the fingerprint, so a verified
        // table suppresses the rebuild and a failed/missing one lets the
        // publish schedule it — the typed cold-rebuild path.
        if (rt.table) {
          landmarks.install(rt.g.graph_fp, rt.table);
          ++out.tables_restored;
        }
        publish_locked(rt.g.graph, rt.g.pinned, rt.g.graph_fp);
        if (!rt.table &&
            landmarks.status(rt.g.graph_fp) == LandmarkTableStatus::kBuilding &&
            rt.table_went_cold) {
          ++out.cold_rebuilds;
          record(FlightKind::kColdRebuild, FlightEvent::kNoEngine,
                 rt.g.graph_fp, 1);
        }
        catalog.record_lineage(rt.g.graph_fp, rt.g.parent_fp);
        if (rt.g.is_default) default_fp = rt.g.graph_fp;
        for (auto& [source, res] : rt.cache_rows) {
          cache.insert(CacheKey{rt.g.graph_fp, source, config_digest}, res);
          ++out.cache_restored;
        }
        ++out.graphs_restored;
      }
      ++state_restores_ok;
      state_corrupt_sections += out.corrupt_sections;
      state_cold_rebuilds += out.cold_rebuilds;
      state_graphs_restored += out.graphs_restored;
      state_tables_restored += out.tables_restored;
      state_cache_restored += out.cache_restored;
      last_restore_load_ms = out.load_ms;
      last_restore_verify_ms = out.verify_ms;
    }
    if (out.corrupt_sections > 0)
      record(FlightKind::kStateCorrupt, FlightEvent::kNoEngine, 0,
             uint32_t(out.corrupt_sections));
    record(FlightKind::kStateLoaded, FlightEvent::kNoEngine,
           out.sections_total, out.graphs_restored,
           out.tables_restored + out.cache_restored);
    return out;
  }

  // --- teardown ------------------------------------------------------------

  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(m);
      stopping = true;
    }
    stop_flag.store(true, std::memory_order_release);
    cv.notify_all();
    sup_cv.notify_all();
    rb_cv.notify_all();
    std::lock_guard<std::mutex> jk(join_m);
    if (joined) return;
    if (supervisor_thread.joinable()) supervisor_thread.join();
    if (rebuilder_thread.joinable()) rebuilder_thread.join();
    for (auto& d : dispatchers)
      if (d.joinable()) d.join();
    // Belt-and-braces drain: anything still waiting (its slot quarantined
    // at the wrong moment, or every dispatcher exited first) gets a typed
    // kShutdown instead of a forever-pending future.
    {
      std::lock_guard<std::mutex> lk(m);
      if (!waiting.empty()) {
        const uint32_t n = uint32_t(waiting.size());
        shed_waiting_locked("service shut down while queued",
                            FlightKind::kShutdownDrain);
        record(FlightKind::kShutdownDrain, FlightEvent::kNoEngine, 0, n);
      }
    }
    joined = true;
  }

  ServiceReport report() const {
    std::lock_guard<std::mutex> lk(m);
    ServiceReport rep;
    rep.submitted = submitted;
    rep.completed = completed;
    rep.failed = failed;
    rep.shed = shed;
    rep.cancelled = cancelled;
    rep.deadline_expired = deadline_expired;
    rep.unknown_graph = unknown_graph;
    rep.tenant_quarantined = tenant_quarantined;
    rep.batches = batches;
    rep.batched_queries = batched_queries;
    const CacheStats& cs = cache.stats();
    rep.batch_fills = cs.batch_fills;
    rep.cache_hits = cs.hits;
    rep.cache_misses = cs.misses;
    rep.cache_evictions = cs.evictions;
    rep.cache_invalidations = cs.invalidations;
    rep.cache_entries = cache.size();
    const uint64_t looked = cs.hits + cs.misses;
    rep.cache_hit_rate = looked ? double(cs.hits) / double(looked) : 0.0;
    rep.queue_depth = uint32_t(waiting.size());
    rep.peak_queue_depth = peak_depth;
    rep.engines = uint32_t(engines.size());
    rep.engine_queries = engine_queries;
    rep.engine_busy_ms = engine_busy_ms;
    rep.uptime_ms = uptime.elapsed_ms();
    if (rep.uptime_ms > 0.0 && !engines.empty())
      rep.engine_utilization = std::min(
          1.0, engine_busy_ms / (rep.uptime_ms * double(engines.size())));
    rep.latency = recorder.summary();
    rep.last_health = last_health;
    // Service-wide health is the worst band across tenants — a
    // single-tenant service reads exactly as before.
    rep.health = supervise ? worst_health() : ServiceHealth::kHealthy;
    for (const auto& [fp, t] : tenants)
      rep.health_transitions += t.governor.transitions();
    rep.engines_available = count_available();
    rep.engines_retired = count_retired();
    rep.stale_hits = stale_hits;
    rep.brownout_clamped = brownout_clamped;
    rep.probe_failures = probe_failures_total;
    rep.flight_events = flightrec.recorded();
    rep.engine_status.reserve(sup.size());
    for (const auto& s : sup) {
      EngineStatus es;
      es.state = s.state;
      es.queries = s.queries;
      es.kills = s.kills;
      es.quarantines = s.quarantines;
      es.rebuilds = s.rebuilds;
      es.probe_failures = s.probe_failures;
      es.bound_fp = s.bound_fp;
      es.rebinds = s.rebinds;
      rep.engine_status.push_back(es);
      rep.supervisor_kills += s.kills;
      rep.quarantines += s.quarantines;
      rep.rebuilds += s.rebuilds;
      rep.engine_rebinds += s.rebinds;
    }
    // Tenancy: one row per resident graph, catalog residency joined with
    // this service's bulkhead state and the cache's per-fp slice.
    const auto residents = catalog.entries();
    const CatalogStats cat = catalog.stats();
    rep.catalog_residents = residents.size();
    rep.catalog_publishes = cat.publishes;
    rep.catalog_retires = cat.retires;
    rep.catalog_evictions = cat.evictions;
    rep.deltas_applied = deltas_applied;
    rep.repairs_scheduled = repairs_scheduled;
    rep.repairs_ok = repairs_ok;
    rep.repair_fallbacks = repair_fallbacks;
    rep.delta_stale_hits = delta_stale_hits;
    for (const auto& [cfp, w] : delta_windows) rep.repairs_pending += w.pending;
    rep.landmark_builds_ok = landmark_builds_ok;
    rep.landmark_repairs_ok = landmark_repairs_ok;
    rep.landmark_rebuild_fallbacks = landmark_rebuild_fallbacks;
    rep.landmark_build_failures = landmark_build_failures;
    rep.landmark_unsupported = landmark_unsupported;
    rep.landmark_tables = landmarks.resident_tables();
    rep.landmark_evictions = landmarks.evictions();
    rep.oracle_exact_hits = oracle_exact_hits;
    rep.alt_searches = alt_searches;
    rep.p2p_engine_fallbacks = p2p_engine_fallbacks;
    rep.landmark_builds_pending =
        uint32_t(landmark_queue.size()) + (landmark_running ? 1 : 0);
    rep.state_saves_ok = state_saves_ok;
    rep.state_saves_failed = state_saves_failed;
    rep.state_restores_ok = state_restores_ok;
    rep.state_restores_failed = state_restores_failed;
    rep.state_corrupt_sections = state_corrupt_sections;
    rep.state_cold_rebuilds = state_cold_rebuilds;
    rep.state_graphs_restored = state_graphs_restored;
    rep.state_tables_restored = state_tables_restored;
    rep.state_cache_restored = state_cache_restored;
    rep.last_restore_load_ms = last_restore_load_ms;
    rep.last_restore_verify_ms = last_restore_verify_ms;
    rep.tenants.reserve(residents.size());
    for (const auto& ent : residents) {
      TenantStatus ts;
      ts.graph_fp = ent.graph_fp;
      ts.pinned = ent.pinned;
      ts.is_default = ent.graph_fp == default_fp;
      const auto it = tenants.find(ent.graph_fp);
      if (it != tenants.end()) {
        const Tenant& t = it->second;
        ts.health = supervise ? t.governor.state() : ServiceHealth::kHealthy;
        ts.health_transitions = t.governor.transitions();
        ts.breaker = t.breaker.state();
        ts.breaker_failures = t.breaker.consecutive_failures();
        ts.breaker_opens = t.breaker.opens();
        ts.submitted = t.submitted;
        ts.completed = t.completed;
        ts.failed = t.failed;
        ts.shed = t.shed;
        ts.quarantined = t.quarantined;
        ts.stale_hits = t.stale_hits;
        ts.repairs_ok = t.repairs_ok;
        ts.repair_fallbacks = t.repair_fallbacks;
        ts.delta_stale_hits = t.delta_stale_hits;
        ts.oracle_exact_hits = t.oracle_exact_hits;
        ts.alt_searches = t.alt_searches;
        ts.p2p_engine_fallbacks = t.p2p_engine_fallbacks;
        ts.waiting = t.waiting;
      }
      const auto li = landmarks.info(ent.graph_fp);
      ts.oracle_status = li.status;
      ts.oracle_landmarks = li.landmarks;
      if (const auto dw = delta_windows.find(ent.graph_fp);
          dw != delta_windows.end())
        ts.repairs_pending = dw->second.pending;
      const TenantCacheStats tcs = cache.tenant_stats(ent.graph_fp);
      ts.cache_hits = tcs.hits;
      ts.cache_misses = tcs.misses;
      ts.cache_entries = tcs.entries;
      ts.queue_quota = tenant_queue_quota;
      ts.occupancy = tenant_occupancy(ent.graph_fp);
      ts.engine_cap = tenant_engine_cap;
      rep.tenants.push_back(ts);
    }
    return rep;
  }
};

template <WeightType W>
SsspService<W>::SsspService(const ServiceConfig& cfg)
    : impl_(std::make_unique<Impl>(cfg)) {}

template <WeightType W>
SsspService<W>::~SsspService() {
  impl_->shutdown();
}

template <WeightType W>
uint64_t SsspService<W>::set_graph(std::shared_ptr<const CsrGraph<W>> g) {
  ADDS_REQUIRE(g != nullptr, "sssp-service: null graph");
  // The O(V + E) digest runs outside the lock; only the publish is
  // serialized.
  const uint64_t fp = graph_fingerprint(*g);
  impl_->set_graph(std::move(g), fp);
  return fp;
}

template <WeightType W>
uint64_t SsspService<W>::set_graph(CsrGraph<W> g) {
  return set_graph(std::make_shared<const CsrGraph<W>>(std::move(g)));
}

template <WeightType W>
uint64_t SsspService<W>::publish_graph(std::shared_ptr<const CsrGraph<W>> g,
                                       bool pinned) {
  ADDS_REQUIRE(g != nullptr, "sssp-service: null graph");
  const uint64_t fp = graph_fingerprint(*g);
  return impl_->publish(std::move(g), pinned, fp);
}

template <WeightType W>
uint64_t SsspService<W>::publish_graph(CsrGraph<W> g, bool pinned) {
  return publish_graph(std::make_shared<const CsrGraph<W>>(std::move(g)),
                       pinned);
}

template <WeightType W>
bool SsspService<W>::retire_graph(uint64_t graph_fp) {
  return impl_->retire(graph_fp);
}

template <WeightType W>
std::vector<uint64_t> SsspService<W>::resident_graphs() const {
  return impl_->residents();
}

template <WeightType W>
DeltaOutcome SsspService<W>::apply_delta(uint64_t parent_fp,
                                         const GraphDelta<W>& delta) {
  return impl_->apply_delta(parent_fp, delta);
}

template <WeightType W>
std::future<QueryOutcome<W>> SsspService<W>::submit(VertexId source,
                                                    const QueryOptions& q) {
  return impl_->submit(source, q);
}

template <WeightType W>
QueryOutcome<W> SsspService<W>::query(VertexId source, const QueryOptions& q) {
  QueryOutcome<W> out = submit(source, q).get();
  if (out.status != QueryStatus::kOk)
    throw ServiceError(
        out.status,
        "sssp-service: query " + std::to_string(out.query_id) + " " +
            query_status_name(out.status) +
            (out.error.empty() ? "" : (": " + out.error)));
  return out;
}

template <WeightType W>
SaveOutcome SsspService<W>::save(const std::string& state_dir) {
  return impl_->save_state(state_dir);
}

template <WeightType W>
RestoreOutcome SsspService<W>::restore(const std::string& state_dir) {
  return impl_->restore_state(state_dir);
}

template <WeightType W>
ServiceReport SsspService<W>::report() const {
  return impl_->report();
}

template <WeightType W>
std::vector<StampedFlightEvent> SsspService<W>::flight_dump() const {
  return impl_->flightrec.dump();
}

template <WeightType W>
void SsspService<W>::shutdown() {
  impl_->shutdown();
}

template class SsspService<uint32_t>;
template class SsspService<float>;

}  // namespace adds
