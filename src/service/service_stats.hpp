// Service-level observability: latency percentiles, queue depth, engine
// utilization and cache effectiveness on one report struct — the serving
// analog of the per-run QueueHealth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "landmark/landmark_oracle.hpp"
#include "service/supervisor.hpp"
#include "sssp/result.hpp"
#include "util/stats.hpp"

namespace adds {

/// Order statistics over the most recent `capacity` samples (a ring — the
/// service reports *recent* latency, not lifetime latency, so a burst of
/// slow queries is visible even after millions of fast ones).
class LatencyRecorder {
 public:
  explicit LatencyRecorder(size_t capacity = 2048)
      : capacity_(std::max<size_t>(1, capacity)) {
    samples_.reserve(capacity_);
  }

  void add(double ms) {
    if (samples_.size() < capacity_) {
      samples_.push_back(ms);
    } else {
      samples_[next_] = ms;
      next_ = (next_ + 1) % capacity_;
    }
    ++total_;
  }

  uint64_t total() const noexcept { return total_; }

  struct Summary {
    uint64_t count = 0;  // lifetime samples (window may be smaller)
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double mean = 0.0;
    double max = 0.0;
  };

  Summary summary() const {
    Summary s;
    s.count = total_;
    if (samples_.empty()) return s;
    std::vector<double> xs = samples_;
    s.p50 = percentile(xs, 50.0);
    s.p90 = percentile(xs, 90.0);
    s.p99 = percentile(xs, 99.0);
    double sum = 0.0, mx = xs.front();
    for (double x : xs) {
      sum += x;
      mx = std::max(mx, x);
    }
    s.mean = sum / double(xs.size());
    s.max = mx;
    return s;
  }

 private:
  size_t capacity_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  std::vector<double> samples_;
};

/// Per-engine supervision snapshot inside ServiceReport. `state ==
/// EngineState::kRetired` is the typed permanently-out signal.
struct EngineStatus {
  EngineState state = EngineState::kIdle;
  uint64_t queries = 0;        // dispatched to this slot
  uint64_t kills = 0;          // supervisor interrupts delivered
  uint64_t quarantines = 0;    // times pulled from service
  uint64_t rebuilds = 0;       // reconstructions completed
  uint32_t probe_failures = 0; // consecutive failed post-rebuild probes
  uint64_t bound_fp = 0;       // tenant this warm engine last solved for
  uint64_t rebinds = 0;        // times the slot switched tenants
};

/// Per-tenant snapshot inside ServiceReport: one row per catalog-resident
/// graph. The isolation invariants read directly off this: a faulted
/// tenant shows health/breaker damage here while every other row stays
/// kHealthy/kClosed with zero sheds.
struct TenantStatus {
  uint64_t graph_fp = 0;
  bool pinned = false;
  bool is_default = false;  // set_graph routes fp-less queries here
  ServiceHealth health = ServiceHealth::kHealthy;
  uint64_t health_transitions = 0;
  BreakerState breaker = BreakerState::kClosed;
  uint32_t breaker_failures = 0;  // consecutive, resets on success
  uint64_t breaker_opens = 0;     // lifetime
  // Admission / completion, this tenant only.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;         // kOverloaded (quota or tenant shedding)
  uint64_t quarantined = 0;  // kTenantQuarantined (open breaker)
  uint64_t stale_hits = 0;
  // Live-delta lifecycle, this tenant only. A tenant row is keyed by
  // fingerprint, so delta counters accumulate on the CHILD generation
  // (the fingerprint whose answers they protect).
  uint64_t repairs_ok = 0;        // warm repairs that passed the certificate
  uint64_t repair_fallbacks = 0;  // repairs replaced by a cold child solve
  uint64_t delta_stale_hits = 0;  // parent-tree answers served mid-repair
  uint32_t repairs_pending = 0;   // scheduled, not yet finished
  // Landmark oracle, this tenant only: table lifecycle plus how its
  // point-to-point queries were answered.
  LandmarkTableStatus oracle_status = LandmarkTableStatus::kNone;
  uint32_t oracle_landmarks = 0;     // landmarks in the READY table
  uint64_t oracle_exact_hits = 0;    // tight-bound serves, zero dispatch
  uint64_t alt_searches = 0;         // ALT-guided A* serves (no engine)
  uint64_t p2p_engine_fallbacks = 0; // p2p served by a full engine solve
  // Result-cache slice.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t cache_entries = 0;
  // Bulkhead state right now.
  uint32_t waiting = 0;      // queued queries of this tenant
  uint32_t queue_quota = 0;  // max queued (floor(queue_share * depth))
  uint32_t occupancy = 0;    // engine slots held (busy + attributed faults)
  uint32_t engine_cap = 0;   // max slots (floor(engine_share * engines))
};

/// Point-in-time snapshot returned by SsspService::report().
struct ServiceReport {
  // Admission and completion counters.
  uint64_t submitted = 0;
  uint64_t completed = 0;         // kOk results (computed or cached)
  uint64_t failed = 0;            // kFailed
  uint64_t shed = 0;              // kOverloaded (admission queue full)
  uint64_t cancelled = 0;         // kCancelled
  uint64_t deadline_expired = 0;  // kDeadlineExpired
  uint64_t unknown_graph = 0;     // kUnknownGraph (non-resident fp)
  uint64_t tenant_quarantined = 0;  // kTenantQuarantined (open breaker)

  // Batched dispatch (same-graph queue coalescing into one solve_batch).
  uint64_t batches = 0;          // solve_batch dispatches (>= 2 lanes each)
  uint64_t batched_queries = 0;  // queries served through those dispatches
  uint64_t batch_fills = 0;      // cache entries filled by batched solves

  // Result cache effectiveness.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  size_t cache_entries = 0;
  double cache_hit_rate = 0.0;  // hits / (hits + misses), 0 when idle

  // Scheduler state.
  uint32_t queue_depth = 0;       // queries waiting for an engine now
  uint32_t peak_queue_depth = 0;  // high-water mark since construction
  uint32_t engines = 0;
  uint64_t engine_queries = 0;       // queries actually run on an engine
  double engine_busy_ms = 0.0;       // summed engine solve time
  double engine_utilization = 0.0;   // busy / (uptime * engines), [0,1]
  double uptime_ms = 0.0;

  // End-to-end latency of completed queries (submit -> outcome), recent
  // window.
  LatencyRecorder::Summary latency;

  // Pool/queue health of the most recent engine-executed query — the
  // per-run QueueHealth surfaced at service level.
  QueueHealth last_health;

  // Supervision and degradation (all zero / kHealthy / empty when the
  // supervisor is disabled).
  ServiceHealth health = ServiceHealth::kHealthy;
  uint64_t health_transitions = 0;
  uint32_t engines_available = 0;  // kIdle + kBusy right now
  uint32_t engines_retired = 0;    // permanently out (typed kEngineRetired)
  uint64_t supervisor_kills = 0;   // wedged queries interrupted
  uint64_t quarantines = 0;        // slot pulls (all engines, lifetime)
  uint64_t rebuilds = 0;           // engine reconstructions completed
  uint64_t probe_failures = 0;     // failed post-rebuild probes, lifetime
  uint64_t stale_hits = 0;         // brownout bounded-staleness serves
  uint64_t brownout_clamped = 0;   // deadlines clamped by brownout
  uint64_t flight_events = 0;      // lifetime flight-recorder events
  std::vector<EngineStatus> engine_status;  // one entry per engine slot

  // Tenancy (empty / zero with no graphs published).
  std::vector<TenantStatus> tenants;  // one row per resident graph, by fp
  size_t catalog_residents = 0;
  uint64_t catalog_publishes = 0;   // first-time publications
  uint64_t catalog_retires = 0;
  uint64_t catalog_evictions = 0;   // capacity-driven LRU removals
  uint64_t engine_rebinds = 0;      // keyed-binding switches, all slots

  // Live graph deltas (apply_delta pipeline; all zero when never used).
  uint64_t deltas_applied = 0;      // child snapshots published
  uint64_t repairs_scheduled = 0;   // per cached (source, parent fp) tree
  uint64_t repairs_ok = 0;          // certificate-verified warm repairs
  uint64_t repair_fallbacks = 0;    // typed fallback to cold child solves
  uint64_t delta_stale_hits = 0;    // parent answers served during repair
  uint32_t repairs_pending = 0;     // in the rebuilder's queue right now

  // Landmark distance oracle (all zero when disabled or never used).
  uint64_t landmark_builds_ok = 0;       // cold table builds completed
  uint64_t landmark_repairs_ok = 0;      // warm per-lane table repairs
  uint64_t landmark_rebuild_fallbacks = 0;  // failed repairs rebuilt cold
  uint64_t landmark_build_failures = 0;  // builds that failed typed
  uint64_t landmark_unsupported = 0;     // asymmetric graphs declined
  uint64_t landmark_tables = 0;          // READY tables resident now
  uint64_t landmark_evictions = 0;       // LRU table drops, lifetime
  uint64_t oracle_exact_hits = 0;        // tight-bound p2p serves
  uint64_t alt_searches = 0;             // ALT-guided A* p2p serves
  uint64_t p2p_engine_fallbacks = 0;     // p2p through a full engine solve
  uint32_t landmark_builds_pending = 0;  // build/repair tasks queued or running

  // ---- Persistence (src/persist/ state store) ----
  uint64_t state_saves_ok = 0;          // StateStore::save published a store
  uint64_t state_saves_failed = 0;      // save threw typed (io / no space)
  uint64_t state_restores_ok = 0;       // restore() served at least the store
  uint64_t state_restores_failed = 0;   // whole-store failures (typed)
  uint64_t state_corrupt_sections = 0;  // sections rejected by checksum/verify
  uint64_t state_cold_rebuilds = 0;     // artifacts rebuilt cold after reject
  uint64_t state_graphs_restored = 0;   // tenants republished from the store
  uint64_t state_tables_restored = 0;   // landmark tables verified + installed
  uint64_t state_cache_restored = 0;    // cache entries certified + reinserted
  double last_restore_load_ms = 0.0;    // read + checksum + decode
  double last_restore_verify_ms = 0.0;  // fingerprints + Dijkstra + certificates
};

}  // namespace adds
