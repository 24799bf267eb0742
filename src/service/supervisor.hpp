// Supervision vocabulary and policy for the self-healing SSSP service.
//
// Three cooperating pieces, all driven from SsspService's supervisor
// thread (service/sssp_service.cpp):
//
//   * Engine supervision. Every engine slot carries an EngineSupervision
//     board entry: the ProgressBeacon its solves publish into, a state
//     machine (kIdle -> kBusy -> kQuarantined -> kRebuilding -> back, or
//     kRetired for good), and failure bookkeeping. The wedge policy below
//     turns "busy but the pulse stopped" into a kill decision; the service
//     then cancels the stuck query via HostEngine::interrupt(), quarantines
//     the slot, and rebuilds the engine (fresh workers + pool) off the
//     serving path. Engines that fail `max_probe_failures` consecutive
//     post-rebuild probe queries are retired permanently — EngineState::
//     kRetired is the typed signal in ServiceReport::engine_status.
//
//   * Brownout degradation. HealthGovernor is a hysteresis state machine
//     kHealthy -> kBrownout -> kShedding over queue load, engine
//     availability and (optionally) p99 latency. Brownout is the
//     degrade-before-refuse band: the service serves bounded-staleness
//     cache hits, clamps deadlines and disables the expensive one-shot
//     fallback; shedding (no engines at all) rejects outright.
//
//   * Flight recorder vocabulary. FlightKind is the service's event enum
//     for util/flight_recorder.hpp, with a formatter so a dump reads as a
//     timeline, not hex.
//
// Everything here is policy + plain data; the mechanism (threads, locks,
// promises) stays in sssp_service.cpp, which keeps these transitions unit
// testable without spinning up a service.
#pragma once

#include <cstdint>
#include <string>

#include "sssp/host_engine.hpp"
#include "util/flight_recorder.hpp"

namespace adds {

/// Service-wide health band. Ordered: higher is worse.
enum class ServiceHealth : uint8_t {
  kHealthy = 0,   // full service: fresh results, fallback armed
  kBrownout = 1,  // degraded: stale serves, clamped deadlines, no fallback
  kShedding = 2,  // no engine capacity: reject every new query
};

const char* service_health_name(ServiceHealth h) noexcept;

/// Engine slot lifecycle. kRetired is terminal and typed into
/// ServiceReport — the service never routes to a retired slot again.
enum class EngineState : uint8_t {
  kIdle = 0,         // warm, waiting for a query
  kBusy = 1,         // running a query
  kQuarantined = 2,  // pulled from service, awaiting rebuild
  kRebuilding = 3,   // rebuilder owns it: fresh engine + probe query
  kRetired = 4,      // failed too many probes; permanently out
};

const char* engine_state_name(EngineState s) noexcept;

/// Why the supervisor killed a slot's running query (recorded on the slot
/// between the interrupt and the dispatcher observing the thrown abort).
enum class KillReason : uint8_t {
  kNone = 0,
  kWedge = 1,  // busy with a frozen pulse beyond wedge_ms
};

/// Per-tenant circuit-breaker state (classic three-state machine).
enum class BreakerState : uint8_t {
  kClosed = 0,    // tenant serving normally
  kOpen = 1,      // tenant quarantined: submits rejected kTenantQuarantined
  kHalfOpen = 2,  // cooldown elapsed: trial queries probe the tenant
};

const char* breaker_state_name(BreakerState s) noexcept;

/// Per-tenant bulkhead knobs. Defaults are single-tenant-transparent: with
/// one graph and shares of 1.0 the service behaves exactly as before the
/// catalog existed.
struct TenantPolicy {
  /// Each tenant may occupy at most floor(queue_share * max_queue_depth)
  /// admission-queue slots (>= 1); beyond that ITS submits shed
  /// kOverloaded while other tenants keep queueing.
  double queue_share = 1.0;
  /// Each tenant may hold at most floor(engine_share * num_engines) engine
  /// slots (>= 1) — busy slots running its queries plus quarantined/
  /// rebuilding slots its queries poisoned. A wedging tenant can never
  /// take down more than its share of the fleet.
  double engine_share = 1.0;
  /// Circuit breaker: after `breaker_open_after` consecutive engine
  /// failures (wedge kills or errors) the tenant's breaker opens — its
  /// queued queries are swept and new submits reject typed
  /// kTenantQuarantined until `breaker_cooldown_ms` elapses, then the
  /// breaker half-opens and trial queries decide (success closes, failure
  /// reopens). 0 disables the breaker.
  uint32_t breaker_open_after = 3;
  double breaker_cooldown_ms = 250.0;
  /// Residency bound handed to the GraphCatalog (0 = unbounded).
  size_t catalog_graphs = 8;
  /// Per-fingerprint result-cache entry cap (tenant-fair eviction; 0 =
  /// uncapped, any tenant may fill the whole cache).
  size_t cache_entries_per_tenant = 0;
};

/// The kClosed -> kOpen -> kHalfOpen breaker, pure policy like
/// HealthGovernor: no threads, no clock reads — the owner feeds timestamps.
class TenantBreaker {
 public:
  TenantBreaker(uint32_t open_after, double cooldown_ms) noexcept
      : open_after_(open_after), cooldown_ms_(cooldown_ms) {}

  BreakerState state() const noexcept { return state_; }
  uint32_t consecutive_failures() const noexcept { return failures_; }
  uint64_t opens() const noexcept { return opens_; }
  bool enabled() const noexcept { return open_after_ > 0; }

  /// Admission decision for one query at `now_ms`. An open breaker whose
  /// cooldown elapsed transitions to half-open here (lazily — no timer
  /// thread) and admits the query as a trial.
  enum class Admit : uint8_t { kAllow, kTrial, kReject };
  Admit admit(double now_ms) noexcept {
    if (!enabled() || state_ == BreakerState::kClosed) return Admit::kAllow;
    if (state_ == BreakerState::kOpen) {
      if (now_ms - open_since_ms_ < cooldown_ms_) return Admit::kReject;
      state_ = BreakerState::kHalfOpen;
    }
    return Admit::kTrial;
  }

  /// One engine failure (wedge kill or error) attributed to this tenant.
  /// Returns true when this failure OPENED the breaker (the caller sweeps
  /// the tenant's backlog and records the event). A half-open trial
  /// failure reopens immediately — one bad probe is proof enough.
  bool on_failure(double now_ms) noexcept {
    ++failures_;
    if (!enabled() || state_ == BreakerState::kOpen) return false;
    if (state_ == BreakerState::kHalfOpen || failures_ >= open_after_) {
      state_ = BreakerState::kOpen;
      open_since_ms_ = now_ms;
      ++opens_;
      return true;
    }
    return false;
  }

  /// One engine success for this tenant. Returns true when it CLOSED a
  /// half-open breaker (recovery proven end to end).
  bool on_success() noexcept {
    failures_ = 0;
    if (state_ != BreakerState::kHalfOpen) return false;
    state_ = BreakerState::kClosed;
    return true;
  }

 private:
  uint32_t open_after_;
  double cooldown_ms_;
  BreakerState state_ = BreakerState::kClosed;
  uint32_t failures_ = 0;
  double open_since_ms_ = 0.0;
  uint64_t opens_ = 0;
};

struct SupervisorConfig {
  /// Master switch. Off = PR4 behavior: no supervisor thread, no health
  /// machine, engines are never quarantined.
  bool enabled = true;
  /// Supervisor sweep cadence.
  double tick_ms = 2.0;
  /// A busy engine whose beacon pulse has not advanced for this long is
  /// declared wedged and its query killed. Must comfortably exceed the
  /// engine's own 250ms in-run wedge bound so the engine gets first try
  /// at failing fast itself.
  double wedge_ms = 500.0;
  /// Consecutive non-deadline engine errors (without a supervisor kill)
  /// that quarantine a slot — a poisoned engine that *returns* errors
  /// instead of wedging.
  uint32_t quarantine_after_errors = 2;
  /// Probe queries a rebuilt engine may fail consecutively before the slot
  /// is permanently retired.
  uint32_t max_probe_failures = 3;
  /// Deadline for each post-rebuild probe query.
  double probe_deadline_ms = 1000.0;
  /// Queue load (depth / max_depth) at which brownout engages, and the
  /// lower watermark it must drain to before recovery (hysteresis).
  double brownout_enter_load = 0.75;
  double brownout_exit_load = 0.50;
  /// p99 latency that engages brownout; 0 disables the latency signal.
  double brownout_p99_ms = 0.0;
  /// In brownout, per-query deadlines are clamped to at most this budget;
  /// 0 disables clamping.
  double brownout_deadline_clamp_ms = 0.0;
  /// After set_graph, entries of the *previous* fingerprint stay servable
  /// to brownout-mode queries for this long; 0 keeps the PR4 behavior
  /// (invalidate everything immediately).
  double stale_serve_ms = 0.0;
  /// Flight-recorder ring capacity (events).
  size_t flight_recorder_events = 4096;
};

/// Inputs to one HealthGovernor::update() decision.
struct HealthSignals {
  double load = 0.0;  // waiting / max_queue_depth
  uint32_t engines_available = 0;  // kIdle + kBusy
  uint32_t engines_in_fleet = 0;   // all non-retired slots
  double p99_ms = 0.0;             // recent completed-query p99
};

/// The kHealthy -> kBrownout -> kShedding state machine. Pure policy: no
/// threads, no clock — feed it signals, read the band.
///
///            load >= enter  OR  engine down  OR  p99 over
///   kHealthy ────────────────────────────────────────────▶ kBrownout
///            ◀────────────────────────────────────────────
///            load <= exit  AND  full fleet  AND  p99 ok
///
///            available == 0                 available > 0
///   (any) ────────────────▶ kShedding ────────────────────▶ kBrownout
///
/// Shedding always re-enters through brownout: capacity just came back
/// from zero, the backlog drains before the service claims healthy.
class HealthGovernor {
 public:
  explicit HealthGovernor(const SupervisorConfig& cfg) : cfg_(cfg) {}

  ServiceHealth state() const noexcept { return state_; }
  uint64_t transitions() const noexcept { return transitions_; }

  /// Applies one signal snapshot; returns true when the band changed.
  bool update(const HealthSignals& s) noexcept;

 private:
  SupervisorConfig cfg_;
  ServiceHealth state_ = ServiceHealth::kHealthy;
  uint64_t transitions_ = 0;
};

/// Per-engine supervision board entry. Owned by the service, mutated under
/// its mutex except for `beacon`, which the engine's manager thread writes
/// lock-free while a solve runs.
struct EngineSupervision {
  ProgressBeacon beacon;
  EngineState state = EngineState::kIdle;
  KillReason kill_reason = KillReason::kNone;
  uint64_t active_query = 0;   // query id while kBusy
  double busy_since_ms = 0.0;  // uptime timestamp of the dispatch
  double last_pulse_ms = 0.0;  // uptime timestamp of the last pulse change
  uint64_t pulse_seen = 0;     // beacon.pulse value behind last_pulse_ms
  uint32_t consecutive_errors = 0;
  uint32_t probe_failures = 0;
  uint64_t queries = 0;      // queries dispatched to this slot
  uint64_t kills = 0;        // supervisor interrupts delivered
  uint64_t quarantines = 0;  // times pulled from service
  uint64_t rebuilds = 0;     // engine reconstructions completed
  // --- tenancy (all under the service mutex) -------------------------------
  /// Fingerprint of the query the slot is running (valid while kBusy);
  /// counts toward that tenant's engine occupancy.
  uint64_t active_fp = 0;
  /// Blast-radius attribution: the tenant whose query poisoned this slot,
  /// set at quarantine and cleared when the rebuilt slot returns to
  /// service. A quarantined/rebuilding slot counts as UNAVAILABLE only in
  /// the offending tenant's availability view — every other tenant still
  /// sees it as capacity coming back, so one tenant's wedge cannot brown
  /// the others out.
  uint64_t fault_fp = 0;
  /// Keyed engine binding: the tenant this warm engine last solved for.
  /// Binding is affinity metadata plus a snapshot reference (bound_graph
  /// in the service keeps the graph alive for the catalog's lifetime
  /// contract); rebinding is cheap — the next solve's WorkQueue::reset
  /// rewinds the warm queue for the new graph.
  uint64_t bound_fp = 0;
  uint64_t rebinds = 0;  // times the slot switched tenants
};

/// Wedge policy, factored out of the supervisor thread so it is testable
/// with a hand-rolled beacon. Reads the slot's beacon, refreshes the
/// pulse bookkeeping, and returns true when a kBusy slot has gone
/// `wedge_ms` with no pulse. Call only on busy slots.
bool beacon_wedged(EngineSupervision& slot, double now_ms,
                   double wedge_ms) noexcept;

// ---------------------------------------------------------------------------
// Flight-recorder vocabulary
// ---------------------------------------------------------------------------

/// Service event kinds for FlightEvent::kind. Payload conventions:
/// `engine` = slot index (kNoEngine for service-wide events), `b` = query
/// id or graph fingerprint, `a`/`c` = per-kind small payloads documented
/// at each enumerator.
enum class FlightKind : uint16_t {
  kQueryAdmit = 1,      // a=source, b=query id
  kQueryCacheHit = 2,   // a=source, b=query id, c=1 when dequeue-time twin
  kQueryStaleHit = 3,   // a=source, b=query id (brownout stale serve)
  kQueryShed = 4,       // a=source, b=query id (admission or drain shed)
  kQueryDone = 5,       // a=source, b=query id, c=latency us
  kQueryFailed = 6,     // a=source, b=query id
  kQueryDeadline = 7,   // a=source, b=query id
  kQueryCancelled = 8,  // a=source, b=query id
  kEngineWedged = 9,       // a=pulse-age ms, b=query id
  kEngineQuarantined = 10, // a=consecutive errors, b=query id
  kEngineRebuilt = 11,     // a=rebuild count
  kEngineRecovered = 12,   // a=probe failures cleared
  kEngineProbeFailed = 13, // a=probe failure count
  kEngineRetired = 14,     // a=probe failure count (terminal)
  kHealthTransition = 15,  // a=(from<<8)|to, c=available engines
  kGraphSwap = 16,         // b=new fingerprint, c=stale window ms
  kStaleWindowExpired = 17,  // b=purged fingerprint, a=entries dropped
  kFaultObserved = 18,     // a=fault fires seen during the query, b=query id
  kShutdownDrain = 19,     // a=queries swept to kShutdown at teardown
  // --- tenancy (PR6) ---------------------------------------------------
  kGraphPublished = 20,    // b=fingerprint, a=residents after, c=pinned
  kGraphRetired = 21,      // b=fingerprint, a=cache entries dropped
  kGraphEvicted = 22,      // b=fingerprint, a=cache entries dropped
  kBreakerOpen = 23,       // b=fingerprint, a=consecutive failures
  kBreakerHalfOpen = 24,   // b=fingerprint
  kBreakerClosed = 25,     // b=fingerprint
  kQueryQuarantined = 26,  // a=source, b=query id (open-breaker reject)
  kTenantShed = 27,        // a=source, b=query id (per-tenant quota shed)
  kTenantHealth = 28,      // b=fingerprint, a=(from<<8)|to
  kEngineRebound = 29,     // engine=slot, b=new bound fingerprint
  kUnknownGraph = 30,      // a=source, b=query id (non-resident fp)
  // --- live graph deltas (PR8) -----------------------------------------
  kDeltaPublished = 31,    // b=child fingerprint, a=repairs scheduled,
                           // c=classified changes (decr+incr+insert)
  kRepairStart = 32,       // b=child fingerprint, a=source
  kRepairDone = 33,        // b=child fingerprint, a=source, c=latency us
  kRepairFallback = 34,    // b=child fingerprint, a=source (cold re-solve)
  // --- landmark distance oracle (PR9) ----------------------------------
  kTableBuildStart = 35,   // b=fingerprint, a=1 when warm repair
  kTableBuilt = 36,        // b=fingerprint, a=landmarks, c=build ms
  kTableRepaired = 37,     // b=child fingerprint, a=landmarks, c=build ms
  kTableRebuildFallback = 38,  // b=child fingerprint (repair -> cold build)
  kTableBuildFailed = 39,  // b=fingerprint, a=1 when unsupported (asym)
  kOracleServe = 40,       // a=source, b=query id, c=P2pServe class
  kStateSaved = 41,        // a=graphs saved, b=bytes written, c=tables+cache
  kStateLoaded = 42,       // a=graphs restored, b=sections read, c=tables+cache
  kStateCorrupt = 43,      // a=corrupt sections, b=StoreErrorKind+1 (0 = none)
  kColdRebuild = 44,       // b=fingerprint whose artifact went cold, a=what
  kTableDropped = 45,      // b=fingerprint, a=1 when the build had started
                           // (generation left the catalog or service
                           // stopped: no table, terminal)
};

const char* flight_kind_name(FlightKind k) noexcept;

/// Renders one dumped event as a single human-readable line (no trailing
/// newline): "#42 +12.345ms engine 1 engine-wedged q=17 ...".
std::string format_flight_event(const StampedFlightEvent& e);

}  // namespace adds
