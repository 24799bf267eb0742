#include "service/supervisor.hpp"

#include <cstdio>

namespace adds {

const char* service_health_name(ServiceHealth h) noexcept {
  switch (h) {
    case ServiceHealth::kHealthy: return "healthy";
    case ServiceHealth::kBrownout: return "brownout";
    case ServiceHealth::kShedding: return "shedding";
  }
  return "?";
}

const char* engine_state_name(EngineState s) noexcept {
  switch (s) {
    case EngineState::kIdle: return "idle";
    case EngineState::kBusy: return "busy";
    case EngineState::kQuarantined: return "quarantined";
    case EngineState::kRebuilding: return "rebuilding";
    case EngineState::kRetired: return "retired";
  }
  return "?";
}

const char* breaker_state_name(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

bool HealthGovernor::update(const HealthSignals& s) noexcept {
  ServiceHealth next;
  const bool fleet_degraded = s.engines_available < s.engines_in_fleet;
  const bool p99_over = cfg_.brownout_p99_ms > 0.0 &&
                        s.p99_ms > cfg_.brownout_p99_ms;
  if (s.engines_available == 0) {
    next = ServiceHealth::kShedding;
  } else if (state_ == ServiceHealth::kShedding) {
    // Capacity just returned: always pass through brownout so the backlog
    // drains under degraded rules before the service claims healthy.
    next = ServiceHealth::kBrownout;
  } else if (fleet_degraded || p99_over || s.load >= cfg_.brownout_enter_load) {
    next = ServiceHealth::kBrownout;
  } else if (state_ == ServiceHealth::kBrownout &&
             s.load > cfg_.brownout_exit_load) {
    next = ServiceHealth::kBrownout;  // hysteresis: hold until drained
  } else {
    next = ServiceHealth::kHealthy;
  }
  if (next == state_) return false;
  state_ = next;
  ++transitions_;
  return true;
}

bool beacon_wedged(EngineSupervision& slot, double now_ms,
                   double wedge_ms) noexcept {
  const uint64_t pulse = slot.beacon.pulse.load(std::memory_order_relaxed);
  if (pulse != slot.pulse_seen) {
    slot.pulse_seen = pulse;
    slot.last_pulse_ms = now_ms;
    return false;
  }
  // No pulse since the last look. The reference point is the later of
  // "went busy" and "last pulse" so a slot that was dispatched moments ago
  // is not judged by a stale timestamp from its previous query.
  const double quiet_since =
      slot.last_pulse_ms > slot.busy_since_ms ? slot.last_pulse_ms
                                              : slot.busy_since_ms;
  return now_ms - quiet_since > wedge_ms;
}

const char* flight_kind_name(FlightKind k) noexcept {
  switch (k) {
    case FlightKind::kQueryAdmit: return "query-admit";
    case FlightKind::kQueryCacheHit: return "query-cache-hit";
    case FlightKind::kQueryStaleHit: return "query-stale-hit";
    case FlightKind::kQueryShed: return "query-shed";
    case FlightKind::kQueryDone: return "query-done";
    case FlightKind::kQueryFailed: return "query-failed";
    case FlightKind::kQueryDeadline: return "query-deadline";
    case FlightKind::kQueryCancelled: return "query-cancelled";
    case FlightKind::kEngineWedged: return "engine-wedged";
    case FlightKind::kEngineQuarantined: return "engine-quarantined";
    case FlightKind::kEngineRebuilt: return "engine-rebuilt";
    case FlightKind::kEngineRecovered: return "engine-recovered";
    case FlightKind::kEngineProbeFailed: return "engine-probe-failed";
    case FlightKind::kEngineRetired: return "engine-retired";
    case FlightKind::kHealthTransition: return "health-transition";
    case FlightKind::kGraphSwap: return "graph-swap";
    case FlightKind::kStaleWindowExpired: return "stale-window-expired";
    case FlightKind::kFaultObserved: return "fault-observed";
    case FlightKind::kShutdownDrain: return "shutdown-drain";
    case FlightKind::kGraphPublished: return "graph-published";
    case FlightKind::kGraphRetired: return "graph-retired";
    case FlightKind::kGraphEvicted: return "graph-evicted";
    case FlightKind::kBreakerOpen: return "breaker-open";
    case FlightKind::kBreakerHalfOpen: return "breaker-half-open";
    case FlightKind::kBreakerClosed: return "breaker-closed";
    case FlightKind::kQueryQuarantined: return "query-quarantined";
    case FlightKind::kTenantShed: return "tenant-shed";
    case FlightKind::kTenantHealth: return "tenant-health";
    case FlightKind::kEngineRebound: return "engine-rebound";
    case FlightKind::kUnknownGraph: return "unknown-graph";
    case FlightKind::kDeltaPublished: return "delta-published";
    case FlightKind::kRepairStart: return "repair-start";
    case FlightKind::kRepairDone: return "repair-done";
    case FlightKind::kRepairFallback: return "repair-fallback";
    case FlightKind::kTableBuildStart: return "table-build-start";
    case FlightKind::kTableBuilt: return "table-built";
    case FlightKind::kTableRepaired: return "table-repaired";
    case FlightKind::kTableRebuildFallback: return "table-rebuild-fallback";
    case FlightKind::kTableBuildFailed: return "table-build-failed";
    case FlightKind::kTableDropped: return "table-dropped";
    case FlightKind::kOracleServe: return "oracle-serve";
    case FlightKind::kStateSaved: return "state-saved";
    case FlightKind::kStateLoaded: return "state-loaded";
    case FlightKind::kStateCorrupt: return "state-corrupt";
    case FlightKind::kColdRebuild: return "cold-rebuild";
  }
  return "?";
}

std::string format_flight_event(const StampedFlightEvent& e) {
  char buf[192];
  const FlightKind kind = FlightKind(e.ev.kind);
  int n = std::snprintf(buf, sizeof(buf), "#%llu +%.3fms ",
                        (unsigned long long)e.seq, double(e.ev.t_ms));
  if (e.ev.engine != FlightEvent::kNoEngine)
    n += std::snprintf(buf + n, sizeof(buf) - size_t(n), "engine %u ",
                       unsigned(e.ev.engine));
  switch (kind) {
    case FlightKind::kHealthTransition:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "health %s -> %s (available=%u)",
                    service_health_name(ServiceHealth(e.ev.a >> 8)),
                    service_health_name(ServiceHealth(e.ev.a & 0xff)),
                    e.ev.c);
      break;
    case FlightKind::kGraphSwap:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "graph-swap fp=%016llx stale-window=%ums",
                    (unsigned long long)e.ev.b, e.ev.c);
      break;
    case FlightKind::kStaleWindowExpired:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "stale-window-expired fp=%016llx dropped=%u",
                    (unsigned long long)e.ev.b, e.ev.a);
      break;
    case FlightKind::kQueryDone:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "query-done q=%llu source=%u latency=%.3fms",
                    (unsigned long long)e.ev.b, e.ev.a,
                    double(e.ev.c) / 1000.0);
      break;
    case FlightKind::kEngineWedged:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "engine-wedged q=%llu pulse-age=%ums",
                    (unsigned long long)e.ev.b, e.ev.a);
      break;
    case FlightKind::kGraphPublished:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "graph-published fp=%016llx residents=%u pinned=%u",
                    (unsigned long long)e.ev.b, e.ev.a, e.ev.c);
      break;
    case FlightKind::kGraphRetired:
    case FlightKind::kGraphEvicted:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "%s fp=%016llx cache-dropped=%u",
                    flight_kind_name(kind), (unsigned long long)e.ev.b,
                    e.ev.a);
      break;
    case FlightKind::kBreakerOpen:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "breaker-open fp=%016llx failures=%u",
                    (unsigned long long)e.ev.b, e.ev.a);
      break;
    case FlightKind::kBreakerHalfOpen:
    case FlightKind::kBreakerClosed:
      std::snprintf(buf + n, sizeof(buf) - size_t(n), "%s fp=%016llx",
                    flight_kind_name(kind), (unsigned long long)e.ev.b);
      break;
    case FlightKind::kTenantHealth:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "tenant-health fp=%016llx %s -> %s",
                    (unsigned long long)e.ev.b,
                    service_health_name(ServiceHealth(e.ev.a >> 8)),
                    service_health_name(ServiceHealth(e.ev.a & 0xff)));
      break;
    case FlightKind::kEngineRebound:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "engine-rebound fp=%016llx", (unsigned long long)e.ev.b);
      break;
    case FlightKind::kDeltaPublished:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "delta-published child=%016llx repairs=%u changes=%u",
                    (unsigned long long)e.ev.b, e.ev.a, e.ev.c);
      break;
    case FlightKind::kRepairStart:
    case FlightKind::kRepairDone:
    case FlightKind::kRepairFallback:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "%s child=%016llx source=%u", flight_kind_name(kind),
                    (unsigned long long)e.ev.b, e.ev.a);
      break;
    case FlightKind::kTableBuilt:
    case FlightKind::kTableRepaired:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "%s fp=%016llx landmarks=%u build=%ums",
                    flight_kind_name(kind), (unsigned long long)e.ev.b,
                    e.ev.a, e.ev.c);
      break;
    case FlightKind::kTableBuildStart:
    case FlightKind::kTableRebuildFallback:
    case FlightKind::kTableBuildFailed:
    case FlightKind::kTableDropped:
      std::snprintf(buf + n, sizeof(buf) - size_t(n), "%s fp=%016llx a=%u",
                    flight_kind_name(kind), (unsigned long long)e.ev.b,
                    e.ev.a);
      break;
    case FlightKind::kOracleServe:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "oracle-serve q=%llu source=%u serve=%u",
                    (unsigned long long)e.ev.b, e.ev.a, e.ev.c);
      break;
    case FlightKind::kStateSaved:
    case FlightKind::kStateLoaded:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "%s graphs=%u tables+cache=%u b=%llu",
                    flight_kind_name(kind), e.ev.a, e.ev.c,
                    (unsigned long long)e.ev.b);
      break;
    case FlightKind::kStateCorrupt:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "state-corrupt sections=%u error-kind=%llu", e.ev.a,
                    (unsigned long long)e.ev.b);
      break;
    case FlightKind::kColdRebuild:
      std::snprintf(buf + n, sizeof(buf) - size_t(n),
                    "cold-rebuild fp=%016llx what=%u",
                    (unsigned long long)e.ev.b, e.ev.a);
      break;
    default:
      std::snprintf(buf + n, sizeof(buf) - size_t(n), "%s a=%u c=%u b=%llu",
                    flight_kind_name(kind), e.ev.a, e.ev.c,
                    (unsigned long long)e.ev.b);
      break;
  }
  return std::string(buf);
}

}  // namespace adds
