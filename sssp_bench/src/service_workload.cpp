// The `service` workload: one client thread drives an SsspService as a
// closed loop with kOutstanding queries in flight (it waits on the oldest,
// then submits the next). The service holds one ~200x200 road tenant and
// runs 2 engines x 1 worker. Traffic:
//   * full-tree queries from a Zipf-skewed source pool (cache hits and
//     coalesced solve_batch dispatch);
//   * kP2pShare point-to-point queries (the landmark oracle);
//   * every kDeltaEvery submits, a small symmetric apply_delta: the writes
//     beside the reads, which trigger warm repairs, table repairs and stale
//     serves.
//
// Every answer is checked against the generation it claims, off the clock:
// the client hashes each full tree as it arrives and logs each point answer;
// after the loop the oracle replays the deltas on its own copy of the graph
// and compares every logged answer with its own Dijkstra on that
// generation. Delta settle times come from the flight recorder, which the
// client drains as it goes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "oracle.hpp"
#include "service/sssp_service.hpp"
#include "sssp/cpu_delta_stepping.hpp"

namespace bench {
namespace {

using adds::FlightKind;
using adds::P2pServe;
using adds::QueryOutcome;
using adds::QueryStatus;
using adds::VertexId;
using W = uint32_t;

constexpr uint32_t kSide = 200;           // road tenant: kSide x kSide grid
constexpr uint32_t kOutstanding = 4;      // closed-loop window
constexpr uint32_t kPoolSize = 256;       // Zipf source pool
constexpr double kZipfExponent = 1.0;
constexpr double kP2pShare = 0.4;
constexpr uint64_t kDeltaEvery = 300;     // submits between deltas
constexpr uint32_t kDeltaEdges = 4;       // undirected edges per delta
constexpr uint32_t kMaxWeight = 10000;    // generator's default weight range
constexpr double kWarmupMs = 1000.0;      // untimed traffic before the clock
constexpr uint32_t kCpuDsPerDelta = 8;    // cpu-ds solves timed per delta
constexpr uint64_t kDrainEvery = 64;      // completions between flight drains

struct Query {
  std::future<QueryOutcome<W>> fut;
  bool p2p = false;
  VertexId source = 0, target = 0;
  uint32_t submit_gen = 0;
  bool timed = false;
  int64_t span = -1;
};

/// Checks every service answer against the generation it claims, with
/// the oracle's own copy of each generation (the base graph plus the
/// client's deltas, applied by the oracle's code).
///
/// A full tree is certified the first time its (generation, source, label
/// hash) is seen; later answers with the same hash are the same tree. A
/// point answer is checked against a certified tree of its (generation,
/// source) when one arrives within two generations, else against the
/// oracle's Dijkstra after the loop. The hottest source's tree is also
/// compared with Dijkstra bit for bit on every generation.
class GenerationChecker {
 public:
  GenerationChecker(const RefGraph& base, VertexId spot_source)
      : graph_(base), weights_{base.weights}, spot_source_(spot_source) {}

  uint32_t generations() const { return uint32_t(weights_.size()); }
  uint64_t certified() const { return certified_; }
  uint64_t dijkstra_runs() const { return dijkstra_runs_; }

  /// Generation `generations()` = the last one with `changes` applied.
  /// Returns "" or why a change does not apply.
  std::string add_generation(const std::vector<adds::EdgeChange<W>>& c) {
    load(generations() - 1);
    loaded_ = kNoGeneration;  // graph_ now holds a generation in the making
    for (const auto& e : c)
      if (!graph_.set_weight(e.src, e.dst, e.weight))
        return "delta names a missing edge";
    weights_.push_back(graph_.weights);
    const uint32_t now = generations() - 1;
    loaded_ = now;
    // Point answers two generations old have seen every tree they will.
    resolve_pending(now >= 2 ? now - 2 : 0, false);
    for (auto it = trees_.begin(); it != trees_.end();)
      it = it->first.first + 2 < now ? trees_.erase(it) : std::next(it);
    return "";
  }

  /// A full tree claimed for (gen, source); sets *reached.
  std::string tree(uint32_t gen, VertexId source,
                   const std::shared_ptr<const adds::SsspResult<W>>& r,
                   uint64_t* reached) {
    const uint64_t h = hash_labels(r->dist, reached);
    if (source == spot_source_) spot_hashes_.push_back({gen, h});
    const auto key = std::make_pair(gen, source);
    const auto it = trees_.find(key);
    if (it != trees_.end() && it->second.hash == h) return "";
    load(gen);
    const std::string err = certify(graph_, source, r->dist);
    ++certified_;
    if (!err.empty())
      return "tree from " + std::to_string(source) + " on generation " +
             std::to_string(gen) + ": " + err;
    trees_[key] = {h, r};
    return "";
  }

  /// A point answer claimed for (gen, source, target).
  void point(uint32_t gen, VertexId s, VertexId t, bool reachable,
             uint64_t d) {
    pending_.push_back({gen, s, t, reachable ? d : kUnreached});
  }

  /// After the loop: every pending point answer and every spot check.
  std::string finish() {
    resolve_pending(generations(), true);
    std::string err = first_error_;
    std::sort(spot_hashes_.begin(), spot_hashes_.end());
    for (size_t i = 0; i < spot_hashes_.size(); ++i) {
      const uint32_t gen = spot_hashes_[i].first;
      if (i > 0 && spot_hashes_[i - 1].first == gen) continue;
      load(gen);
      ++dijkstra_runs_;
      uint64_t reached = 0;
      const uint64_t want =
          hash_labels(dijkstra(graph_, spot_source_), &reached);
      for (size_t j = i; j < spot_hashes_.size() &&
                         spot_hashes_[j].first == gen;
           ++j)
        if (spot_hashes_[j].second != want && err.empty())
          err = "tree from " + std::to_string(spot_source_) +
                " differs from Dijkstra on generation " +
                std::to_string(gen);
    }
    return err;
  }

 private:
  struct Tree {
    uint64_t hash;
    std::shared_ptr<const adds::SsspResult<W>> result;
  };
  struct Point {
    uint32_t gen;
    VertexId source, target;
    uint64_t dist;
  };

  static uint64_t hash_labels(const std::vector<uint64_t>& d,
                              uint64_t* reached) {
    uint64_t h = 0xcbf29ce484222325ull, n = 0;
    for (const uint64_t x : d) {
      h = (h ^ x) * 0x100000001b3ull;
      h ^= h >> 29;
      n += x != kUnreached;
    }
    *reached = n;
    return h;
  }

  void load(uint32_t gen) {
    if (loaded_ != gen) graph_.weights = weights_[gen];
    loaded_ = gen;
  }

  void fail(const std::string& why) {
    if (first_error_.empty()) first_error_ = why;
  }

  /// Checks pending point answers of generations < `below` against a
  /// certified tree; with `use_dijkstra`, the rest against Dijkstra.
  void resolve_pending(uint32_t below, bool use_dijkstra) {
    std::vector<Point> keep, rest;
    for (const Point& p : pending_) {
      if (p.gen >= below) {
        keep.push_back(p);
        continue;
      }
      const auto it = trees_.find({p.gen, p.source});
      if (it == trees_.end()) {
        rest.push_back(p);
        continue;
      }
      check_point(p, it->second.result->dist[p.target]);
    }
    if (use_dijkstra) {
      std::sort(rest.begin(), rest.end(), [](const Point& a, const Point& b) {
        return std::tie(a.gen, a.source) < std::tie(b.gen, b.source);
      });
      std::vector<uint64_t> truth;
      for (size_t i = 0; i < rest.size(); ++i) {
        if (i == 0 || rest[i].gen != rest[i - 1].gen ||
            rest[i].source != rest[i - 1].source) {
          load(rest[i].gen);
          truth = dijkstra(graph_, rest[i].source);
          ++dijkstra_runs_;
        }
        check_point(rest[i], truth[rest[i].target]);
      }
      rest.clear();
    }
    for (const Point& p : rest) keep.push_back(p);
    pending_ = std::move(keep);
    // Generations the loop has left behind fall to Dijkstra at finish();
    // until then their answers wait here.
  }

  void check_point(const Point& p, uint64_t want) {
    if (p.dist != want)
      fail("point answer " + std::to_string(p.source) + "->" +
           std::to_string(p.target) + " on generation " +
           std::to_string(p.gen) + ": got " + std::to_string(p.dist) +
           ", exact " + std::to_string(want));
  }

  static constexpr uint32_t kNoGeneration = UINT32_MAX;

  RefGraph graph_;  // topology, with the weights of generation `loaded_`
  std::vector<std::vector<uint32_t>> weights_;  // per generation
  uint32_t loaded_ = 0;
  VertexId spot_source_;
  std::map<std::pair<uint32_t, VertexId>, Tree> trees_;
  std::vector<Point> pending_;
  std::vector<std::pair<uint32_t, uint64_t>> spot_hashes_;
  uint64_t certified_ = 0, dijkstra_runs_ = 0;
  std::string first_error_;
};

struct DeltaRecord {
  uint64_t child_fp = 0;
  uint32_t repairs = 0;
  double call_uptime_ms = 0.0;  // apply_delta call start, service clock
  double apply_ms = 0.0;
  bool timed = false;
};

StatusCounts counts_of(const adds::ServiceReport& r) {
  StatusCounts c;
  c.submitted = r.submitted;
  c.completed = r.completed;
  c.failed = r.failed;
  c.shed = r.shed;
  c.cancelled = r.cancelled;
  c.deadline_expired = r.deadline_expired;
  c.unknown_graph = r.unknown_graph;
  c.tenant_quarantined = r.tenant_quarantined;
  return c;
}

}  // namespace

RunResult run_service_workload(const RunConfig& cfg) {
  RunResult out;
  Tracer tr(cfg.trace, cfg.process_start);

  // ---- set-up: graph, service, set_graph, landmark table READY ----------
  auto t0 = Clock::now();
  adds::GraphSpec spec;
  spec.name = "grid_200x200";
  spec.family = adds::GraphFamily::kGridRoad;
  spec.scale = kSide;
  spec.a = kSide;
  spec.seed = 3;
  const adds::CsrGraph<W> g = adds::generate_graph<W>(spec);
  const auto t_graph = Clock::now();
  adds::ServiceConfig sc;
  sc.num_engines = 2;
  sc.engine.num_workers = 1;
  sc.supervisor.flight_recorder_events = 1u << 16;
  auto svc = std::make_unique<adds::SsspService<W>>(sc);
  const auto t_svc = Clock::now();
  const uint64_t base_fp = svc->set_graph(g);
  const auto t_set = Clock::now();
  while (svc->report().landmark_tables == 0) {
    if (ms_since(t_set) > 30e3) {
      out.fail("landmark table never became ready");
      return out;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto t_ready = Clock::now();
  const double setup_s = ms_between(cfg.process_start, t_ready) / 1e3;
  tr.add("graph.build", t0, t_graph);
  tr.add("sssp.engine_start", t_graph, t_svc);
  tr.add("service.set_graph", t_svc, t_set);
  tr.add("landmark.ready_wait", t_set, t_ready);

  // Service uptime clock -> this process's clock (flight events carry the
  // former). One report() brackets the offset to within its own duration.
  const auto r0 = Clock::now();
  const double uptime0 = svc->report().uptime_ms;
  const double uptime_offset = ms_between(cfg.process_start, r0) - uptime0;
  const auto to_uptime = [&](Clock::time_point t) {
    return ms_between(cfg.process_start, t) - uptime_offset;
  };

  // ---- traffic --------------------------------------------------------------
  Rng rng(cfg.seed);
  const uint32_t n = g.num_vertices();
  std::vector<VertexId> pool(kPoolSize);
  for (VertexId& v : pool) v = VertexId(rng.below(n));
  std::vector<double> zipf_cdf(kPoolSize);
  {
    double acc = 0.0;
    for (uint32_t i = 0; i < kPoolSize; ++i)
      zipf_cdf[i] = acc += 1.0 / std::pow(double(i + 1), kZipfExponent);
    for (double& c : zipf_cdf) c /= acc;
  }
  const auto zipf_source = [&] {
    const double u = rng.unit();
    const size_t i = size_t(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    return pool[std::min<size_t>(i, kPoolSize - 1)];
  };

  // Serial reference on the tenant's base graph, timed in the quiet
  // moments before each delta (see the loop).
  std::vector<double> cpuds_ms;
  const RefGraph base_ref = RefGraph::copy_of(g);
  const adds::CpuCostModel cpu{adds::CpuSpec::i9_7900x()};
  uint32_t cpuds_next = 0;
  const auto time_cpuds = [&] {
    for (uint32_t k = 0; k < kCpuDsPerDelta; ++k) {
      const VertexId src = pool[cpuds_next++ % kPoolSize];
      const auto c0 = Clock::now();
      const auto c = adds::cpu_delta_stepping(g, src, cpu);
      cpuds_ms.push_back(ms_since(c0));
      const std::string err = certify(base_ref, src, c.dist);
      if (!err.empty())
        out.fail("cpu-ds from " + std::to_string(src) + ": " + err);
    }
  };

  // Generations: 0 is the base graph, each delta adds the next one.
  std::unordered_map<uint64_t, uint32_t> gen_of{{base_fp, 0}};
  GenerationChecker checker(RefGraph::copy_of(g), pool[0]);
  uint32_t gen = 0;
  std::vector<DeltaRecord> deltas;
  std::vector<adds::StampedFlightEvent> events;
  bool seq_gap = false;
  const auto drain_flight = [&] {
    for (const auto& e : svc->flight_dump()) {
      if (!events.empty()) {
        if (e.seq <= events.back().seq) continue;
        if (e.seq != events.back().seq + 1) seq_gap = true;
      }
      events.push_back(e);
    }
  };
  drain_flight();

  // Timed-window samples.
  std::vector<double> full_ms, p2p_ms, engine_solve_ms, queue_ms, alt_ms;
  uint64_t full_answers = 0, stale_answers = 0;
  uint64_t p2p_exact = 0, p2p_alt = 0, p2p_fallback = 0;
  uint64_t engine_items = 0, engine_reached = 0;
  std::vector<double> full_traced, full_untraced;
  uint64_t submitted = 0, completed = 0, delta_at = 0;

  adds::ServiceReport rep_start;
  Clock::time_point loop_start;
  bool timing = false;
  const auto start = Clock::now();
  std::deque<Query> window;

  const auto apply_one_delta = [&](bool timed) {
    adds::GraphDelta<W> delta;
    while (delta.changes.size() < 2 * kDeltaEdges) {
      const VertexId u = VertexId(rng.below(n));
      const uint64_t deg = g.out_degree(u);
      if (deg == 0) continue;
      const VertexId v = g.edge_target(g.edge_begin(u) + rng.below(deg));
      const W w = W(1 + rng.below(kMaxWeight));
      delta.changes.push_back({u, v, w});
      delta.changes.push_back({v, u, w});
    }
    DeltaRecord rec;
    rec.timed = timed;
    const int64_t sp = timed && tr.enabled() ? tr.begin("service.apply_delta")
                                             : -1;
    const auto a0 = Clock::now();
    const adds::DeltaOutcome d = svc->apply_delta(0, delta);
    const auto a1 = Clock::now();
    tr.end(sp);
    rec.call_uptime_ms = to_uptime(a0);
    rec.apply_ms = ms_between(a0, a1);
    rec.child_fp = d.child_fp;
    rec.repairs = d.repairs_scheduled;
    if (d.unchanged) return;
    if (gen_of.count(d.child_fp) != 0) {
      out.fail("delta child fingerprint repeats an earlier generation");
      return;
    }
    gen_of[d.child_fp] = ++gen;
    const std::string err = checker.add_generation(delta.changes);
    if (!err.empty()) out.fail(err);
    deltas.push_back(rec);
    if (timed) ++out.attempted;
  };

  const auto submit_one = [&] {
    Query q;
    q.p2p = rng.unit() < kP2pShare;
    q.source = zipf_source();
    q.submit_gen = gen;
    q.timed = timing;
    adds::QueryOptions opt;
    if (q.p2p) {
      q.target = VertexId(rng.below(n));
      opt.target = q.target;
    }
    const bool traced = timing && tr.enabled() && (submitted / 500) % 2 == 0;
    q.span = traced ? tr.begin(q.p2p ? "service.p2p" : "service.full", -1,
                               submitted)
                    : -1;
    const auto s0 = Clock::now();
    q.fut = svc->submit(q.source, opt);
    if (traced) tr.add("service.submit", s0, Clock::now(), q.span, submitted);
    ++submitted;
    window.push_back(std::move(q));
  };

  const auto finish_one = [&] {
    Query q = std::move(window.front());
    window.pop_front();
    const QueryOutcome<W> o = q.fut.get();
    tr.end(q.span);
    ++completed;
    if (q.timed) ++out.attempted;
    if (o.status != QueryStatus::kOk) {
      if (q.timed) ++out.failed;
      out.fail(std::string("query ") + std::to_string(o.query_id) + ": " +
               adds::query_status_name(o.status) + " " + o.error);
      return;
    }
    const auto it = gen_of.find(o.graph_fp);
    if (it == gen_of.end()) {
      out.fail("answer claims an unknown graph fingerprint");
      return;
    }
    const uint32_t claimed = it->second;
    if (claimed > gen || (!o.stale && claimed < q.submit_gen) ||
        (o.stale && claimed >= q.submit_gen)) {
      out.fail("answer claims generation " + std::to_string(claimed) +
               " for a query submitted at " + std::to_string(q.submit_gen));
      return;
    }
    if (q.p2p) {
      const bool has_tree = o.p2p_serve == P2pServe::kEngineFallback;
      if (o.p2p_serve == P2pServe::kNone || (has_tree && !o.result)) {
        out.fail("point-to-point answer without a serve class");
        return;
      }
      checker.point(claimed, q.source, q.target, o.p2p_reachable,
                    uint64_t(o.p2p_distance));
      if (has_tree) {
        uint64_t reached = 0;
        const std::string err =
            checker.tree(claimed, q.source, o.result, &reached);
        if (!err.empty()) out.fail(err);
      }
      if (!q.timed) return;
      p2p_ms.push_back(o.latency_ms);
      if (o.p2p_serve == P2pServe::kOracleExact) ++p2p_exact;
      if (o.p2p_serve == P2pServe::kAltSearch) {
        ++p2p_alt;
        alt_ms.push_back(o.latency_ms);
      }
      if (has_tree) ++p2p_fallback;
      return;
    }
    if (!o.result) {
      out.fail("full answer without a tree");
      return;
    }
    uint64_t reached = 0;
    const std::string err = checker.tree(claimed, q.source, o.result, &reached);
    if (!err.empty()) out.fail(err);
    if (!q.timed) return;
    ++full_answers;
    full_ms.push_back(o.latency_ms);
    (q.span >= 0 ? full_traced : full_untraced).push_back(o.latency_ms);
    if (o.stale) ++stale_answers;
    if (!o.cache_hit) {
      engine_solve_ms.push_back(o.result->wall_ms);
      queue_ms.push_back(o.queue_ms);
      engine_items += o.result->work.items_processed;
      engine_reached += reached;
    }
  };

  Clock::time_point loop_end;
  while (true) {
    if (!timing && ms_since(start) >= kWarmupMs) {
      // Warm-up over: the clock starts with the window still full.
      timing = true;
      rep_start = svc->report();
      loop_start = Clock::now();
    }
    if (timing && ms_since(loop_start) >= cfg.seconds * 1e3) break;
    // Every kDeltaEvery submits the client lets its window drain, times
    // kCpuDsPerDelta serial cpu-ds solves in the quiet service (spread over
    // the whole run, so a drift of the host's speed averages out), then
    // applies a delta.
    const auto delta_due = [&] {
      return submitted > 0 && submitted % kDeltaEvery == 0 &&
             delta_at != submitted;
    };
    while (!delta_due() && window.size() < kOutstanding) submit_one();
    if (!window.empty()) {
      finish_one();
      if (completed % kDrainEvery == 0) drain_flight();
      continue;
    }
    if (timing) time_cpuds();
    apply_one_delta(timing);
    delta_at = submitted;
  }
  // The window's last queries count as attempted: drain them too.
  while (!window.empty()) finish_one();
  loop_end = Clock::now();
  const adds::ServiceReport rep_end = svc->report();
  const double loop_s = ms_between(loop_start, loop_end) / 1e3;

  // ---- delta settle times from flight events -------------------------------
  // A delta has settled when every repair it scheduled has a kRepairDone or
  // kRepairFallback event and its child's landmark table a terminal event.
  // A child that left the catalog first (the next delta retired it) has
  // its table task dropped without an event: it has no settle time.
  const auto kind_is = [](const adds::FlightEvent& e, FlightKind k) {
    return e.kind == uint16_t(k);
  };
  struct Settle {
    bool done = false, superseded = false;
    double settle_ms = 0.0, table_repair_ms = -1.0;
    std::vector<double> repair_us;
  };
  const auto settle_of = [&](const DeltaRecord& d,
                             const std::vector<const adds::FlightEvent*>& es) {
    Settle s;
    uint32_t repairs_done = 0;
    double last = d.call_uptime_ms, table_start = -1.0, table_done = -1.0;
    bool left = false;
    for (const adds::FlightEvent* e : es) {
      left |= kind_is(*e, FlightKind::kGraphRetired) ||
              kind_is(*e, FlightKind::kGraphEvicted);
      if (kind_is(*e, FlightKind::kRepairDone) ||
          kind_is(*e, FlightKind::kRepairFallback)) {
        ++repairs_done;
        last = std::max(last, double(e->t_ms));
        if (kind_is(*e, FlightKind::kRepairDone)) s.repair_us.push_back(e->c);
      }
      if (kind_is(*e, FlightKind::kTableBuildStart)) table_start = e->t_ms;
      if (kind_is(*e, FlightKind::kTableRepaired) ||
          kind_is(*e, FlightKind::kTableBuilt) ||
          kind_is(*e, FlightKind::kTableBuildFailed)) {
        table_done = e->t_ms;
        if (kind_is(*e, FlightKind::kTableRepaired) && table_start >= 0)
          s.table_repair_ms = table_done - table_start;
      }
    }
    if (repairs_done < d.repairs) return s;
    s.superseded = table_done < 0 && left;
    s.done = table_done >= 0 || s.superseded;
    s.settle_ms = std::max(last, table_done) - d.call_uptime_ms;
    return s;
  };
  std::vector<Settle> settles;
  std::map<uint64_t, std::vector<const adds::FlightEvent*>> by_fp;
  for (const auto wait0 = Clock::now();;) {
    drain_flight();
    by_fp.clear();
    for (const auto& e : events) by_fp[e.ev.b].push_back(&e.ev);
    settles.clear();
    bool all = true;
    for (const DeltaRecord& d : deltas) {
      settles.push_back(settle_of(d, by_fp[d.child_fp]));
      all = all && settles.back().done;
    }
    if (all) break;
    if (ms_since(wait0) > 20e3) {
      out.fail("a delta did not settle within 20 s of the loop's end");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (seq_gap) out.fail("flight recorder lapped the client's drain");
  const std::string sum = check_status_sum(submitted, counts_of(svc->report()));
  if (!sum.empty()) out.fail(sum);

  std::vector<double> settle_ms, repair_us, table_repair_ms, apply_ms;
  double repairs_total = 0.0;
  uint64_t timed_deltas = 0;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const Settle& s = settles[i];
    if (!deltas[i].timed || !s.done || s.superseded) continue;
    ++timed_deltas;
    settle_ms.push_back(s.settle_ms);
    apply_ms.push_back(deltas[i].apply_ms);
    repairs_total += deltas[i].repairs;
    repair_us.insert(repair_us.end(), s.repair_us.begin(), s.repair_us.end());
    if (s.table_repair_ms >= 0) table_repair_ms.push_back(s.table_repair_ms);
  }
  double landmark_build_ms = 0.0;
  {
    double s = -1.0;
    for (const adds::FlightEvent* e : by_fp[base_fp]) {
      if (kind_is(*e, FlightKind::kTableBuildStart)) s = e->t_ms;
      if (kind_is(*e, FlightKind::kTableBuilt) && s >= 0)
        landmark_build_ms = e->t_ms - s;
    }
  }

  svc.reset();  // shut the service down before the oracle's checks

  // ---- oracle: pending point answers and Dijkstra spot checks -----------
  const auto oracle_start = Clock::now();
  const std::string oracle_err = checker.finish();
  if (!oracle_err.empty()) out.fail(oracle_err);
  const double oracle_ms = ms_since(oracle_start);

  // ---- metrics --------------------------------------------------------------
  Metrics& m = out.metrics;
  const uint64_t p2p_total = p2p_exact + p2p_alt + p2p_fallback;
  if (!cfg.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("solve_ms", median(engine_solve_ms), "ms");
    m.set("cpuds_solve_ms", median(cpuds_ms), "ms");
    m.set("items_per_vertex",
          ratio(double(engine_items), double(engine_reached)), "ratio");
    m.set("qps", ratio(double(full_ms.size() + p2p_ms.size()), loop_s),
          "1/s");
    m.set("full_ms_p50", quantile(full_ms, 0.50), "ms");
    m.set("full_ms_p99", quantile(full_ms, 0.99), "ms");
    m.set("p2p_ms_p50", quantile(p2p_ms, 0.50), "ms");
    m.set("p2p_ms_p99", quantile(p2p_ms, 0.99), "ms");
    m.set("delta_settle_ms", median(settle_ms), "ms");
  } else {
    const double d_busy = rep_end.engine_busy_ms - rep_start.engine_busy_ms;
    const double d_disp =
        double(rep_end.engine_queries - rep_start.engine_queries);
    const double d_batches = double(rep_end.batches - rep_start.batches);
    const double d_batched =
        double(rep_end.batched_queries - rep_start.batched_queries);
    const double d_up = rep_end.uptime_ms - rep_start.uptime_ms;
    const double d_hits = double(rep_end.cache_hits - rep_start.cache_hits);
    const double d_miss =
        double(rep_end.cache_misses - rep_start.cache_misses);
    m.set("graph.build_ms", median(tr.durations("graph.build")), "ms");
    m.set("sssp.engine_start_ms", median(tr.durations("sssp.engine_start")),
          "ms");
    m.set("service.queue_ms_p50", quantile(queue_ms, 0.50), "ms");
    m.set("service.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
    m.set("service.engine_ms_mean", ratio(d_busy, d_disp), "ms");
    m.set("service.engine_utilization",
          ratio(d_busy, d_up * double(rep_end.engines)), "ratio");
    m.set("service.lanes_per_dispatch",
          ratio(d_disp - d_batches + d_batched, d_disp), "ratio");
    m.set("service.cache_hit_rate", ratio(d_hits, d_hits + d_miss), "ratio");
    m.set("landmark.build_ms", landmark_build_ms, "ms");
    m.set("landmark.exact_share", ratio(double(p2p_exact), double(p2p_total)),
          "ratio");
    m.set("landmark.alt_share", ratio(double(p2p_alt), double(p2p_total)),
          "ratio");
    m.set("landmark.fallback_share",
          ratio(double(p2p_fallback), double(p2p_total)), "ratio");
    m.set("landmark.alt_ms_p50", quantile(alt_ms, 0.50), "ms");
    m.set("landmark.table_repair_ms", median(table_repair_ms), "ms");
    m.set("delta.apply_ms", median(apply_ms), "ms");
    m.set("delta.repairs_per_delta",
          ratio(repairs_total, double(timed_deltas)), "count");
    m.set("delta.repair_us_p50", median(repair_us), "us");
    m.set("delta.stale_share",
          ratio(double(stale_answers), double(full_answers)), "ratio");
    m.set("trace.overhead_pct", overhead_pct(full_traced, full_untraced),
          "%");
  }
  std::fprintf(stderr,
               "[service] setup %.3f s, %zu full + %zu p2p queries in %.2f s, "
               "%llu deltas, full p50 %.3f ms p99 %.3f ms, p2p p50 %.3f ms "
               "p99 %.3f ms, settle %.2f ms; %u generations, %llu trees "
               "certified, %llu Dijkstra runs, %.0f ms after the loop\n",
               setup_s, full_ms.size(), p2p_ms.size(), loop_s,
               (unsigned long long)timed_deltas, quantile(full_ms, 0.5),
               quantile(full_ms, 0.99), quantile(p2p_ms, 0.5),
               quantile(p2p_ms, 0.99), median(settle_ms),
               checker.generations(), (unsigned long long)checker.certified(),
               (unsigned long long)checker.dijkstra_runs(), oracle_ms);
  if (cfg.trace && !tr.write(cfg.span_path))
    out.fail("cannot write spans to " + cfg.span_path);
  return out;
}

}  // namespace bench
