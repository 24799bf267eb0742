// The engine workloads, `road` and `powerlaw`: warm HostEngine::solve from
// a fixed, seeded source set, with the same sources through serial
// cpu_delta_stepping as the reference solver.
//
// Protocol of one run:
//   set-up   generate the graph, construct the 3-worker engine (3 workers
//            plus the calling manager = 4 threads), one provisioning solve;
//            setup_s is stamped here, from process start.
//   warm-up  untimed solves for kWarmupMs (the first second after an idle
//            spell runs 2-3x slow on this engine).
//   rounds   whole rounds until --seconds elapse. A round solves every
//            source once on the engine and once with cpu-ds, certifying
//            each answer off the clock. On `powerlaw` a round also makes
//            one solve on RMAT scale 18 under a deadline: that solve never
//            finishes today (the per-bucket table-wrap livelock), so it is
//            counted as a failed operation and kept out of solve_ms.
//   checks   the first round compares a seeded subset of sources
//            bit-for-bit against the oracle's Dijkstra.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "oracle.hpp"
#include "sssp/cpu_delta_stepping.hpp"
#include "sssp/host_engine.hpp"

namespace bench {
namespace {

using adds::HostEngine;
using adds::SsspResult;
using adds::VertexId;
using W = uint32_t;

constexpr uint32_t kWorkers = 3;      // + the calling manager = nproc (4)
constexpr double kWarmupMs = 1500.0;  // untimed solves before the clock
constexpr size_t kDijkstraChecks = 4; // sources compared bit-for-bit
// The scale-18 solve that livelocks: a deadline far above the ~140 ms the
// oracle's Dijkstra needs on that graph.
constexpr double kLivelockDeadlineMs = 2000.0;

struct Shape {
  adds::GraphSpec spec;
  uint32_t num_sources = 0;
  uint64_t min_out_degree = 0;
};

Shape shape_for(const std::string& workload) {
  Shape s;
  if (workload == "road") {
    s.spec.name = "grid_600x600";
    s.spec.family = adds::GraphFamily::kGridRoad;
    s.spec.scale = 600;
    s.spec.a = 600;
    s.spec.seed = 1;
    s.num_sources = 32;
  } else {
    s.spec.name = "rmat16_ef8";
    s.spec.family = adds::GraphFamily::kRmat;
    s.spec.scale = 16;
    s.spec.a = 8;  // edge factor
    s.spec.seed = 2;
    s.num_sources = 64;
    // Isolated RMAT vertices give 1-item solves that swamp the median.
    s.min_out_degree = 2;
  }
  return s;
}

std::vector<VertexId> pick_sources(const adds::CsrGraph<W>& g, uint64_t seed,
                                   uint32_t count, uint64_t min_out_degree) {
  Rng rng(seed);
  std::vector<VertexId> out;
  while (out.size() < count) {
    const VertexId v = VertexId(rng.below(g.num_vertices()));
    if (g.out_degree(v) >= min_out_degree) out.push_back(v);
  }
  return out;
}

/// Sums over the timed engine solves.
struct EngineTotals {
  std::vector<double> solve_ms;
  std::vector<double> solve_ms_traced, solve_ms_untraced;
  std::vector<double> one_worker_ms;
  double wall_ms = 0.0;
  uint64_t reached = 0;
  uint64_t window_advances = 0;
  uint64_t peak_blocks = 0;
  uint64_t spilled_items = 0;
  adds::WorkStats work;
  uint64_t cpuds_items = 0;
  std::vector<double> cpuds_ms;
};

}  // namespace

RunResult run_engine_workload(const RunConfig& cfg) {
  RunResult out;
  const bool powerlaw = cfg.workload == "powerlaw";
  const Shape shape = shape_for(cfg.workload);
  Tracer tr(cfg.trace, cfg.process_start);

  // ---- set-up: graph, engine, first provisioning solve ------------------
  auto t0 = Clock::now();
  const adds::CsrGraph<W> g = adds::generate_graph<W>(shape.spec);
  const auto t_graph = Clock::now();
  const std::vector<VertexId> sources =
      pick_sources(g, cfg.seed, shape.num_sources, shape.min_out_degree);
  adds::AddsHostOptions opts;
  opts.num_workers = kWorkers;
  auto engine = std::make_unique<HostEngine<W>>(opts);
  // The provisioning solve starts from a fixed vertex (the first one of
  // highest out-degree), so set-up does the same work whatever the seed.
  VertexId provision_src = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    if (g.out_degree(v) > g.out_degree(provision_src)) provision_src = v;
  SsspResult<W> first = engine->solve(g, provision_src);
  const auto t_ready = Clock::now();
  const double setup_s = ms_between(cfg.process_start, t_ready) / 1e3;
  tr.add("graph.build", t0, t_graph);
  tr.add("sssp.engine_start", t_graph, t_ready);

  // Everything below is off the set-up clock.
  const RefGraph ref = RefGraph::copy_of(g);
  const adds::CpuCostModel cpu{adds::CpuSpec::i9_7900x()};
  const auto check = [&](VertexId src, const SsspResult<W>& r,
                         CertStats* st) {
    const std::string err = certify(ref, src, r.dist, st);
    if (!err.empty())
      out.fail(r.solver + " from " + std::to_string(src) + ": " + err);
  };
  check(provision_src, first, nullptr);

  // The livelock probe's graph and engine (powerlaw only).
  adds::CsrGraph<W> big;
  std::unique_ptr<HostEngine<W>> big_engine;
  if (powerlaw) {
    adds::GraphSpec s18;
    s18.name = "rmat18_ef8";
    s18.family = adds::GraphFamily::kRmat;
    s18.scale = 18;
    s18.a = 8;
    s18.seed = 2;
    big = adds::generate_graph<W>(s18);
    big_engine = std::make_unique<HostEngine<W>>(opts);
  }

  // Traced runs also time a 1-worker engine on the same sources.
  std::unique_ptr<HostEngine<W>> one_worker;
  if (cfg.trace) {
    adds::AddsHostOptions o1 = opts;
    o1.num_workers = 1;
    one_worker = std::make_unique<HostEngine<W>>(o1);
  }

  // ---- warm-up ------------------------------------------------------------
  {
    const auto w0 = Clock::now();
    for (size_t i = 0; ms_since(w0) < kWarmupMs; ++i) {
      const VertexId src = sources[i % sources.size()];
      check(src, engine->solve(g, src), nullptr);
      if (one_worker) check(src, one_worker->solve(g, src), nullptr);
    }
  }

  // ---- timed rounds -------------------------------------------------------
  EngineTotals t;
  const auto loop_start = Clock::now();
  for (uint64_t round = 0; ms_since(loop_start) < cfg.seconds * 1e3;
       ++round) {
    // Traced runs alternate traced and untraced rounds, so the tracing
    // overhead is measured inside one process.
    const bool traced_round = cfg.trace && round % 2 == 0;
    if (powerlaw) {
      ++out.attempted;
      adds::QueryControl ctl;
      ctl.deadline_ms = kLivelockDeadlineMs;
      const auto p0 = Clock::now();
      try {
        const SsspResult<W> r = big_engine->solve(big, 0, ctl);
        const RefGraph big_ref = RefGraph::copy_of(big);
        const std::string err = certify(big_ref, 0, r.dist);
        if (!err.empty()) out.fail("rmat18 from 0: " + err);
      } catch (const adds::DeadlineError&) {
        ++out.failed;
      }
      if (traced_round) tr.add("sssp.livelock_probe", p0, Clock::now());
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      const VertexId src = sources[i];
      const int64_t req = traced_round ? tr.begin("bench.source", -1, i) : -1;
      const auto s0 = Clock::now();
      const SsspResult<W> r = engine->solve(g, src);
      const auto s1 = Clock::now();
      ++out.attempted;
      const double ms = ms_between(s0, s1);
      t.solve_ms.push_back(ms);
      if (cfg.trace)
        (traced_round ? t.solve_ms_traced : t.solve_ms_untraced).push_back(ms);
      if (traced_round) tr.add("sssp.solve", s0, s1, req, i);
      t.wall_ms += ms;
      t.work.merge(r.work);
      t.window_advances += r.window_advances;
      t.peak_blocks = std::max<uint64_t>(t.peak_blocks,
                                         r.health.peak_blocks_in_use);
      t.spilled_items += r.health.spilled_items;
      CertStats st;
      check(src, r, &st);
      t.reached += st.reached;
      const std::string rel =
          check_relaxations(r.work.relaxations, st.reached_out_degree);
      if (!rel.empty()) out.fail(rel);

      const auto c0 = Clock::now();
      const SsspResult<W> c = adds::cpu_delta_stepping(g, src, cpu);
      const auto c1 = Clock::now();
      ++out.attempted;
      t.cpuds_ms.push_back(ms_between(c0, c1));
      if (traced_round) tr.add("sssp.cpu_ds", c0, c1, req, i);
      t.cpuds_items += c.work.items_processed;
      const std::string same = compare(c.dist, r.dist);
      if (!same.empty())
        out.fail("cpu-ds from " + std::to_string(src) + ": " + same);

      if (one_worker) {
        const auto o0 = Clock::now();
        const SsspResult<W> r1 = one_worker->solve(g, src);
        const auto o1 = Clock::now();
        t.one_worker_ms.push_back(ms_between(o0, o1));
        if (traced_round) tr.add("sssp.solve_1w", o0, o1, req, i);
        check(src, r1, nullptr);
      }
      if (round == 0 && i < kDijkstraChecks) {
        const std::string d = compare(r.dist, dijkstra(ref, src));
        if (!d.empty())
          out.fail("engine vs Dijkstra from " + std::to_string(src) + ": " +
                   d);
      }
      tr.end(req);
    }
  }

  // ---- metrics ------------------------------------------------------------
  Metrics& m = out.metrics;
  const double solve_ms = median(t.solve_ms);
  if (!cfg.trace) {
    // A bare engine has no cache, oracle or delta pipeline: a full tree, a
    // point answer and a re-solve after a change each cost one solve, so
    // the latency metrics read the solve distribution (see README.md).
    const double p50 = quantile(t.solve_ms, 0.50);
    const double p99 = quantile(t.solve_ms, 0.99);
    m.set("setup_s", setup_s, "s");
    m.set("solve_ms", solve_ms, "ms");
    m.set("cpuds_solve_ms", median(t.cpuds_ms), "ms");
    m.set("items_per_vertex",
          ratio(double(t.work.items_processed), double(t.reached)), "ratio");
    m.set("qps", ratio(1e3 * double(t.solve_ms.size()), t.wall_ms), "1/s");
    m.set("full_ms_p50", p50, "ms");
    m.set("full_ms_p99", p99, "ms");
    m.set("p2p_ms_p50", p50, "ms");
    m.set("p2p_ms_p99", p99, "ms");
    m.set("delta_settle_ms", solve_ms, "ms");
  } else {
    const adds::WorkStats& w = t.work;
    const double items = double(w.items_processed);
    const double pushes = double(w.pushes);
    const double fastest =
        t.solve_ms.empty()
            ? 0.0
            : *std::min_element(t.solve_ms.begin(), t.solve_ms.end());
    uint64_t slow = 0;
    for (double x : t.solve_ms) slow += x > 2.0 * fastest;
    m.set("graph.build_ms", median(tr.durations("graph.build")), "ms");
    m.set("sssp.engine_start_ms", median(tr.durations("sssp.engine_start")),
          "ms");
    m.set("sssp.ns_per_item", ratio(t.wall_ms * 1e6, items), "ns");
    m.set("sssp.window_advances",
          ratio(double(t.window_advances), double(t.solve_ms.size())),
          "count");
    m.set("sssp.speedup_vs_1w", ratio(median(t.one_worker_ms), solve_ms),
          "ratio");
    m.set("sssp.slow_solves", double(slow), "count");
    m.set("sssp.items_vs_cpuds", ratio(items, double(t.cpuds_items)),
          "ratio");
    m.set("sssp.relaxations_per_item", ratio(double(w.relaxations), items),
          "ratio");
    m.set("sssp.improvements_per_relaxation",
          ratio(double(w.improvements), double(w.relaxations)), "ratio");
    m.set("queue.pushes_per_item", ratio(pushes, items), "ratio");
    m.set("queue.atomics_per_push",
          ratio(double(w.queue_reserve_ops + w.queue_publish_ops), pushes),
          "ratio");
    m.set("queue.combined_share", ratio(double(w.combined_items), pushes),
          "ratio");
    m.set("queue.inline_share", ratio(double(w.inline_items), items),
          "ratio");
    m.set("queue.peak_blocks", double(t.peak_blocks), "count");
    m.set("queue.spilled_items", double(t.spilled_items), "count");
    m.set("trace.overhead_pct",
          overhead_pct(t.solve_ms_traced, t.solve_ms_untraced), "%");
  }
  std::fprintf(stderr,
               "[%s] setup %.3f s, %zu timed solves: engine median %.2f ms, "
               "cpu-ds median %.2f ms, items/vertex %.4f, %llu of %llu "
               "operations failed\n",
               cfg.workload.c_str(), setup_s, t.solve_ms.size(), solve_ms,
               median(t.cpuds_ms),
               ratio(double(t.work.items_processed), double(t.reached)),
               (unsigned long long)out.failed,
               (unsigned long long)out.attempted);
  if (cfg.trace && !tr.write(cfg.span_path))
    out.fail("cannot write spans to " + cfg.span_path);
  return out;
}

}  // namespace bench
