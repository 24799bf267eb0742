// The host-threads ADDS engine: the full queue protocol under real
// concurrency.
//
// One manager thread (MTB) and `num_workers` worker threads (WTBs) execute
// the paper's runtime verbatim at host scale:
//
//   * workers push work items (vertex ids) straight into buckets via
//     atomic resv_ptr reservation and WCC publication;
//   * the manager alone scans segment metadata, computes safely-readable
//     ranges, hands them to idle workers through per-worker assignment
//     flags, performs all block allocation/recycling, rotates the bucket
//     window, and (optionally) adjusts Δ from run-time signals;
//   * termination requires two consecutive manager sweeps that find no
//     pending or in-flight work and all workers idle (paper §5.4).
//
// Distances live in a shared AtomicDistArray with CAS fetch-min. An item is
// just a vertex id (as in the paper); a popped vertex is relaxed against
// its *current* distance. A vertex improved k times before it pops sits in
// the queue k times, so every pop first claims its label in a second
// array, `expanded`: only the pop that lowers expanded[u] to dist[u]
// relaxes the row, and every other copy is dropped as a stale pop. No
// label is expanded twice, and a vertex's final label exactly once
// (docs/QUEUE_PROTOCOL.md §"Once-per-label expansion").
//
// The engine is packaged as a warm, reusable HostEngine (host_engine.hpp):
// worker threads and the pool/queue pair outlive a single query, and each
// solve() rewinds the queue with the quiesced-only reset() hooks. The
// classic one-shot adds_host() entry point is a thin wrapper that builds a
// throwaway engine.
#include "sssp/host_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "queue/assignment.hpp"
#include "queue/lane_codec.hpp"
#include "queue/push_combiner.hpp"
#include "queue/spill_store.hpp"
#include "queue/translation_cache.hpp"
#include "queue/work_queue.hpp"
#include "sssp/atomic_dist.hpp"
#include "sssp/delta_heuristic.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace adds {

namespace {

/// The per-query state a row relaxation reads and writes. Workers and the
/// manager's inline execution both pop items through relax_item() below,
/// so the stale-pop claim lives in one place. Batched solves carry their
/// lane in the item's top bits; dist/expanded/parent are lane-major
/// [lane * V + v] so one lane's relaxations walk one contiguous row.
template <WeightType W>
struct QueryRows {
  const CsrGraph<W>* graph = nullptr;
  AtomicDistArray<DistT<W>>* dist = nullptr;
  /// Per vertex, the lowest label whose row has been claimed for
  /// expansion (infinity: never expanded).
  AtomicDistArray<DistT<W>>* expanded = nullptr;
  uint32_t num_lanes = 1;
  const std::atomic<bool>* lane_dead = nullptr;  // [num_lanes] detach flags
  std::atomic<VertexId>* parent = nullptr;       // [num_lanes * V] or null
};

/// Pops one item: decodes (lane, node), claims the node's current label
/// and, if the claim wins, relaxes its row, handing every improvement to
/// `push(item, dist)`. `pushed`/`popped` are the caller's own per-lane
/// counter row (null for single-source solves). The lane-counter
/// discipline (docs/QUEUE_PROTOCOL.md §"Per-lane termination") is: count a
/// spawned push BEFORE it becomes poppable, count the pop only AFTER the
/// row is fully relaxed — so a lane whose pushed == popped has truly
/// drained. A skipped pop counts as popped too.
template <WeightType W, typename Push>
inline void relax_item(const QueryRows<W>& q, uint32_t item, WorkStats& stats,
                       std::atomic<uint64_t>* pushed,
                       std::atomic<uint64_t>* popped, Push&& push) {
  using Dist = DistT<W>;
  const CsrGraph<W>& g = *q.graph;
  uint32_t lane = 0;
  VertexId u = VertexId(item);
  if (q.num_lanes > 1) {
    lane = lane_of(item);
    u = VertexId(node_of(item));
  }
  if (q.lane_dead != nullptr &&
      q.lane_dead[lane].load(std::memory_order_relaxed)) {
    // Detached lane: consume the item without edge work so the lane
    // drains out of the shared queue at pop speed.
    ++stats.lane_dropped;
    if (popped != nullptr) popped[lane].fetch_add(1, std::memory_order_release);
    return;
  }
  const size_t base = size_t(lane) * g.num_vertices();
  const Dist du = q.dist->load(base + u);
  // Once-per-label claim. It fails when another pop already claimed this
  // label (or a lower one, whose row that pop relaxes), and for an
  // infinite label, which only a corrupt queue can pop: the push that
  // enqueued u set a finite distance first.
  if (!q.expanded->fetch_min(base + u, du)) {
    ++stats.stale_skipped;
    if (popped != nullptr) popped[lane].fetch_add(1, std::memory_order_release);
    return;
  }
  ++stats.items_processed;
  const VertexId* const targets = g.targets().data();
  const W* const weights = g.weights().data();
  const EdgeIndex begin = g.edge_begin(u);
  const EdgeIndex end = g.edge_end(u);
  stats.relaxations += end - begin;
  for (EdgeIndex e = begin; e < end; ++e) {
    const VertexId v = targets[e];
    const Dist nd = du + Dist(weights[e]);
    if (q.dist->fetch_min(base + v, nd)) {
      if (q.parent != nullptr)
        q.parent[base + v].store(u, std::memory_order_relaxed);
      ++stats.improvements;
      ++stats.pushes;
      if (pushed != nullptr)
        pushed[lane].fetch_add(1, std::memory_order_relaxed);
      push(q.num_lanes > 1 ? lane_encode(lane, uint32_t(v)) : uint32_t(v), nd);
    }
  }
  if (popped != nullptr) popped[lane].fetch_add(1, std::memory_order_release);
}

/// Everything one worker thread needs. The flag pointer is stable for the
/// worker's lifetime; every other field is per-query: the engine retargets
/// them between queries while the worker is idle-parked, and the
/// assignment flag's release/acquire handshake carries them across.
template <WeightType W>
struct WorkerContext {
  QueryRows<W> rows;
  WorkQueue* queue = nullptr;
  AssignmentFlag* flag = nullptr;
  uint32_t combine_capacity = 0;  // 0: single-item pushes (combining off)
  uint64_t fault_domain = 0;      // query's fault domain (util/fault.hpp)
  // This worker's per-lane counter rows (null for single-source solves).
  std::atomic<uint64_t>* lane_pushed = nullptr;   // [num_lanes]
  std::atomic<uint64_t>* lane_popped = nullptr;   // [num_lanes]
  WorkStats stats;  // per-query; manager zeroes before, reads after
};

/// Pulls what popping `item` touches first toward the cache ahead of use:
/// the CSR row bounds of its vertex and the vertex's claim entry.
template <WeightType W>
inline void prefetch_item(const QueryRows<W>& q, uint32_t item) noexcept {
  uint32_t lane = 0;
  VertexId u = VertexId(item);
  if (q.num_lanes > 1) {
    lane = lane_of(item);
    u = VertexId(node_of(item));
  }
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(q.graph->offsets().data() + u, 0 /*read*/,
                     3 /*high locality*/);
#endif
  q.expanded->prefetch(size_t(lane) * q.graph->num_vertices() + u);
}

/// Persistent worker loop: parks on the assignment flag between ranges —
/// and between whole queries — until the engine terminates the flag at
/// destruction. Per-query pointers are re-read on every assignment.
template <WeightType W>
void worker_main(WorkerContext<W>& ctx) {
  using Dist = DistT<W>;
  TranslationCache<8> cache;
  // The combiner references one WorkQueue; it is rebuilt lazily when the
  // engine swaps queues (pool regrowth for a larger graph). Lanes are
  // always empty while parked, so a stale combiner never holds items.
  std::optional<PushCombiner> combiner;

  while (true) {
    // Event-driven idle wait: the worker parks on its flag and the
    // manager's assign()/terminate() wakes it directly.
    bool should_exit = false;
    const auto assignment = ctx.flag->wait(should_exit);
    if (should_exit) break;
    if (!assignment) continue;

    WorkQueue& queue = *ctx.queue;
    // Adopt the query's fault domain for this assignment: domain-restricted
    // fault plans only hit workers executing the tagged query.
    fault::set_thread_domain(ctx.fault_domain);
    const uint32_t num_lanes = ctx.rows.num_lanes;
    if (ctx.combine_capacity == 0) {
      combiner.reset();
    } else if (!combiner || combiner->queue() != &queue ||
               combiner->lane_capacity() != ctx.combine_capacity ||
               combiner->query_lanes() != num_lanes) {
      combiner.emplace(queue, ctx.combine_capacity, num_lanes);
    }

    // Injected worker stall: the assignment sits un-processed (in-flight),
    // exactly like a preempted/wedged WTB. Bounded and abort-observing.
    fault::delay(fault::Site::kWorkerStall, &queue.abort_flag());

    Bucket& bucket = queue.physical_bucket(assignment->phys_bucket);
    cache.reset();

    // Pushes go through the combiner when enabled.
    const auto push = [&](uint32_t out, Dist nd) {
      if (combiner) {
        combiner->push(out, double(nd));
      } else if (queue.push(out, double(nd)) != WorkQueue::kPushAborted) {
        ++ctx.stats.queue_reserve_ops;
        ++ctx.stats.queue_publish_ops;
      }
    };

    // Row-batched relaxation with one-ahead software prefetch: the next
    // item's CSR row offsets and claim entry are prefetched while the
    // current row is being relaxed, hiding those misses behind the current
    // row's edge work.
    uint32_t item = cache.read(bucket, assignment->start);
    prefetch_item(ctx.rows, item);
    for (uint32_t i = 0; i < assignment->count; ++i) {
      uint32_t next = 0;
      if (i + 1 < assignment->count) {
        next = cache.read(bucket, assignment->start + i + 1);
        prefetch_item(ctx.rows, next);
      }
      relax_item(ctx.rows, item, ctx.stats, ctx.lane_pushed, ctx.lane_popped,
                 push);
      item = next;
    }
    // Publication order matters: all pushes above — including every item
    // still staged in the combiner — must be published before the
    // release-increment of the source bucket's CWC, so when the manager
    // observes CWC == resv_ptr it also observes every spawned item.
    if (combiner) {
      combiner->flush_all();
      // Harvest the combiner's atomic-op accounting into this query's
      // stats now: the combiner outlives the query, and counters left in
      // it would leak into the next query's WorkStats.
      const CombinerStats cs = combiner->take_stats();
      ctx.stats.queue_reserve_ops += cs.reserve_ops;
      ctx.stats.queue_publish_ops += cs.publish_ops;
      ctx.stats.batch_flushes += cs.flushes;
      ctx.stats.combined_items += cs.flushed_items;
      ctx.stats.lane_splits += cs.lane_splits;
    }
    bucket.complete(assignment->count);
    ctx.flag->done();
  }
  // A worker only exits between assignments (terminate() is only sent with
  // the engine quiescent), so its lanes are empty and there is nothing to
  // flush or account.
}

}  // namespace

// ---------------------------------------------------------------------------
// HostEngine
// ---------------------------------------------------------------------------

template <WeightType W>
struct HostEngine<W>::Impl {
  using Dist = DistT<W>;

  AddsHostOptions opts_;
  DeltaControllerOptions copts_;  // resolved controller options
  std::unique_ptr<BlockPool> pool_;
  std::unique_ptr<WorkQueue> queue_;
  std::optional<DeltaController> controller_;
  Event engine_wake_;  // completion wake when the query brings no event
  std::vector<AssignmentFlag> flags_;
  std::vector<WorkerContext<W>> contexts_;
  std::vector<std::thread> workers_;
  uint64_t queries_ = 0;
  bool dirty_ = false;  // queue carries a previous query's state
  /// Serializes interrupt() (any thread) against provision()'s queue/pool
  /// swap (the solving thread). Never held across a wait — both critical
  /// sections are a handful of stores.
  std::mutex interrupt_m_;

  explicit Impl(const AddsHostOptions& o)
      : opts_(o), flags_(o.num_workers), contexts_(o.num_workers) {
    copts_ = opts_.controller;
    copts_.enabled = opts_.dynamic_delta;
    copts_.max_active_buckets = std::min<uint32_t>(
        copts_.max_active_buckets, opts_.num_buckets - 1);
    // flags_/contexts_ are never resized after this point: the worker
    // threads hold references into them for the engine's lifetime.
    workers_.reserve(opts_.num_workers);
    for (uint32_t i = 0; i < opts_.num_workers; ++i) {
      contexts_[i].flag = &flags_[i];
      workers_.emplace_back(worker_main<W>, std::ref(contexts_[i]));
    }
  }

  ~Impl() {
    // The engine is quiescent between solves (solve() returns or throws
    // only with every worker idle-parked), so terminate lands on parked
    // workers and the join is immediate.
    for (auto& f : flags_) f.terminate();
    for (auto& w : workers_)
      if (w.joinable()) w.join();
  }

  /// Sizes (or re-sizes) the pool/queue pair for `g` carrying `num_lanes`
  /// concurrent query lanes (a K-lane batch holds up to K times the live
  /// items of one query). Kept across queries; rebuilt only when a larger
  /// graph needs a bigger slab than the current one. Buckets hold a
  /// reference into the pool, so the queue is destroyed first on rebuild.
  void provision(const CsrGraph<W>& g, uint32_t num_lanes) {
    const uint32_t want =
        opts_.pool_blocks != 0
            ? opts_.pool_blocks
            : auto_pool_blocks(g.num_edges() * uint64_t(num_lanes),
                               opts_.block_words, opts_.num_buckets);
    if (pool_ && want <= pool_->num_blocks()) return;
    // The swap is guarded so a concurrent interrupt() never dereferences a
    // queue mid-destruction. interrupt() on the new queue before this solve
    // arms is absorbed by the fresh (un-aborted) state being dirty-reset.
    std::lock_guard<std::mutex> lk(interrupt_m_);
    queue_.reset();
    pool_.reset();
    pool_ = std::make_unique<BlockPool>(want, opts_.block_words);
    WorkQueue::Config qcfg;
    qcfg.num_buckets = opts_.num_buckets;
    qcfg.bucket.segment_words = opts_.segment_words;
    // Every bucket can map every block of the pool, so a bucket's live span
    // is bounded by pool exhaustion — which the governor handles — and
    // never by translation-table wrap, which nothing can relieve when the
    // head bucket's own workers are the writers waiting on it. Small pools
    // keep at least 64 entries: once completed holes are recycled, a
    // stalled in-flight range pins its slot while the rest of the pool
    // moves on, and the table period bounds how far it can. (Capped so one
    // period stays within the wrapping index's half range.)
    qcfg.bucket.table_size = std::min(std::bit_ceil(std::max(want, 64u)),
                                      (1u << 31) / opts_.block_words);
    queue_ = std::make_unique<WorkQueue>(*pool_, qcfg);
    dirty_ = false;
  }

  /// Supervisor kill switch: sets the queue's sticky abort from any thread
  /// and wakes a parked manager. The running solve observes the abort on
  /// its next sweep and throws; between queries the next solve's reset()
  /// clears the flag, so a late interrupt can cost at most one spurious
  /// abort of the query it raced with.
  void interrupt() noexcept {
    std::lock_guard<std::mutex> lk(interrupt_m_);
    if (queue_) queue_->request_abort();
    engine_wake_.notify_all();
  }

  /// Error-path quiesce: aborts the queue (parked writers drop out, fault
  /// delays cut short) and waits until every worker is idle-parked, so the
  /// exception leaves solve() with the engine reusable. The threads are
  /// NOT joined — the next solve() resets the queue (clearing the abort
  /// flag) and runs on the same warm pool.
  void quiesce(Event& wake) noexcept {
    queue_->request_abort();
    const auto all_idle = [this]() noexcept {
      for (auto& f : flags_)
        if (!f.is_idle()) return false;
      return true;
    };
    while (!all_idle())
      wake.await_for(all_idle, std::chrono::microseconds(500));
    dirty_ = true;
  }

  /// The one traversal both entry points share. `lanes` carries one source
  /// per query lane; `batched` arms the per-lane machinery (lane counters,
  /// parent recording, settle observation) — solve() passes a single lane
  /// with batched=false, which keeps every lane pointer null and the item
  /// words un-encoded: bit-identical to the classic single-source path.
  /// `repair` (single-lane, non-batched only) switches the run to a
  /// warm-start delta repair: distances initialize from the plan's warm
  /// labels and the seed step pushes the plan's frontier instead of the
  /// source.
  BatchResult<W> run(const CsrGraph<W>& g, const std::vector<LaneQuery>& lanes,
                     const QueryControl& ctl, bool batched,
                     const RepairPlan<W>* repair = nullptr);
};

template <WeightType W>
BatchResult<W> HostEngine<W>::Impl::run(const CsrGraph<W>& g,
                                        const std::vector<LaneQuery>& lanes,
                                        const QueryControl& ctl, bool batched,
                                        const RepairPlan<W>* repair) {
  const AddsHostOptions& opts = opts_;
  WallTimer timer;

  const uint32_t num_lanes = uint32_t(lanes.size());
  const size_t V = g.num_vertices();
  ADDS_REQUIRE(num_lanes >= 1, "solve_batch: need at least one lane");
  ADDS_REQUIRE(num_lanes <= kMaxLanes,
               "solve_batch: at most " + std::to_string(kMaxLanes) +
                   " lanes per batch");
  if (num_lanes > 1)
    ADDS_REQUIRE(uint64_t(V) <= kMaxLaneVertices,
                 "solve_batch: multi-lane batches address at most 2^28 "
                 "vertices (lane bits live in the item's top bits)");

  // `r` is the run's aggregate ledger: the manager loop below accounts all
  // shared-traversal costs into r.work / r.health exactly as the classic
  // single-source solve did. Batched extraction fans it out into
  // BatchResult at the end; the single-source path moves it into lane 0.
  BatchResult<W> br;
  br.lanes.resize(num_lanes);
  SsspResult<W> r;
  r.solver = batched ? "adds-host-batch"
                     : (repair != nullptr ? "adds-host-repair" : "adds-host");
  if (!batched) r.dist.assign(V, DistTraits<W>::infinity());
  if (g.empty()) {
    ++queries_;
    for (auto& o : br.lanes) o.result.solver = r.solver;
    if (!batched) br.lanes[0].result = std::move(r);
    return br;
  }
  for (const LaneQuery& lq : lanes)
    ADDS_REQUIRE(lq.source < g.num_vertices(), "source vertex out of range");

  if (repair != nullptr) {
    ADDS_REQUIRE(!batched && num_lanes == 1,
                 "solve_repair: repair runs are single-lane");
    ADDS_REQUIRE(repair->warm.size() == V,
                 "solve_repair: warm label array does not match the graph");
    ADDS_REQUIRE(repair->warm[lanes[0].source] == Dist{0},
                 "solve_repair: warm labels are not anchored at the source");
    if (repair->frontier.empty()) {
      // Nothing to relax: the warm labels are already exact (plan_repair
      // found no classified change reaching this source's tree). Still an
      // injectable repair — the fault site guards the fast path too.
      fault::ThreadDomainScope fault_domain_scope(ctl.fault_domain);
      if (fault::fire(fault::Site::kDeltaRepair))
        throw Error("adds-host: injected delta-repair fault");
      std::copy(repair->warm.begin(), repair->warm.end(), r.dist.begin());
      r.wall_ms = timer.elapsed_ms();
      r.time_us = r.wall_ms * 1e3;
      br.wall_ms = r.wall_ms;
      br.lanes[0].result = std::move(r);
      ++queries_;
      return br;
    }
  }

  // --- Rewind (or build) the warm queue -----------------------------------
  provision(g, num_lanes);
  WorkQueue& queue = *queue_;
  BlockPool& pool = *pool_;
  if (dirty_) {
    // Reset-safety invariant (docs/QUEUE_PROTOCOL.md §"Reset and reuse"):
    // a quiesced reset returns every mapped block, so each query starts
    // from the freshly-constructed state with a full pool.
    queue.reset();
    ADDS_ASSERT_MSG(pool.blocks_in_use() == 0,
                    "queue reset left blocks mapped");
    dirty_ = false;
  }
  pool.reset_stats();
  dirty_ = true;  // from here on the queue carries this query's state

  const double initial_delta =
      opts.delta > 0.0 ? opts.delta : static_delta(g, opts.heuristic_c);
  queue.set_delta(initial_delta);
  const double saturation =
      double(opts.num_workers) * double(opts.chunk_items);
  if (!controller_)
    controller_.emplace(copts_, saturation, initial_delta);
  else
    controller_->reset(saturation, initial_delta);
  DeltaController& controller = *controller_;

  // Lane-major distances: lane l's row is dist[l*V .. l*V+V). A relaxation
  // only ever touches its own row, so lanes share the traversal but never
  // an address. Parent recording and the per-lane drain counters exist
  // only for batched runs — single-source solves keep every pointer null
  // and pay nothing.
  AtomicDistArray<Dist> dist(size_t(num_lanes) * V, DistTraits<W>::infinity());
  AtomicDistArray<Dist> expanded(size_t(num_lanes) * V,
                                 DistTraits<W>::infinity());
  if (repair != nullptr) {
    // Warm start: the plan's labels are over-approximate for the child
    // graph (parent solve with the increase-affected region reset to inf),
    // which is exactly the precondition monotone relaxation needs.
    for (size_t v = 0; v < V; ++v) dist.store(v, repair->warm[v]);
  } else {
    for (uint32_t l = 0; l < num_lanes; ++l)
      dist.store(size_t(l) * V + lanes[l].source, Dist{0});
  }

  std::unique_ptr<std::atomic<VertexId>[]> parent;
  std::unique_ptr<std::atomic<bool>[]> lane_dead;
  // Counter layout: one row of num_lanes per worker plus one manager row
  // (seeds and inline execution), so every writer owns its cells and the
  // manager sums rows without contention.
  std::unique_ptr<std::atomic<uint64_t>[]> lane_pushed;
  std::unique_ptr<std::atomic<uint64_t>[]> lane_popped;
  std::vector<LaneStatus> lane_status(num_lanes, LaneStatus::kOk);
  std::vector<double> lane_settle_ms(num_lanes, 0.0);
  std::vector<bool> lane_settled(num_lanes, false);
  const uint32_t counter_rows = opts.num_workers + 1;
  if (batched) {
    parent = std::make_unique<std::atomic<VertexId>[]>(size_t(num_lanes) * V);
    for (size_t i = 0; i < size_t(num_lanes) * V; ++i)
      parent[i].store(kInvalidVertex, std::memory_order_relaxed);
    lane_dead = std::make_unique<std::atomic<bool>[]>(num_lanes);
    for (uint32_t l = 0; l < num_lanes; ++l)
      lane_dead[l].store(false, std::memory_order_relaxed);
    lane_pushed = std::make_unique<std::atomic<uint64_t>[]>(
        size_t(counter_rows) * num_lanes);
    lane_popped = std::make_unique<std::atomic<uint64_t>[]>(
        size_t(counter_rows) * num_lanes);
    for (size_t i = 0; i < size_t(counter_rows) * num_lanes; ++i) {
      lane_pushed[i].store(0, std::memory_order_relaxed);
      lane_popped[i].store(0, std::memory_order_relaxed);
    }
  }
  // Manager-owned counter row (seeding and inline execution below).
  std::atomic<uint64_t>* const mgr_pushed =
      batched ? lane_pushed.get() + size_t(opts.num_workers) * num_lanes
              : nullptr;
  std::atomic<uint64_t>* const mgr_popped =
      batched ? lane_popped.get() + size_t(opts.num_workers) * num_lanes
              : nullptr;

  // --- Bind the warm workers to this query ---------------------------------
  // The manager's wakeup event: workers notify it on completion, and a
  // canceller that provides QueryControl::cancel_event shares it so a
  // cancel reaches a parked manager immediately. (An external event must
  // outlive the call; the engine quiesces before returning either way.)
  Event& wake = ctl.cancel_event != nullptr ? *ctl.cancel_event : engine_wake_;
  if (ctl.beacon != nullptr) ctl.beacon->begin_solve();
  // The manager loop below runs on this thread: adopt the query's fault
  // domain for its injection sites (scan stall, AF delivery delay).
  fault::ThreadDomainScope fault_domain_scope(ctl.fault_domain);
  QueryRows<W> rows;
  rows.graph = &g;
  rows.dist = &dist;
  rows.expanded = &expanded;
  rows.num_lanes = num_lanes;
  rows.lane_dead = lane_dead.get();
  rows.parent = parent.get();
  for (uint32_t i = 0; i < opts.num_workers; ++i) {
    contexts_[i].rows = rows;
    contexts_[i].queue = &queue;
    contexts_[i].combine_capacity =
        opts.write_combining ? opts.combine_capacity : 0;
    contexts_[i].fault_domain = ctl.fault_domain;
    contexts_[i].lane_pushed =
        batched ? lane_pushed.get() + size_t(i) * num_lanes : nullptr;
    contexts_[i].lane_popped =
        batched ? lane_popped.get() + size_t(i) * num_lanes : nullptr;
    contexts_[i].stats.reset();
    flags_[i].set_done_event(&wake);
  }
  // The context writes above happen-before each worker's first wait()
  // acquire via the assign() release store — workers are idle-parked and
  // cannot observe the fields until an assignment arrives.

  // Single teardown path for the error exit. If the manager loop throws
  // (pool wedge, cancel, deadline, injected fault), the guard aborts the
  // queue and waits for every worker to park idle before the exception
  // propagates — the engine stays quiescent and reusable. The clean exit
  // disarms it: termination already implies all-idle.
  struct QuiesceGuard {
    Impl* engine;
    Event* wake;
    bool armed = true;
    ~QuiesceGuard() {
      if (armed) engine->quiesce(*wake);
    }
  } guard{this, &wake};

  // Seed the source. Governed mode maps capacity best-effort (a pool
  // smaller than the demand is a survivable state) but the head bucket
  // must be writable for the seed itself.
  if (opts.pool_governor) {
    // Head first — on a pool smaller than one-block-per-bucket the head
    // must win — and with retries, so a transient allocator fault
    // (pool.exhausted injection) cannot kill the run at the doorstep.
    Bucket& head = queue.logical_bucket(0);
    for (uint32_t tries = 0; head.writable_slack() == 0 && tries < 64;
         ++tries)
      head.ensure_capacity(opts.chunk_items * 2, /*best_effort=*/true);
    ADDS_REQUIRE(head.writable_slack() > 0,
                 "adds-host: pool too small to map the head bucket "
                 "(pool_blocks=" +
                     std::to_string(pool.num_blocks()) + ")");
    for (uint32_t l = 1; l < opts.num_buckets; ++l)
      queue.logical_bucket(l).ensure_capacity(opts.chunk_items * 2,
                                              /*best_effort=*/true);
  } else {
    queue.ensure_capacity_all(opts.chunk_items * 2);
  }
  if (repair != nullptr) {
    // The injectable repair failure: fires between committing to the warm
    // start and publishing the frontier — the worst place to die. The
    // QuiesceGuard above turns the throw into a clean abort (engine
    // reusable); the caller must treat it as "repair failed, cold-solve".
    if (fault::fire(fault::Site::kDeltaRepair))
      throw Error("adds-host: injected delta-repair fault");
    // Rebase the window on the coolest frontier label: every distance a
    // repair can still improve is >= the minimum seed label (positive
    // weights), so starting the head there skips grinding empty windows up
    // from zero. Seeds then bin by their warm labels like any other push.
    double base = std::numeric_limits<double>::infinity();
    for (const RepairSeed<W>& s : repair->frontier)
      base = std::min(base, double(s.label));
    queue.set_base_dist(base);
    for (const RepairSeed<W>& s : repair->frontier) {
      // The manager is the only thread running until the loop below starts
      // assigning, so a full bucket cannot be refilled by anyone else —
      // map capacity on demand instead of blocking in push().
      const uint32_t logical = WorkQueue::logical_index(
          double(s.label), base, queue.delta(), opts.num_buckets);
      Bucket& b = queue.logical_bucket(logical);
      if (b.writable_slack() == 0) b.ensure_capacity(opts.chunk_items * 2);
      queue.push(uint32_t(s.vertex), double(s.label));
      ++r.work.pushes;
      ++r.work.queue_reserve_ops;
      ++r.work.queue_publish_ops;
    }
  } else {
    for (uint32_t l = 0; l < num_lanes; ++l) {
      const uint32_t seed = num_lanes > 1
                                ? lane_encode(l, uint32_t(lanes[l].source))
                                : uint32_t(lanes[l].source);
      if (mgr_pushed != nullptr)
        mgr_pushed[l].fetch_add(1, std::memory_order_relaxed);
      queue.push(seed, 0.0);
      ++r.work.pushes;
      ++r.work.queue_reserve_ops;
      ++r.work.queue_publish_ops;
    }
  }

  // --- Manager-side completion-frontier tracking ---------------------------
  //
  // Blocks can only be recycled below an index every worker is finished
  // *reading*. The manager knows exactly which range each worker holds (it
  // assigned it), so it records the range per flag and, when the flag goes
  // idle, feeds it into a per-bucket frontier: blocks wholly below the
  // frontier are recyclable mid-stream. Without this, a bucket whose
  // translation window wraps while reservations are open can wedge its
  // writers (completed blocks would only be freed at full drain).
  struct FlagTrack {
    bool active = false;
    Assignment a;
  };
  std::vector<FlagTrack> tracks(opts.num_workers);
  struct BucketFrontier {
    uint32_t frontier = 0;  // all items below are completed
    std::vector<Assignment> out_of_order;
    void complete(const Assignment& a) {
      out_of_order.push_back(a);
      // Ranges are issued in increasing index order; advance the frontier
      // over every contiguous completed prefix.
      bool advanced = true;
      while (advanced) {
        advanced = false;
        for (size_t i = 0; i < out_of_order.size(); ++i) {
          if (out_of_order[i].start == frontier) {
            frontier += out_of_order[i].count;
            out_of_order[i] = out_of_order.back();
            out_of_order.pop_back();
            advanced = true;
            break;
          }
        }
      }
    }
  };
  std::vector<BucketFrontier> frontiers(opts.num_buckets);
  // Frees the blocks that lie wholly inside ranges completed out of order
  // above a bucket's frontier (coalescing adjacent ranges first).
  const auto recycle_holes = [&](uint32_t phys) {
    std::vector<Assignment>& done = frontiers[phys].out_of_order;
    const uint32_t front = frontiers[phys].frontier;
    std::sort(done.begin(), done.end(),
              [front](const Assignment& a, const Assignment& b) {
                return a.start - front < b.start - front;
              });
    Bucket& b = queue.physical_bucket(phys);
    uint32_t freed = 0;
    for (size_t i = 0; i < done.size();) {
      const uint32_t lo = done[i].start;
      uint32_t hi = lo + done[i].count;
      for (++i; i < done.size() && done[i].start == hi; ++i)
        hi += done[i].count;
      freed += b.recycle_range(lo, hi);
    }
    return freed;
  };

  // --- Pool-pressure governor state ----------------------------------------
  //
  // Free-block watermarks partition pool state into pressure levels:
  // elevated (<= ~1/4 free) rations cold-tail capacity; critical (<= ~1/8
  // free) additionally spills published-but-unassigned tail ranges into a
  // heap-backed store and recycles their blocks, replaying them once the
  // window reaches their priority band. An undersized pool thus degrades
  // to bounded slowdown instead of throwing; the resilient runtime's
  // restart-with-a-bigger-pool remains only as the last resort behind the
  // wedge timeout below.
  const uint32_t full_slack = opts.chunk_items * opts.num_workers + 64;
  const uint32_t elevated_floor = std::max(4u, pool.num_blocks() / 4);
  const uint32_t critical_floor = std::max(2u, pool.num_blocks() / 8);
  SpillStore spill;
  r.health.pool_blocks = pool.num_blocks();
  r.health.min_free_blocks = pool.free_blocks();
  std::vector<uint32_t> replay_buf;

  const auto classify = [&](uint32_t free) noexcept {
    return free <= critical_floor    ? PoolPressure::kCritical
           : free <= elevated_floor  ? PoolPressure::kElevated
                                     : PoolPressure::kNone;
  };

  // Drains published-but-unassigned ranges from the coldest buckets
  // (highest logical first, never below `floor_logical`, never the head)
  // until the pool recovers to `target_free`. The spilled range is
  // CWC-completed and fed to the completion frontier exactly like an
  // assigned-and-finished range — retirement accounting cannot tell the
  // difference — and its blocks recycle immediately.
  const auto spill_pass = [&](uint32_t target_free, uint32_t floor_logical) {
    uint64_t spilled = 0;
    const uint32_t floor = std::max(floor_logical, 1u);
    for (uint32_t l = opts.num_buckets; l-- > floor;) {
      if (pool.free_blocks() >= target_free) break;
      Bucket& b = queue.logical_bucket(l);
      const uint32_t start = b.read_ptr();
      const uint32_t bound = b.scan_written_bound();
      const uint32_t avail = bound - start;
      if (avail == 0) continue;
      const uint64_t band = queue.window_position() + l;
      for (uint32_t i = 0; i < avail; ++i)
        spill.add(band, b.read_item(start + i));
      b.advance_read(bound);
      b.complete(avail);
      const uint32_t phys = queue.logical_to_physical(l);
      frontiers[phys].complete({phys, start, avail});
      r.health.spilled_blocks_freed +=
          b.recycle_below(frontiers[phys].frontier);
      spilled += avail;
    }
    if (spilled > 0) {
      ++r.health.spill_events;
      r.health.spilled_items += spilled;
    }
    return spilled;
  };

  // Replays spilled items whose band the window has reached (or, when
  // `force`, any items — the endgame where only spilled work remains)
  // into the head bucket. Uses the manager-only non-blocking push: the
  // manager must never wait on capacity that it alone can map. Items a
  // dry pool cannot take back stay spilled for a later sweep, and
  // `replay_starved` asks that sweep to strip slack from the other
  // buckets for the head, exactly as for writers parked on capacity.
  bool replay_starved = false;
  const auto replay_pass = [&](bool force) {
    if (spill.empty() || queue.aborted()) return uint64_t{0};
    Bucket& head = queue.logical_bucket(0);
    const uint64_t head_band = queue.window_position();
    uint64_t replayed = 0;
    for (;;) {
      if (!(force ? !spill.empty() : spill.ready(head_band))) break;
      replay_buf.clear();
      const auto take = [&](uint32_t v) { replay_buf.push_back(v); };
      if (force)
        spill.drain_any(opts.chunk_items, take);
      else
        spill.drain_ready(head_band, opts.chunk_items, take);
      if (replay_buf.empty()) break;
      const uint32_t n = uint32_t(replay_buf.size());
      if (head.writable_slack() < n)
        head.ensure_capacity(2 * n, /*best_effort=*/true);
      uint32_t ops = head.try_push_batch(replay_buf.data(), n);
      if (ops == 0) {
        // Racing workers consumed the slack between the check and the
        // reservation CAS; map once more and retry.
        head.ensure_capacity(2 * n, /*best_effort=*/true);
        ops = head.try_push_batch(replay_buf.data(), n);
      }
      if (ops == 0) {
        // The pool cannot back the batch right now: keep the items
        // spilled (parked at the head band so they stay ready).
        for (uint32_t v : replay_buf) spill.add(head_band, v);
        replay_starved = true;
        break;
      }
      replayed += n;
      ++r.work.queue_reserve_ops;
      r.work.queue_publish_ops += ops;
    }
    r.health.replayed_items += replayed;
    return replayed;
  };

  // --- Manager-side inline execution (tiny assignments) --------------------
  //
  // When a bucket's leftover safely-readable range is below the inline
  // threshold and every worker is busy, the manager relaxes it itself
  // instead of letting it wait a sweep for a worker to free up. Its pushes
  // are buffered here and published through the non-blocking batch path —
  // the manager must never park in wait_allocated on capacity that only it
  // can map — with leftovers spilled to the heap store (governed mode
  // only, which is why the feature is gated on the governor).
  std::vector<std::pair<uint32_t, double>> inline_out;
  std::vector<uint32_t> inline_batch;
  const auto inline_flush_pushes = [&]() {
    while (!inline_out.empty()) {
      const double base = queue.base_dist();
      const double delta = queue.delta();
      // Peel one logical bucket's worth per round; ranges are tiny.
      const uint32_t want = WorkQueue::logical_index(
          inline_out.front().second, base, delta, opts.num_buckets);
      inline_batch.clear();
      size_t kept = 0;
      for (const auto& [v, d] : inline_out) {
        if (WorkQueue::logical_index(d, base, delta, opts.num_buckets) ==
            want)
          inline_batch.push_back(v);
        else
          inline_out[kept++] = {v, d};
      }
      inline_out.resize(kept);
      Bucket& tb = queue.logical_bucket(want);
      const uint32_t n = uint32_t(inline_batch.size());
      if (tb.writable_slack() < n)
        tb.ensure_capacity(2 * n, /*best_effort=*/true);
      uint32_t ops = tb.try_push_batch(inline_batch.data(), n);
      if (ops == 0) {
        tb.ensure_capacity(2 * n, /*best_effort=*/true);
        ops = tb.try_push_batch(inline_batch.data(), n);
      }
      if (ops == 0) {
        // Dry pool: park the items in the heap store at their band; the
        // replay path feeds them back when blocks free up.
        const uint64_t band = queue.window_position() + want;
        for (uint32_t v : inline_batch) spill.add(band, v);
        r.health.spilled_items += n;
      } else {
        ++r.work.queue_reserve_ops;
        r.work.queue_publish_ops += ops;
      }
    }
  };
  const auto inline_execute = [&](Bucket& b, uint32_t logical,
                                  uint32_t count) {
    const uint32_t start = b.read_ptr();
    const auto push = [&](uint32_t out, Dist nd) {
      inline_out.emplace_back(out, double(nd));
    };
    for (uint32_t i = 0; i < count; ++i)
      relax_item(rows, b.read_item(start + i), r.work, mgr_pushed, mgr_popped,
                 push);
    // Same retirement sequence as a spilled range: read, advance,
    // CWC-complete, frontier — downstream accounting cannot tell an
    // inline-executed range from a worker-executed one.
    b.advance_read(start + count);
    b.complete(count);
    const uint32_t phys = queue.logical_to_physical(logical);
    frontiers[phys].complete({phys, start, count});
    inline_flush_pushes();
    ++r.work.inline_ranges;
    r.work.inline_items += count;
  };

  // --- Manager loop ---------------------------------------------------------
  uint64_t clean_sweeps = 0;
  double last_progress_ms = timer.elapsed_ms();
  constexpr double kWedgeMs = 250.0;  // overload wedge -> fail-fast bound
  while (true) {
    // External cancellation (watchdog) or a prior abort: tear down. The
    // throw unwinds through the quiesce guard, which aborts the queue
    // (again, idempotent) and waits for the workers to park.
    if ((ctl.cancel != nullptr &&
         ctl.cancel->load(std::memory_order_acquire)) ||
        queue.aborted()) {
      queue.request_abort();
      throw Error("adds-host: run aborted (watchdog or external cancel)");
    }
    // Per-query wall-clock budget, enforced on the manager's own sweep
    // cadence — deadline enforcement costs no extra thread.
    if (ctl.deadline_ms > 0.0 && timer.elapsed_ms() > ctl.deadline_ms) {
      queue.request_abort();
      throw DeadlineError("adds-host: query deadline exceeded (" +
                          std::to_string(ctl.deadline_ms) + " ms)");
    }
    // Injected manager stall: one sweep goes missing, as if the MTB were
    // preempted. Observes both cancel and queue abort so a multi-second
    // stall cannot out-wait the watchdog's recovery.
    fault::delay(fault::Site::kManagerScanStall, ctl.cancel,
                 &queue.abort_flag());

    // --- Per-lane control (batched runs only) ------------------------------
    if (batched) {
      // Lane cancellation DETACHES the lane instead of aborting the batch:
      // the dead flag makes every worker consume the lane's queued items
      // without edge work, so the lane drains at pop speed while the other
      // lanes keep solving.
      for (uint32_t l = 0; l < num_lanes; ++l) {
        if (lanes[l].cancel != nullptr &&
            lane_status[l] == LaneStatus::kOk &&
            lanes[l].cancel->load(std::memory_order_acquire)) {
          lane_dead[l].store(true, std::memory_order_release);
          lane_status[l] = LaneStatus::kCancelled;
        }
      }
      // Per-lane settle observation: a lane whose pushed == popped has no
      // item anywhere — staged, published, spilled or in flight (pushes are
      // counted before an item becomes visible, pops only after its row is
      // fully relaxed). Reading every popped cell BEFORE every pushed cell
      // makes the equality a sound snapshot: popped is monotone, pops
      // happen-after their push, and the popped increments are releases —
      // so popped(t1) == pushed(t2) with t1 < t2 pins both counters at t2.
      // This is observability (per-lane completion times); the global
      // two-clean-sweeps termination below stays authoritative.
      for (uint32_t l = 0; l < num_lanes; ++l) {
        if (lane_settled[l]) continue;
        uint64_t popped = 0;
        for (uint32_t w = 0; w < counter_rows; ++w)
          popped += lane_popped[size_t(w) * num_lanes + l].load(
              std::memory_order_acquire);
        uint64_t pushed = 0;
        for (uint32_t w = 0; w < counter_rows; ++w)
          pushed += lane_pushed[size_t(w) * num_lanes + l].load(
              std::memory_order_acquire);
        if (pushed > 0 && pushed == popped) {
          lane_settled[l] = true;
          lane_settle_ms[l] = timer.elapsed_ms();
        }
      }
    }

    // Harvest completions: a flag that returned to idle finished its range.
    uint32_t harvested = 0;
    for (uint32_t i = 0; i < opts.num_workers; ++i) {
      if (tracks[i].active && flags_[i].is_idle()) {
        frontiers[tracks[i].a.phys_bucket].complete(tracks[i].a);
        tracks[i].active = false;
        ++harvested;
      }
    }
    uint32_t recycled = 0;
    for (uint32_t b = 0; b < opts.num_buckets; ++b)
      recycled +=
          queue.physical_bucket(b).recycle_below(frontiers[b].frontier);

    // Provision write capacity. Ungoverned mode preserves the fail-fast
    // contract: a dry pool throws out of ensure_capacity_all.
    uint64_t spilled = 0;
    uint32_t mapped = 0;
    uint32_t shrunk = 0;  // blocks moved off buckets that did not need them
    bool starved_now = false;
    const uint32_t active = std::max(1u, controller.active_buckets());
    if (!opts.pool_governor) {
      queue.ensure_capacity_all(full_slack);
    } else {
      const uint32_t free = pool.free_blocks();
      if (free < r.health.min_free_blocks) r.health.min_free_blocks = free;
      const PoolPressure lvl = classify(free);
      if (lvl > r.health.peak_pressure) r.health.peak_pressure = lvl;
      // Critical pressure: recover free blocks up front from cold tails.
      if (lvl == PoolPressure::kCritical)
        spilled += spill_pass(elevated_floor, active);
      // Under pressure, also reclaim capacity that was mapped ahead of
      // demand on buckets that have since gone cold — slack parked beyond
      // a cold tail's resv_ptr is pool memory nothing will touch until
      // the window gets there, and shrink hands it back safely even
      // against racing writers. A drained bucket additionally pins the
      // block containing its resv_ptr (recycling frees only blocks wholly
      // below the completed bound); realigning it to the block boundary
      // unpins that too, with the skipped pad run through the completion
      // frontier like any finished range.
      const auto reclaim_idle = [&](uint32_t l) -> uint32_t {
        Bucket& b = queue.logical_bucket(l);
        const uint32_t start = b.read_ptr();
        const uint32_t pad = b.realign_drained();
        if (pad == 0) return 0;
        const uint32_t phys = queue.logical_to_physical(l);
        frontiers[phys].complete({phys, start, pad});
        return b.recycle_below(frontiers[phys].frontier);
      };
      if (lvl != PoolPressure::kNone) {
        for (uint32_t l = active + 1; l < opts.num_buckets; ++l) {
          shrunk +=
              queue.logical_bucket(l).shrink_capacity(opts.segment_words);
          shrunk += reclaim_idle(l);
        }
      }
      // Map best-effort: hot buckets (the assignable window) get full
      // slack; under pressure cold tails are rationed to one segment so
      // the head wins the remaining blocks.
      for (uint32_t l = 0; l < opts.num_buckets; ++l) {
        const bool hot = l <= active;
        const uint32_t slack = (hot || lvl == PoolPressure::kNone)
                                   ? full_slack
                                   : opts.segment_words;
        mapped += queue.logical_bucket(l).ensure_capacity(
            slack, /*best_effort=*/true);
      }
      const auto starved_from = [&](uint32_t first) {
        for (uint32_t l = first; l < opts.num_buckets; ++l)
          if (queue.logical_bucket(l).writers_starved()) return true;
        return false;
      };
      if (starved_from(0) || replay_starved) {
        // Writers are parked on capacity the pool cannot back, or spilled
        // work could not re-enter the head. Free the blocks that completed
        // out of order (the oldest in-flight range pins the prefix, and
        // its worker may be one of the parked writers), spill everything
        // spillable and strip every non-starved bucket beyond the head
        // down to zero slack (parked writers and live work trump
        // prefetched capacity and schedule quality), then aim the
        // recovered blocks at the starved buckets and the head. Writers
        // parked beyond the head take the head's unreserved slack too:
        // the head re-maps only what they leave, so blocks move one way
        // and the strip cannot repeat as false progress.
        replay_starved = false;
        for (uint32_t b = 0; b < opts.num_buckets; ++b)
          recycled += recycle_holes(b);
        spilled += spill_pass(pool.num_blocks(), 1);
        for (uint32_t l = starved_from(1) ? 0 : 1; l < opts.num_buckets; ++l) {
          Bucket& b = queue.logical_bucket(l);
          if (!b.writers_starved()) {
            shrunk += b.shrink_capacity(0);
            shrunk += reclaim_idle(l);
          }
        }
        for (uint32_t l = 0; l < opts.num_buckets; ++l) {
          Bucket& b = queue.logical_bucket(l);
          if (b.writers_starved())
            mapped += b.ensure_capacity(opts.segment_words,
                                        /*best_effort=*/true);
        }
        mapped += queue.logical_bucket(0).ensure_capacity(
            full_slack, /*best_effort=*/true);
        starved_now = starved_from(0);
      }
    }

    // Retire drained head buckets while work remains elsewhere.
    const uint64_t pending = queue.total_pending();
    const uint64_t in_flight = queue.total_in_flight();
    uint32_t advances = 0;
    while (pending + in_flight > 0 && advances + 1 < opts.num_buckets &&
           queue.logical_bucket(0).pending_estimate() == 0 &&
           queue.head_drained()) {
      queue.advance_window();
      ++r.window_advances;
      ++advances;
    }

    // Replay spilled work whose priority band the window has reached.
    uint64_t replayed = 0;
    if (opts.pool_governor && !spill.empty()) replayed += replay_pass(false);

    // Assign published ranges from the active buckets to idle workers.
    bool assigned_any = false;
    for (uint32_t logical = 0; logical < active; ++logical) {
      Bucket& b = queue.logical_bucket(logical);
      uint32_t bound = b.scan_written_bound();
      uint32_t avail = bound - b.read_ptr();
      if (avail == 0) continue;
      for (uint32_t i = 0; i < opts.num_workers; ++i) {
        if (avail == 0) break;
        if (tracks[i].active || !flags_[i].is_idle()) continue;
        const uint32_t k = std::min(avail, opts.chunk_items);
        Assignment a;
        a.phys_bucket = queue.logical_to_physical(logical);
        a.start = b.read_ptr();
        a.count = k;
        b.advance_read(b.read_ptr() + k);
        tracks[i] = {true, a};
        // Injected delivery delay: the range is accounted as handed out but
        // the worker has not seen its flag yet (a late AF write).
        fault::delay(fault::Site::kAfDeliveryDelay, ctl.cancel,
                     &queue.abort_flag());
        flags_[i].assign(a);
        avail -= k;
        r.work.assigned_items += k;
        assigned_any = true;
      }
      // Tiny-assignment self-execution: a sub-threshold leftover with no
      // idle worker (the loop above exhausted them) would otherwise idle a
      // full sweep; the manager relaxes it inline instead.
      if (opts.pool_governor && opts.manager_inline_items > 0 &&
          avail > 0 && avail <= opts.manager_inline_items) {
        inline_execute(b, logical, avail);
        assigned_any = true;
      }
    }

    // Dynamic Δ from run-time signals (off by default at host scale).
    DeltaController::Signals sig;
    sig.assigned_edges = double(queue.total_in_flight());
    sig.head_switches = r.window_advances;
    sig.work_pending = queue.total_pending() > 0;
    const uint64_t p2 = queue.total_pending();
    if (p2 > 0)
      sig.tail_share =
          double(queue.pending_of(opts.num_buckets - 1)) / double(p2);
    if (controller.update(sig)) queue.set_delta(controller.delta());

    // Termination: two consecutive clean sweeps (no pending work anywhere,
    // nothing in flight, every worker idle) — and, under governance, an
    // empty spill store: heap-resident items are still live work, so the
    // endgame force-replays them before the queue may be declared done.
    bool all_idle = true;
    for (auto& flag : flags_) all_idle &= flag.is_idle();
    bool all_drained = true;
    for (uint32_t i = 0; i < opts.num_buckets; ++i)
      all_drained &= queue.physical_bucket(i).drained();
    if (!assigned_any && all_idle && all_drained) {
      if (opts.pool_governor && !spill.empty()) {
        replayed += replay_pass(true);
        clean_sweeps = 0;
      } else if (++clean_sweeps >= 2) {
        break;
      }
    } else {
      clean_sweeps = 0;
    }

    // Wedge fail-fast: governance is supposed to keep an overloaded run
    // moving. If writers stay starved (or spilled work cannot re-enter)
    // with zero progress of any kind for kWedgeMs, the pool is too small
    // even for spill mode — throw so the resilient runtime's
    // restart-with-resize (its last resort now) takes over. Never fires on
    // non-pool wedges (lost publications etc.); those belong to the
    // watchdog, as before.
    // Blocks shrunk off one bucket and mapped to another within a sweep
    // are a reshuffle, not progress: only net mapping counts, so a sweep
    // that strips and re-maps the same blocks forever still wedges.
    const bool progressed = assigned_any || harvested > 0 || recycled > 0 ||
                            mapped > shrunk || spilled > 0 || replayed > 0 ||
                            advances > 0;
    // Heartbeat for the external supervisor: sweeps always tick, the pulse
    // only on progress — so "sweeping but pulse frozen" is the wedge
    // signature regardless of *why* the queue is stuck (lost publication,
    // stalled worker, dry pool beyond governance).
    if (ctl.beacon != nullptr) {
      ctl.beacon->sweeps.fetch_add(1, std::memory_order_relaxed);
      if (progressed) ctl.beacon->pulse.fetch_add(1, std::memory_order_relaxed);
      ctl.beacon->window_advances.store(r.window_advances,
                                        std::memory_order_relaxed);
      ctl.beacon->assigned_items.store(r.work.assigned_items,
                                       std::memory_order_relaxed);
    }
    if (progressed) {
      last_progress_ms = timer.elapsed_ms();
    } else if (opts.pool_governor && (starved_now || !spill.empty()) &&
               timer.elapsed_ms() - last_progress_ms > kWedgeMs &&
               !queue.aborted() &&
               (ctl.cancel == nullptr ||
                !ctl.cancel->load(std::memory_order_acquire))) {
      throw Error(
          "adds-host: pool exhausted beyond spill governance (pool_blocks=" +
          std::to_string(pool.num_blocks()) +
          ", free=" + std::to_string(pool.free_blocks()) +
          ", spilled_items=" + std::to_string(r.health.spilled_items) +
          "): increase pool_blocks");
    }

    // Sweep pacing. While every worker is busy there is nothing to do
    // until a completion: park on the wake event (worker done() and
    // cancel_event notify it) instead of burning a core re-scanning; the
    // timeout keeps the park bounded. In every other state keep the full
    // tick rate — assignment and harvest latency are unaffected, and the
    // clean-sweep exit stays on the yield path.
    bool all_busy = true;
    for (uint32_t i = 0; i < opts.num_workers; ++i)
      all_busy &= tracks[i].active;
    if (!assigned_any && all_busy) {
      wake.await_for(
          [&]() noexcept {
            if ((ctl.cancel != nullptr &&
                 ctl.cancel->load(std::memory_order_acquire)) ||
                queue.aborted())
              return true;
            for (uint32_t i = 0; i < opts.num_workers; ++i)
              if (tracks[i].active && flags_[i].is_idle()) return true;
            return false;
          },
          std::chrono::microseconds(250));
    } else if (!assigned_any) {
      std::this_thread::yield();
    }
  }

  // Clean termination implies every worker is idle-parked (the clean-sweep
  // condition checked it), so the engine is already quiescent: disarm the
  // guard instead of aborting the queue.
  guard.armed = false;

  r.health.peak_blocks_in_use = pool.peak_blocks_in_use();
  if (pool.free_blocks() < r.health.min_free_blocks)
    r.health.min_free_blocks = pool.free_blocks();
  r.health.spill_peak_items = spill.peak_size();

  for (const auto& ctx : contexts_) r.work.merge(ctx.stats);
  for (const auto& [sw, d] : controller.history())
    r.delta_history.emplace_back(double(sw), d);
  r.wall_ms = timer.elapsed_ms();
  r.time_us = r.wall_ms * 1e3;  // the host engine's time is real time
  br.window_advances = r.window_advances;
  br.wall_ms = r.wall_ms;

  if (!batched) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) r.dist[v] = dist.load(v);
    br.work = r.work;
    br.health = r.health;
    br.lanes[0].result = std::move(r);
    ++queries_;
    return br;
  }

  // --- Batched extraction ---------------------------------------------------
  //
  // Per-lane dist rows copy out directly. The parent tree needs a certify
  // pass first: parent stores are relaxed side-writes racing with fetch_min
  // winners, so a recorded parent can be a predecessor whose relaxation
  // won an intermediate distance that was later improved again. One O(E)
  // sweep per lane checks every recorded parent for tightness
  // (dist[p] + w(p,v) == dist[v]) and collects a tight fallback for every
  // vertex whose record fails; the repair loop swaps those in. Final
  // distances ARE final shortest distances, so every reached non-source
  // vertex has a tight predecessor and the repaired tree is exact.
  std::vector<uint8_t> certified(V);
  std::vector<VertexId> fallback(V);
  for (uint32_t l = 0; l < num_lanes; ++l) {
    LaneOutcome<W>& o = br.lanes[l];
    o.status = lane_status[l];
    o.settle_ms = lane_settle_ms[l];
    SsspResult<W>& res = o.result;
    res.solver = r.solver;
    if (o.status != LaneStatus::kOk) continue;  // detached: no usable state

    const size_t base = size_t(l) * V;
    res.dist.resize(V);
    for (size_t v = 0; v < V; ++v) res.dist[v] = dist.load(base + v);

    // This lane's slice of the shared traversal (batch-wide costs and the
    // scheduling accounting live on br.work).
    uint64_t popped = 0, pushed = 0;
    for (uint32_t w = 0; w < counter_rows; ++w) {
      popped += lane_popped[size_t(w) * num_lanes + l].load(
          std::memory_order_relaxed);
      pushed += lane_pushed[size_t(w) * num_lanes + l].load(
          std::memory_order_relaxed);
    }
    res.work.items_processed = popped;
    res.work.pushes = pushed;
    res.health = r.health;
    res.window_advances = r.window_advances;
    res.wall_ms = r.wall_ms;
    res.time_us = r.time_us;

    std::fill(certified.begin(), certified.end(), uint8_t{0});
    std::fill(fallback.begin(), fallback.end(), kInvalidVertex);
    for (VertexId u = 0; u < VertexId(V); ++u) {
      const Dist du = res.dist[u];
      if (du == DistTraits<W>::infinity()) continue;
      const EdgeIndex ub = g.edge_begin(u), ue = g.edge_end(u);
      for (EdgeIndex e = ub; e < ue; ++e) {
        const VertexId v = g.targets()[e];
        if (du + Dist(g.weights()[e]) != res.dist[v]) continue;
        if (parent[base + v].load(std::memory_order_relaxed) == u)
          certified[v] = 1;
        else if (fallback[v] == kInvalidVertex)
          fallback[v] = u;
      }
    }
    const VertexId src = lanes[l].source;
    res.parent.assign(V, kInvalidVertex);
    uint64_t repairs = 0;
    for (size_t v = 0; v < V; ++v) {
      if (res.dist[v] == DistTraits<W>::infinity()) continue;
      if (VertexId(v) == src) {
        res.parent[v] = src;
        continue;
      }
      if (certified[v]) {
        res.parent[v] = parent[base + v].load(std::memory_order_relaxed);
      } else {
        res.parent[v] = fallback[v];
        ++repairs;
      }
    }
    res.work.parent_repairs = repairs;
    r.work.parent_repairs += repairs;
  }
  br.work = r.work;
  br.health = r.health;
  ++queries_;
  return br;
}

template <WeightType W>
HostEngine<W>::HostEngine(const AddsHostOptions& opts) {
  ADDS_REQUIRE(opts.num_workers >= 1, "need at least one worker");
  ADDS_REQUIRE(opts.num_buckets >= 2, "need at least two buckets");
  impl_ = std::make_unique<Impl>(opts);
}

template <WeightType W>
HostEngine<W>::~HostEngine() = default;

template <WeightType W>
SsspResult<W> HostEngine<W>::solve(const CsrGraph<W>& g, VertexId source,
                                   const QueryControl& ctl) {
  std::vector<LaneQuery> lanes(1);
  lanes[0].source = source;
  BatchResult<W> br = impl_->run(g, lanes, ctl, /*batched=*/false);
  return std::move(br.lanes[0].result);
}

template <WeightType W>
BatchResult<W> HostEngine<W>::solve_batch(const CsrGraph<W>& g,
                                          const std::vector<LaneQuery>& lanes,
                                          const QueryControl& ctl) {
  return impl_->run(g, lanes, ctl, /*batched=*/true);
}

template <WeightType W>
SsspResult<W> HostEngine<W>::solve_repair(const CsrGraph<W>& g,
                                          VertexId source,
                                          const RepairPlan<W>& plan,
                                          const QueryControl& ctl) {
  std::vector<LaneQuery> lanes(1);
  lanes[0].source = source;
  BatchResult<W> br = impl_->run(g, lanes, ctl, /*batched=*/false, &plan);
  return std::move(br.lanes[0].result);
}

template <WeightType W>
void HostEngine<W>::interrupt() noexcept {
  impl_->interrupt();
}

template <WeightType W>
const AddsHostOptions& HostEngine<W>::options() const noexcept {
  return impl_->opts_;
}

template <WeightType W>
uint64_t HostEngine<W>::queries_served() const noexcept {
  return impl_->queries_;
}

template <WeightType W>
uint32_t HostEngine<W>::pool_blocks() const noexcept {
  return impl_->pool_ ? impl_->pool_->num_blocks() : 0;
}

template class HostEngine<uint32_t>;
template class HostEngine<float>;

// ---------------------------------------------------------------------------
// One-shot entry point
// ---------------------------------------------------------------------------

template <WeightType W>
SsspResult<W> adds_host(const CsrGraph<W>& g, VertexId source,
                        const AddsHostOptions& opts) {
  HostEngine<W> engine(opts);
  QueryControl ctl;
  ctl.cancel = opts.cancel;
  ctl.cancel_event = opts.cancel_event;
  return engine.solve(g, source, ctl);
}

template SsspResult<uint32_t> adds_host<uint32_t>(const CsrGraph<uint32_t>&,
                                                  VertexId,
                                                  const AddsHostOptions&);
template SsspResult<float> adds_host<float>(const CsrGraph<float>&, VertexId,
                                            const AddsHostOptions&);

template <WeightType W>
BatchResult<W> adds_host_batch(const CsrGraph<W>& g,
                               const std::vector<VertexId>& sources,
                               const AddsHostOptions& opts) {
  HostEngine<W> engine(opts);
  std::vector<LaneQuery> lanes(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) lanes[i].source = sources[i];
  QueryControl ctl;
  ctl.cancel = opts.cancel;
  ctl.cancel_event = opts.cancel_event;
  return engine.solve_batch(g, lanes, ctl);
}

template BatchResult<uint32_t> adds_host_batch<uint32_t>(
    const CsrGraph<uint32_t>&, const std::vector<VertexId>&,
    const AddsHostOptions&);
template BatchResult<float> adds_host_batch<float>(const CsrGraph<float>&,
                                                   const std::vector<VertexId>&,
                                                   const AddsHostOptions&);

}  // namespace adds
