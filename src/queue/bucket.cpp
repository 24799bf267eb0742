#include "queue/bucket.hpp"

#include <algorithm>

namespace adds {

namespace {
constexpr bool is_pow2(uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

Bucket::Bucket(BlockPool& pool, const BucketConfig& cfg)
    : pool_(pool),
      block_words_(pool.block_words()),
      segment_words_(cfg.segment_words),
      table_size_(cfg.table_size),
      wcc_size_(cfg.table_size * (pool.block_words() / cfg.segment_words)),
      table_(cfg.table_size),
      wcc_(wcc_size_) {
  ADDS_REQUIRE(is_pow2(segment_words_) && segment_words_ <= block_words_,
               "segment_words must be a power of two <= block_words");
  ADDS_REQUIRE(is_pow2(table_size_), "table_size must be a power of two");
  for (auto& t : table_) t.store(kInvalidBlock, std::memory_order_relaxed);
  for (auto& w : wcc_) w.store(0, std::memory_order_relaxed);
}

Bucket::~Bucket() {
  // Return every still-mapped block so the pool can be reused.
  uint32_t alloc = alloc_limit_.load(std::memory_order_relaxed);
  for (uint32_t base = freed_limit_; wrap_lt(base, alloc);
       base += block_words_) {
    const BlockId b = table_[table_slot(base)].load(std::memory_order_relaxed);
    if (b != kInvalidBlock) pool_.release(b);
  }
}

uint32_t Bucket::reset() noexcept {
  // Same sweep as the destructor: everything mapped in [freed_limit_,
  // alloc_limit_) goes back to the pool. Quiesced by contract, so the
  // relaxed loads read the final values of the previous run.
  // Entries outside that range are already invalid (recycle and shrink
  // clear what they free), so the sweep leaves the whole table invalid.
  // The table and WCC array scale with the pool, so neither is swept in
  // full here: WCCs are zeroed at map time instead (see the header).
  uint32_t freed = 0;
  const uint32_t alloc = alloc_limit_.load(std::memory_order_relaxed);
  for (uint32_t base = freed_limit_; wrap_lt(base, alloc);
       base += block_words_) {
    auto& slot = table_[table_slot(base)];
    const BlockId b = slot.load(std::memory_order_relaxed);
    if (b != kInvalidBlock) {
      pool_.release(b);
      slot.store(kInvalidBlock, std::memory_order_relaxed);
      ++freed;
    }
  }
  resv_ptr_.store(0, std::memory_order_relaxed);
  cwc_.store(0, std::memory_order_relaxed);
  read_ptr_ = 0;
  scan_ptr_ = 0;
  freed_limit_ = 0;
  mapped_blocks_ = 0;
  scanned_segments_ = 0;
  // Release-publish the rewound limit last, mirroring construction order:
  // the next run's writers acquire alloc_limit_ before touching the table.
  alloc_limit_.store(0, std::memory_order_release);
  return freed;
}

uint32_t Bucket::publish(uint32_t start, uint32_t count) noexcept {
  // Fast path: the whole range lies inside one segment — true for every
  // single-item push and for most combiner flushes (lane capacity is
  // usually <= segment_words). One release-increment, no loop setup.
  const uint32_t first_seg_end =
      (start & ~(segment_words_ - 1)) + segment_words_;
  if (start + count <= first_seg_end) {
    wcc_[wcc_slot(start)].fetch_add(count, std::memory_order_release);
    return 1;
  }
  // General path: one release-increment per covered segment. The release
  // ordering makes the preceding item stores visible to whoever acquires
  // the WCC value.
  uint32_t ops = 0;
  while (count > 0) {
    const uint32_t seg_base = start & ~(segment_words_ - 1);
    const uint32_t in_seg =
        std::min(count, seg_base + segment_words_ - start);
    wcc_[wcc_slot(start)].fetch_add(in_seg, std::memory_order_release);
    start += in_seg;
    count -= in_seg;
    ++ops;
  }
  return ops;
}

uint32_t Bucket::ensure_capacity(uint32_t slack, bool best_effort) {
  uint32_t mapped = 0;
  const uint32_t resv = resv_ptr_.load(std::memory_order_relaxed);
  uint32_t alloc = alloc_limit_.load(std::memory_order_relaxed);
  // Signed headroom: writers may have *reserved beyond* the allocated limit
  // (they are spinning in wait_allocated) — that is negative headroom, not
  // a huge unsigned distance.
  while (static_cast<int64_t>(static_cast<int32_t>(alloc - resv)) <
         static_cast<int64_t>(slack)) {
    // The next region to map starts at alloc (always block aligned). Its
    // table slot's previous occupant covered [alloc - table_size*block_words,
    // ...): the mapped span [freed_limit, alloc + block) must fit in one
    // table period, or prefix recycling would later reach the old region
    // through a slot that now names the new block. (Hole recycling can
    // free that old block early; the span bound still holds.)
    if (uint64_t(alloc - freed_limit_) + block_words_ >
        uint64_t(table_size_) * block_words_) {
      break;  // table full: writers must wait for consumption to catch up
    }
    const BlockId b = best_effort ? pool_.try_allocate() : pool_.allocate();
    if (b == kInvalidBlock) break;  // pool dry: governed caller spills
    // Zero the WCCs of the region before exposing it to writers.
    const uint32_t first_wcc = wcc_slot(alloc);
    const uint32_t segs = block_words_ / segment_words_;
    for (uint32_t s = 0; s < segs; ++s)
      wcc_[(first_wcc + s) & (wcc_size_ - 1)].store(
          0, std::memory_order_relaxed);
    table_[table_slot(alloc)].store(b, std::memory_order_release);
    alloc += block_words_;
    ++mapped_blocks_;
    ++mapped;
    // Publish the new limit only after the table entry and WCCs are in
    // place; writers acquire alloc_limit_ before touching either.
    alloc_limit_.store(alloc, std::memory_order_release);
  }
  // Wake writers parked on the old limit (no-op when nobody waits).
  if (mapped > 0) notify_waiters();
  return mapped;
}

uint32_t Bucket::shrink_capacity(uint32_t keep_slack) {
  const uint32_t alloc = alloc_limit_.load(std::memory_order_relaxed);
  uint32_t resv = resv_ptr_.load(std::memory_order_relaxed);
  if (wrap_lt(alloc, resv)) return 0;  // starved: nothing above resv mapped
  // Keep the block containing resv + keep_slack; candidates are the whole
  // blocks strictly above it.
  const uint32_t keep_end = resv + keep_slack;
  const uint32_t new_alloc =
      (keep_end + block_words_ - 1) & ~(block_words_ - 1);
  if (!wrap_lt(new_alloc, alloc)) return 0;
  // Publish the lowered limit, then confirm no reservation reached the
  // region being reclaimed (see the handshake comment in the header).
  alloc_limit_.store(new_alloc, std::memory_order_seq_cst);
  resv = resv_ptr_.load(std::memory_order_seq_cst);
  if (wrap_lt(new_alloc, resv)) {
    // A writer raced into the region: restore and bail. Raising the limit
    // is always safe (the table entries were never touched).
    alloc_limit_.store(alloc, std::memory_order_seq_cst);
    notify_waiters();
    return 0;
  }
  uint32_t freed = 0;
  for (uint32_t base = new_alloc; wrap_lt(base, alloc);
       base += block_words_) {
    auto& slot = table_[table_slot(base)];
    const BlockId b = slot.load(std::memory_order_relaxed);
    ADDS_ASSERT(b != kInvalidBlock);
    slot.store(kInvalidBlock, std::memory_order_relaxed);
    pool_.release(b);
    --mapped_blocks_;
    ++freed;
  }
  return freed;
}

uint32_t Bucket::realign_drained() noexcept {
  const uint32_t resv = resv_ptr_.load(std::memory_order_acquire);
  if (resv == freed_limit_) return 0;  // nothing mapped was ever used
  const uint32_t boundary =
      (resv + block_words_ - 1) & ~(block_words_ - 1);
  const uint32_t pad = boundary - resv;
  if (pad == 0) return 0;  // already aligned; normal recycling applies
  if (cwc_.load(std::memory_order_acquire) != resv || read_ptr_ != resv)
    return 0;  // not drained
  // Coverage for the dead slots must exist before they are reserved:
  // a writer racing past the CAS starts exactly at `boundary` and must
  // not be left waiting on capacity accounting that skipped the pad.
  if (wrap_lt(alloc_limit_.load(std::memory_order_relaxed), boundary)) {
    // The straddling block is mapped (resv lies in it), so the limit can
    // always be raised to its end without allocating.
    alloc_limit_.store(boundary, std::memory_order_seq_cst);
  }
  uint32_t expected = resv;
  if (!resv_ptr_.compare_exchange_strong(expected, boundary,
                                         std::memory_order_seq_cst))
    return 0;  // a writer raced a real reservation in; try another tick
  read_ptr_ = boundary;
  complete(pad);  // keep CWC == resv so retire/drain accounting balances
  return pad;
}

uint32_t Bucket::scan_written_bound() noexcept {
  const uint32_t resv = resv_ptr_.load(std::memory_order_acquire);
  // alloc_limit_ is only ever stored by this (the manager) thread.
  const uint32_t alloc = alloc_limit_.load(std::memory_order_relaxed);
  const uint32_t limit = wrap_lt(alloc, resv) ? alloc : resv;
  uint32_t bound = wrap_lt(scan_ptr_, read_ptr_) ? read_ptr_ : scan_ptr_;
  while (wrap_lt(bound, limit)) {
    // bound < alloc_limit: the segment is mapped and its WCC was zeroed
    // when its block was, so the count is this segment's own.
    const uint32_t seg_base = bound & ~(segment_words_ - 1);
    const uint32_t wcc = wcc_[wcc_slot(bound)].load(std::memory_order_acquire);
    ++scanned_segments_;
    if (wcc == segment_words_) {
      // Fully written segment. WCC == N implies N reservations in this
      // segment, so seg_base + N <= resv and the advance cannot overshoot;
      // alloc_limit is block aligned, so it cannot pass that either.
      bound = seg_base + segment_words_;
      continue;
    }
    // Partial segment: it is fully written exactly when every reservation
    // that exists in it has published, i.e. seg_base + WCC == resv_ptr with
    // resv_ptr re-read after a fence so the comparison is not stale
    // (paper §5.2). WCC < N keeps that resv_ptr inside this mapped segment.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const uint32_t resv2 = resv_ptr_.load(std::memory_order_acquire);
    if (seg_base + wcc == resv2 && wrap_le(bound, resv2)) bound = resv2;
    break;
  }
  scan_ptr_ = bound;
  return bound;
}

bool Bucket::drained() noexcept {
  const uint32_t cwc = cwc_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const uint32_t resv = resv_ptr_.load(std::memory_order_acquire);
  return cwc == resv && read_ptr_ == resv;
}

uint32_t Bucket::recycle_below(uint32_t completed_bound) {
  // No drained() precondition: a writer may race a push into a bucket that
  // the manager just observed drained (the paper's §5.4 head-retirement
  // race). That is safe because only blocks wholly below the completed
  // bound are freed — a racing reservation lands at resv_ptr >= read_ptr >=
  // bound, never in the freed region — and the bucket's counters continue
  // monotonically, so the raced item simply becomes lower-priority work.
  ADDS_ASSERT(wrap_le(completed_bound, read_ptr_));
  // read_ptr never passes alloc_limit (the scan is clamped), so neither
  // does freed_limit: every block below the bound was mapped.
  ADDS_ASSERT(wrap_le(read_ptr_, alloc_limit_.load(std::memory_order_relaxed)));
  uint32_t freed = 0;
  // Every block that ends at or before the bound is consumed and completed.
  while (wrap_le(freed_limit_ + block_words_, completed_bound)) {
    auto& slot = table_[table_slot(freed_limit_)];
    const BlockId b = slot.load(std::memory_order_relaxed);
    if (b != kInvalidBlock) {  // else recycle_range freed it as a hole
      slot.store(kInvalidBlock, std::memory_order_relaxed);
      pool_.release(b);
      --mapped_blocks_;
      ++freed;
    }
    freed_limit_ += block_words_;
  }
  return freed;
}

uint32_t Bucket::recycle_range(uint32_t lo, uint32_t hi) {
  ADDS_ASSERT(wrap_le(hi, read_ptr_));
  // Below freed_limit a slot may already name a block of the next table
  // period; only [freed_limit, hi) is this period's.
  if (wrap_lt(lo, freed_limit_)) lo = freed_limit_;
  uint32_t freed = 0;
  for (uint32_t base = (lo + block_words_ - 1) & ~(block_words_ - 1);
       wrap_le(base + block_words_, hi); base += block_words_) {
    auto& slot = table_[table_slot(base)];
    const BlockId b = slot.load(std::memory_order_relaxed);
    if (b == kInvalidBlock) continue;  // freed by an earlier call
    slot.store(kInvalidBlock, std::memory_order_relaxed);
    pool_.release(b);
    --mapped_blocks_;
    ++freed;
  }
  return freed;
}

}  // namespace adds
