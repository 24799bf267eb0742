// Single-threaded Bucket protocol tests: reservation, publication, the
// manager's segment scan (WCC == N and partial-segment resv comparison),
// completion/retirement, block recycling, and 32-bit index wrap-around.
#include <gtest/gtest.h>

#include "queue/bucket.hpp"
#include "queue/wrap.hpp"

namespace adds {
namespace {

constexpr uint32_t kBlockWords = 64;

BucketConfig small_cfg() {
  BucketConfig cfg;
  cfg.segment_words = 8;
  cfg.table_size = 4;  // capacity window: 4 * 64 = 256 items
  return cfg;
}

TEST(Wrap, OrderingAcrossOverflow) {
  EXPECT_TRUE(wrap_lt(0xfffffff0u, 0x10u));
  EXPECT_FALSE(wrap_lt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(wrap_le(5u, 5u));
  EXPECT_EQ(wrap_distance(0xfffffffeu, 2u), 4u);
}

TEST(Bucket, PushThenScanExposesItems) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 10; ++i) b.push(100 + i);
  const uint32_t bound = b.scan_written_bound();
  EXPECT_EQ(bound, 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(b.read_item(i), 100 + i);
}

TEST(Bucket, ScanHandlesExactlyFullSegments) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(64);
  for (uint32_t i = 0; i < 16; ++i) b.push(i);  // exactly 2 segments of 8
  EXPECT_EQ(b.scan_written_bound(), 16u);
}

TEST(Bucket, ScanStopsAtUnwrittenHole) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  // Reserve 10 slots but publish only slots 0..4 and 6..9: slot 5 is a hole.
  const uint32_t start = b.reserve(10);
  ASSERT_EQ(start, 0u);
  ASSERT_TRUE(b.wait_allocated(10));
  for (uint32_t i = 0; i < 10; ++i) {
    if (i == 5) continue;
    b.write(i, i);
  }
  b.publish(0, 5);
  b.publish(6, 4);
  // Segment 0 covers 0..7 with WCC == 7 != 8, and 0 + 7 != resv (10), so
  // nothing in segment 0 can be trusted beyond read_ptr.
  EXPECT_EQ(b.scan_written_bound(), 0u);
  // Filling the hole completes the first segment (WCC == 8) and makes the
  // partial second segment provable via WCC + base == resv.
  b.write(5, 5);
  b.publish(5, 1);
  EXPECT_EQ(b.scan_written_bound(), 10u);
}

TEST(Bucket, PartialSegmentProvableViaResvComparison) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 3; ++i) b.push(i);  // 3 of 8 slots in segment 0
  // WCC == 3, seg_base(0) + 3 == resv(3): provably fully written.
  EXPECT_EQ(b.scan_written_bound(), 3u);
}

TEST(Bucket, ScanFromMidSegmentReadPtr) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 5; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  EXPECT_EQ(b.read_ptr(), 5u);
  for (uint32_t i = 5; i < 12; ++i) b.push(i);
  EXPECT_EQ(b.scan_written_bound(), 12u);
}

TEST(Bucket, ScanNeverPassesAllocLimit) {
  // Writers that reserved past alloc_limit sit in unmapped segments, whose
  // WCC slots alias the region one translation window (4 * 64 = 256 words)
  // earlier. Fill that earlier region completely so its stale WCCs read
  // N, recycle it, map one block of the next window and reserve beyond it:
  // the scan must stop at alloc_limit, not vouch for slots nobody wrote.
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(4 * kBlockWords);
  for (uint32_t i = 0; i < 4 * kBlockWords; ++i) b.push(i);
  ASSERT_EQ(b.scan_written_bound(), 4 * kBlockWords);
  b.advance_read(4 * kBlockWords);
  b.complete(4 * kBlockWords);
  ASSERT_EQ(b.retire(), 4u);

  ASSERT_EQ(b.ensure_capacity(kBlockWords), 1u);  // maps [256, 320)
  for (uint32_t i = 0; i < kBlockWords; ++i) b.push(1000 + i);
  // A writer reserves [320, 328): unmapped, so it would park in
  // wait_allocated. Its segment's WCC slot is that of [64, 72), fully
  // written in the first window and never zeroed since.
  ASSERT_EQ(b.reserve(8), 5 * kBlockWords);
  ASSERT_TRUE(b.writers_starved());
  EXPECT_EQ(b.scan_written_bound(), 5 * kBlockWords);
}

TEST(Bucket, RepeatedScanDoesNotRewalkBacklog) {
  // The manager hands out a few items per sweep, so a published backlog
  // is scanned many times before it is consumed. The scan resumes at its
  // previous bound: re-scanning an unchanged bucket loads no WCC, and new
  // publications cost one load per newly covered segment.
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(2 * kBlockWords);
  for (uint32_t i = 0; i < 40; ++i) b.push(i);  // 5 segments of 8
  EXPECT_EQ(b.scan_written_bound(), 40u);
  const uint64_t first = b.scanned_segments();
  EXPECT_EQ(first, 5u);
  for (int sweep = 0; sweep < 3; ++sweep) {
    EXPECT_EQ(b.scan_written_bound(), 40u);
    b.advance_read(b.read_ptr() + 4);  // a partial hand-out per sweep
  }
  EXPECT_EQ(b.scanned_segments(), first);
  for (uint32_t i = 0; i < 8; ++i) b.push(40 + i);
  EXPECT_EQ(b.scan_written_bound(), 48u);
  EXPECT_EQ(b.scanned_segments(), first + 1);
  // A partial segment is re-checked from its base until it completes.
  for (uint32_t i = 0; i < 3; ++i) b.push(48 + i);
  EXPECT_EQ(b.scan_written_bound(), 51u);
  EXPECT_EQ(b.scan_written_bound(), 51u);
  b.push(51);
  EXPECT_EQ(b.scan_written_bound(), 52u);
}

TEST(Bucket, ResetRewindsScanCursor) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(kBlockWords);
  for (uint32_t i = 0; i < 20; ++i) b.push(i);
  ASSERT_EQ(b.scan_written_bound(), 20u);
  b.advance_read(20);
  b.complete(20);
  b.reset();
  EXPECT_EQ(b.scanned_segments(), 0u);
  b.ensure_capacity(kBlockWords);
  for (uint32_t i = 0; i < 3; ++i) b.push(100 + i);
  EXPECT_EQ(b.scan_written_bound(), 3u);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(b.read_item(i), 100 + i);
}

TEST(Bucket, DrainedRequiresCompletion) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  EXPECT_TRUE(b.drained());  // empty bucket is drained
  b.push(7);
  EXPECT_FALSE(b.drained());  // written but not read
  b.advance_read(b.scan_written_bound());
  EXPECT_FALSE(b.drained());  // read but not completed
  b.complete(1);
  EXPECT_TRUE(b.drained());
}

TEST(Bucket, PendingAndInFlightEstimates) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(32);
  for (uint32_t i = 0; i < 6; ++i) b.push(i);
  EXPECT_EQ(b.pending_estimate(), 6u);
  EXPECT_EQ(b.in_flight_estimate(), 0u);
  b.advance_read(b.scan_written_bound());
  EXPECT_EQ(b.pending_estimate(), 0u);
  EXPECT_EQ(b.in_flight_estimate(), 6u);
  b.complete(6);
  EXPECT_EQ(b.in_flight_estimate(), 0u);
}

TEST(Bucket, RetireRecyclesWholeConsumedBlocks) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(3 * kBlockWords);
  const uint32_t mapped_before = b.mapped_blocks();
  ASSERT_GE(mapped_before, 3u);
  // Consume 2.5 blocks worth of items.
  const uint32_t n = kBlockWords * 2 + kBlockWords / 2;
  for (uint32_t i = 0; i < n; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  b.complete(n);
  ASSERT_TRUE(b.drained());
  const uint32_t freed = b.retire();
  EXPECT_EQ(freed, 2u);  // two whole blocks below read_ptr
  EXPECT_EQ(b.mapped_blocks(), mapped_before - 2);
}

TEST(Bucket, CapacityBoundedByTranslationTable) {
  BlockPool pool(64, kBlockWords);
  Bucket b(pool, small_cfg());  // table_size 4 -> at most 4 live blocks
  b.ensure_capacity(100 * kBlockWords);
  EXPECT_EQ(b.mapped_blocks(), 4u);
  // Consuming and retiring lets the window move forward again.
  for (uint32_t i = 0; i < 4 * kBlockWords; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  b.complete(4 * kBlockWords);
  b.retire();
  const uint32_t mapped = b.ensure_capacity(2 * kBlockWords);
  EXPECT_GT(mapped, 0u);
}

TEST(Bucket, RecycleRangeFreesCompletedHoles) {
  // Blocks 1 and 2 completed while block 0 is still in flight: the hole
  // goes back to the pool now, and prefix recycling later steps over it.
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(4 * kBlockWords);
  for (uint32_t i = 0; i < 4 * kBlockWords; ++i) b.push(i);
  b.advance_read(b.scan_written_bound());
  ASSERT_EQ(b.mapped_blocks(), 4u);
  EXPECT_EQ(b.recycle_range(kBlockWords / 2, 3 * kBlockWords), 2u);
  EXPECT_EQ(b.recycle_range(kBlockWords, 3 * kBlockWords), 0u);  // idempotent
  EXPECT_EQ(b.mapped_blocks(), 2u);
  EXPECT_EQ(pool.free_blocks(), 6u);
  EXPECT_EQ(b.read_item(3 * kBlockWords), 3 * kBlockWords);  // block 3 lives
  // Block 0 still pins the table period: mapping [256, 320) would reuse
  // block 0's slot, so the table is full although only 2 blocks are mapped.
  EXPECT_EQ(b.ensure_capacity(kBlockWords), 0u);
  b.complete(4 * kBlockWords);
  EXPECT_EQ(b.recycle_below(4 * kBlockWords), 2u);  // blocks 0 and 3
  EXPECT_EQ(b.mapped_blocks(), 0u);
  EXPECT_EQ(pool.free_blocks(), 8u);
  EXPECT_EQ(b.ensure_capacity(kBlockWords), 1u);
}

TEST(Bucket, IndexWrapAroundPreservesFifo) {
  // Cycle far beyond the table window to exercise block recycling and index
  // wrap of WCC slots. 50 rounds x 192 items over a 256-item window.
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  uint32_t next_value = 0, next_expected = 0;
  for (int round = 0; round < 50; ++round) {
    b.ensure_capacity(3 * kBlockWords);
    const uint32_t n = 3 * kBlockWords;
    for (uint32_t i = 0; i < n; ++i) b.push(next_value++);
    const uint32_t bound = b.scan_written_bound();
    for (uint32_t idx = b.read_ptr(); wrap_lt(idx, bound); ++idx)
      ASSERT_EQ(b.read_item(idx), next_expected++);
    b.advance_read(bound);
    b.complete(n);
    ASSERT_TRUE(b.drained());
    b.retire();
  }
  EXPECT_EQ(next_expected, 50u * 3 * kBlockWords);
}

TEST(Bucket, BatchedReservePublish) {
  BlockPool pool(8, kBlockWords);
  Bucket b(pool, small_cfg());
  b.ensure_capacity(64);
  const uint32_t start = b.reserve(20);
  ASSERT_TRUE(b.wait_allocated(start + 20));
  for (uint32_t i = 0; i < 20; ++i) b.write(start + i, 1000 + i);
  b.publish(start, 20);  // spans 3 segments
  EXPECT_EQ(b.scan_written_bound(), 20u);
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(b.read_item(i), 1000 + i);
}

TEST(Bucket, ConfigValidation) {
  BlockPool pool(4, kBlockWords);
  BucketConfig bad;
  bad.segment_words = 7;  // not a power of two
  EXPECT_THROW(Bucket(pool, bad), Error);
  bad.segment_words = 128;  // larger than block
  EXPECT_THROW(Bucket(pool, bad), Error);
  BucketConfig bad_table;
  bad_table.segment_words = 8;
  bad_table.table_size = 3;
  EXPECT_THROW(Bucket(pool, bad_table), Error);
}

TEST(Bucket, DestructorReturnsBlocksToPool) {
  BlockPool pool(8, kBlockWords);
  {
    Bucket b(pool, small_cfg());
    b.ensure_capacity(3 * kBlockWords);
    EXPECT_LT(pool.free_blocks(), 8u);
  }
  EXPECT_EQ(pool.free_blocks(), 8u);
}

}  // namespace
}  // namespace adds
