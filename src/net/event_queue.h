// Discrete-event scheduler.
//
// A single priority structure of (time, sequence) ordered events drives the
// whole simulation: message deliveries, node service completions, game ticks,
// and scenario actions (hotspot arrival at t=10s, ...).  The sequence number
// breaks time ties in insertion order, which makes runs fully deterministic.
//
// Two interchangeable priority structures sit behind one surface:
//
//   * kHeap — the historical 4-ary array heap over 32-byte POD entries.
//     O(log n) per schedule/pop on the full pending set.
//   * kLadder (default) — a two-tier calendar/ladder queue.  A NEAR tier
//     (the same small 4-ary heap, restricted to events inside the currently
//     loaded bucket's time range) backed by a ring of time buckets, spilling
//     to an OVERFLOW tier for events past the ring.  Scheduling into a
//     bucket or the overflow is an O(1) push_back; the log factor only ever
//     applies to one bucket's occupancy, not the whole pending set.  Bucket
//     width is derived from the observed inter-event spacing of the overflow
//     population and re-tuned only at ring reseed epochs — there is no
//     per-operation rehash.  A bucket that comes up for folding overfull
//     (dense workloads cluster events in time) is first split across a
//     finer-grained sub-rung — one O(n) re-file, the ladder-queue "spawn a
//     rung" move — so the near heap stays small even when one bucket's
//     range holds thousands of events.
//
// Pop order is IDENTICAL across both structures: every event with
// when < near_end_ lives in the near heap (inserts are routed by time, and a
// bucket's whole range is folded into the near heap before any of it can
// pop), so the near-heap minimum is always the global (when, seq) minimum.
// The golden trace hashes therefore cannot tell the schedulers apart —
// tests/scheduler_test.cpp pins this with a randomized differential test.
//
// Hot-path layout: tier entries are 32-byte PODs — (when, seq) plus the
// event's 16-byte typed Record itself — so sift and bucket moves are
// trivial copies, and step() reads the record from the heap top it just
// compared, already in cache.  There is no record slab to index and no
// slot to recycle.  A bucket folds into the near heap by swapping storage,
// and a drained bucket or heap gives back any capacity above
// kRetainEntries, so tier memory tracks the events pending now rather than
// the deepest burst of the run.
//
// The three kinds every message and tick produces carry their few words of
// state inline, and step() dispatches them with a switch to the queue's
// Target (the Network):
//
//   * kDelivery — (destination node, index of the envelope parked in the
//     shard's in-flight EnvelopeSlab, net/envelope_slab.h);
//   * kService  — (node, epoch): the node's service completion;
//   * kTimer    — (node, timer id, argument): Node::on_timer.
//
// Everything else — scenario scripting, metrics samplers, tests — is a cold
// kClosure record naming a slot in a slab of std::function<void()>
// callbacks.  The hot kinds never become closures, so the typed records are
// ROSS's fixed-size event struct (Carothers, Bauer & Pearce, JPDC 2002) in
// place of one type-erased closure per event.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "util/ids.h"
#include "util/sim_time.h"

namespace matrix {

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Which priority structure orders the pending set.  Pop order — and thus
  /// every golden trace — is identical for both; kHeap exists as the A/B
  /// reference and fallback (MATRIX_EVENT_SCHEDULER, Config::engine).
  enum class Scheduler : std::uint8_t { kLadder = 0, kHeap = 1 };

  enum class Kind : std::uint8_t { kClosure, kDelivery, kService, kTimer };

  /// One pending event.  `node` is the owning node (the destination of a
  /// delivery) and 0 for closures; `arg` is the kind's payload word: the
  /// parked envelope's slot, the service epoch, the timer argument, or the
  /// closure's slot.
  struct Record {
    Kind kind = Kind::kClosure;
    std::uint8_t timer = 0;
    std::uint32_t node = 0;
    std::uint64_t arg = 0;

    static Record delivery(NodeId dst, std::uint32_t envelope) {
      return {Kind::kDelivery, 0, node_key(dst), envelope};
    }
    static Record service(NodeId node, std::uint64_t epoch) {
      return {Kind::kService, 0, node_key(node), epoch};
    }
    static Record timer_tick(NodeId node, std::uint8_t timer,
                             std::uint64_t arg) {
      return {Kind::kTimer, timer, node_key(node), arg};
    }
    /// Node ids are dense from 1, so they fit 32 bits (as in LinkTable).
    static std::uint32_t node_key(NodeId id) {
      assert(id.valid() && id.value() <= UINT32_MAX);
      return static_cast<std::uint32_t>(id.value());
    }
  };
  static_assert(sizeof(Record) == 16);

  /// Runs the typed records this queue pops.  Only closures run without
  /// one.
  class Target {
   public:
    virtual void run_delivery(std::uint32_t slot) = 0;
    virtual void run_service(NodeId node, std::uint64_t epoch) = 0;
    virtual void run_timer(NodeId node, std::uint8_t timer,
                           std::uint64_t arg) = 0;

   protected:
    ~Target() = default;
  };

  /// Selects the priority structure.  Only callable while the queue is
  /// empty: entries are not re-filed across structures.
  void set_scheduler(Scheduler scheduler) {
    assert(pending() == 0 && "set_scheduler requires an empty queue");
    scheduler_ = scheduler;
  }
  [[nodiscard]] Scheduler scheduler() const { return scheduler_; }

  void set_target(Target* target) { target_ = target; }

  /// Schedules `record` at absolute time `when`.  Scheduling in the past is
  /// clamped to "now" (runs next, still after already-queued events at the
  /// current instant).
  void schedule_record(SimTime when, Record record) {
    if (when < now_) when = now_;
    file_entry(HeapEntry{when, next_seq_++, record});
    const std::size_t depth = pending();
    if (depth > peak_pending_) peak_pending_ = depth;
  }

  /// Schedules a cold closure to run at absolute time `when`, assigned into
  /// a recycled slab slot.
  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    std::uint32_t index;
    if (!free_closures_.empty()) {
      index = free_closures_.back();
      free_closures_.pop_back();
    } else {
      closures_.emplace_back();
      index = static_cast<std::uint32_t>(closures_.size() - 1);
    }
    closures_[index] = std::forward<F>(action);
    schedule_record(when, Record{Kind::kClosure, 0, 0, index});
  }

  /// Schedules `action` to run `delay` after the current time.
  template <typename F>
  void schedule_after(SimTime delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  [[nodiscard]] SimTime now() const { return now_; }
  /// Invariant (settle): the near heap is non-empty whenever ANY tier holds
  /// an event, so emptiness and next_time() are O(1) reads of the near heap.
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + sub_pending_ + ring_pending_ + overflow_.size();
  }
  /// Timestamp of the earliest pending event.  Precondition: !empty().
  /// The sharded engine (net/network.h) uses this to pick the next
  /// conservative window horizon without popping anything.
  [[nodiscard]] SimTime next_time() const { return heap_[0].when; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  /// High-water mark of simultaneously pending events (all tiers).
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

  /// Bytes allocated for the tier entries, records included: near heap,
  /// ring and sub-rung buckets (vector headers plus capacity), and
  /// overflow.  Drained buckets keep at most kRetainEntries, so this tracks
  /// pending events, not the run's history.
  [[nodiscard]] std::size_t tier_bytes() const {
    std::size_t entries = heap_.capacity() + overflow_.capacity();
    for (const auto& bucket : buckets_) entries += bucket.capacity();
    for (const auto& bucket : sub_buckets_) entries += bucket.capacity();
    return entries * sizeof(HeapEntry) +
           (buckets_.capacity() + sub_buckets_.capacity()) *
               sizeof(std::vector<HeapEntry>);
  }
  /// Bytes of the closure slab: one slot per closure ever simultaneously
  /// pending (the slab grows to that peak and recycles), plus its
  /// freelist.  Captures a std::function keeps on the heap are not
  /// counted.  Typed records live in the tier entries (tier_bytes()).
  [[nodiscard]] std::size_t slab_bytes() const {
    return closures_.size() * sizeof(Action) +
           free_closures_.capacity() * sizeof(std::uint32_t);
  }

  /// Runs the next event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_[0];
    heap_pop();
    if (heap_.empty()) settle();
    now_ = top.when;
    ++events_processed_;
    const Record& record = top.record;
    assert(record.kind == Kind::kClosure || target_ != nullptr);
    switch (record.kind) {
      case Kind::kClosure: {
        // Invoke in place — the closure slab is a deque, so slots stay put
        // while the action schedules new events.  The slot is cleared and
        // recycled only afterwards, so re-entrant scheduling never aliases
        // it.
        const auto index = static_cast<std::uint32_t>(record.arg);
        closures_[index]();
        closures_[index] = nullptr;
        free_closures_.push_back(index);
        break;
      }
      case Kind::kDelivery:
        target_->run_delivery(static_cast<std::uint32_t>(record.arg));
        break;
      case Kind::kService:
        target_->run_service(NodeId(record.node), record.arg);
        break;
      case Kind::kTimer:
        target_->run_timer(NodeId(record.node), record.timer, record.arg);
        break;
    }
    return true;
  }

  /// Runs all events with time <= `until`, then advances the clock to
  /// `until` even if no event lands exactly there.
  void run_until(SimTime until) {
    while (!heap_.empty() && heap_[0].when <= until) {
      step();
    }
    if (now_ < until) now_ = until;
  }

  /// Runs all events with time strictly < `end`, then advances the clock to
  /// `end`.  The EXCLUSIVE window the sharded engine's barrier loop needs:
  /// events landing exactly on a window boundary (e.g. merged cross-shard
  /// mail at the horizon) run in the next window, after the merge, so their
  /// ordering is decided by the deterministic mailbox merge — never by
  /// which side of the barrier happened to process them.
  void run_window(SimTime end) {
    while (!heap_.empty() && heap_[0].when < end) {
      step();
    }
    if (now_ < end) now_ = end;
  }

  /// Drains the queue completely (use with care: periodic events must have
  /// a termination condition or this never returns).
  void run_all() {
    while (step()) {
    }
  }

 private:
  /// 32-byte tier entry: time, sequence number and the record itself.
  /// Sequence numbers are unique, so (when, seq) is a total order.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    Record record;

    /// Min-heap order: earliest time, then lowest sequence.
    [[nodiscard]] bool before(const HeapEntry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };
  static_assert(sizeof(HeapEntry) == 32);

  static constexpr std::size_t kArity = 4;
  /// Bucket-ring size.  Fixed (a power of two, ~48KB of vector headers,
  /// allocated lazily on first ring use); only the bucket WIDTH adapts.
  static constexpr std::size_t kBuckets = 2048;
  /// Sub-rung size (1 << kSubShift) and the fold-occupancy bar above which a
  /// ring bucket is split across it instead of folded wholesale.  64 keeps
  /// near-heap pops at ~3 levels of a 4-ary heap.
  static constexpr int kSubShift = 8;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubShift;
  static constexpr std::size_t kSplitThreshold = 64;
  /// Entry capacity a drained tier vector may keep for reuse; above it the
  /// storage is released.  A burst that once filled a bucket (or the near
  /// heap) with 100k entries must not pin that capacity for the rest of the
  /// run: kept by all 2,304 buckets, join-burst peaks add up to ~48 MB on
  /// the 100k-client workload.  Ordinary folds stay under the bar (folds
  /// above kSplitThreshold are split first), so steady state reuses storage.
  static constexpr std::size_t kRetainEntries = 64;
  /// Width ceiling: keeps ring_end arithmetic far from SimTime overflow
  /// even for degenerate month-out timer sets.
  static constexpr std::int64_t kMaxWidthUs = 3'600'000'000;  // 1 hour

  /// Routes a new entry to its tier.  Near events (when < near_end_, the
  /// exclusive top of the range already folded into the near heap) take the
  /// heap; events in the active sub-rung's remaining range or the ring take
  /// an O(1) bucket push; the far future takes the overflow.  kHeap mode
  /// degenerates to "everything is near".
  void file_entry(HeapEntry entry) {
    if (scheduler_ == Scheduler::kHeap || entry.when < near_end_) {
      heap_push(entry);
      return;
    }
    if (sub_active_ && entry.when < sub_end_) {
      const std::size_t index = static_cast<std::size_t>(
          (entry.when - sub_start_).us() >> sub_shift_);
      assert(index >= sub_cur_ && index < kSubBuckets);
      sub_buckets_[index].push_back(entry);
      ++sub_pending_;
    } else if (entry.when < ring_end_) {
      if (buckets_.empty()) buckets_.resize(kBuckets);
      // Bucket widths are powers of two, so indexing is a shift — no
      // division on the per-insert hot path.
      const std::size_t index = static_cast<std::size_t>(
          (entry.when - ring_start_).us() >> width_shift_);
      assert(index >= cur_bucket_ && index < kBuckets);
      buckets_[index].push_back(entry);
      ++ring_pending_;
    } else {
      overflow_.push_back(entry);
    }
    // Keep the settle invariant: the near heap fronts a non-empty queue.
    if (heap_.empty()) settle();
  }

  /// Restores the invariant that the near heap holds the global minimum:
  /// folds the next non-empty (sub-)bucket into the (empty) near heap,
  /// splitting an overfull ring bucket across the sub-rung first and
  /// reseeding the ring from the overflow when the ring itself is drained.
  /// Called whenever the near heap goes empty; amortized O(1) per event.
  void settle() {
    assert(heap_.empty());
    trim(heap_);
    while (true) {
      if (sub_pending_ > 0) {
        while (sub_buckets_[sub_cur_].empty()) ++sub_cur_;
        std::vector<HeapEntry>& bucket = sub_buckets_[sub_cur_];
        sub_pending_ -= bucket.size();
        fold(bucket);
        ++sub_cur_;
        near_end_ = sub_start_ + sub_width_ * static_cast<std::int64_t>(sub_cur_);
        heapify();
        return;
      }
      if (sub_active_) {
        // Sub-rung drained: everything still pending sits at or past its
        // range, so the whole split-bucket range is "near" now.
        near_end_ = sub_end_;
        sub_active_ = false;
      }
      if (ring_pending_ > 0) {
        while (buckets_[cur_bucket_].empty()) ++cur_bucket_;
        std::vector<HeapEntry>& bucket = buckets_[cur_bucket_];
        if (bucket.size() > kSplitThreshold && width_shift_ > 0) {
          split_bucket(bucket);
          continue;  // fold the first non-empty sub bucket
        }
        ring_pending_ -= bucket.size();
        fold(bucket);
        ++cur_bucket_;
        near_end_ = ring_start_ + width_ * static_cast<std::int64_t>(cur_bucket_);
        heapify();
        return;
      }
      if (overflow_.empty()) return;  // truly empty
      reseed_ring();
    }
  }

  /// Moves a bucket's entries into the (empty) near heap by swapping
  /// storage — O(1), no copy; the bucket takes the heap's old (trimmed,
  /// empty) buffer for reuse.
  void fold(std::vector<HeapEntry>& bucket) {
    heap_.swap(bucket);
    assert(bucket.empty());
  }

  /// Releases a drained tier vector's storage above kRetainEntries, or an
  /// oversized vector's slack once it holds under a quarter of it.
  static void trim(std::vector<HeapEntry>& tier) {
    if (tier.capacity() <= kRetainEntries ||
        tier.capacity() <= 4 * tier.size()) {
      return;
    }
    if (tier.empty()) {
      std::vector<HeapEntry>().swap(tier);
    } else {
      tier.shrink_to_fit();
    }
  }

  /// The ladder-queue "spawn a rung" move: re-files one overfull ring
  /// bucket across kSubBuckets finer buckets covering exactly its range, so
  /// folds hand the near heap dozens of events instead of thousands.  One
  /// O(n) pass; the sub-rung drains before the ring advances, preserving
  /// fold order.  Sub widths are powers of two like the ring's, so inserts
  /// landing in the active sub range stay a shift away from their bucket.
  void split_bucket(std::vector<HeapEntry>& bucket) {
    sub_shift_ = width_shift_ > kSubShift ? width_shift_ - kSubShift : 0;
    sub_start_ = ring_start_ + width_ * static_cast<std::int64_t>(cur_bucket_);
    sub_end_ = sub_start_ + width_;
    sub_width_ = SimTime::from_us(std::int64_t{1} << sub_shift_);
    sub_cur_ = 0;
    if (sub_buckets_.empty()) sub_buckets_.resize(kSubBuckets);
    for (const HeapEntry& entry : bucket) {
      const std::size_t index = static_cast<std::size_t>(
          (entry.when - sub_start_).us() >> sub_shift_);
      assert(index < kSubBuckets);
      sub_buckets_[index].push_back(entry);
    }
    sub_pending_ = bucket.size();
    ring_pending_ -= bucket.size();
    bucket.clear();
    trim(bucket);
    ++cur_bucket_;
    sub_active_ = true;
  }

  /// Ring reseed = one epoch: re-anchor the ring at the earliest overflow
  /// event, re-derive the bucket width from the observed population, and
  /// re-file every overflow event that now fits the ring.  Events past the
  /// new ring stay in the overflow for a later epoch.
  void reseed_ring() {
    assert(!overflow_.empty());
    SimTime lo = overflow_.front().when;
    SimTime hi = lo;
    for (const HeapEntry& entry : overflow_) {
      if (entry.when < lo) lo = entry.when;
      if (entry.when > hi) hi = entry.when;
    }
    // Width tuning, once per epoch: cover the whole observed span when it
    // fits (span/kBuckets), but never drop below ~4x the observed mean
    // inter-event spacing — sparse far-future populations then get wide
    // buckets instead of a ring of singletons.  The result is rounded up to
    // a power of two so the per-insert bucket index is a shift.
    const std::int64_t span = (hi - lo).us();
    const auto count = static_cast<std::int64_t>(overflow_.size());
    std::int64_t width = span / static_cast<std::int64_t>(kBuckets) + 1;
    const std::int64_t spacing_floor = 4 * (span / count + 1);
    if (width < spacing_floor) width = spacing_floor;
    if (width > kMaxWidthUs) width = kMaxWidthUs;
    width_shift_ = 0;
    while ((std::int64_t{1} << width_shift_) < width) ++width_shift_;
    assert(lo >= ring_end_ && "overflow events precede the drained ring");
    ring_start_ = lo;
    width_ = SimTime::from_us(std::int64_t{1} << width_shift_);
    ring_end_ = ring_start_ + width_ * static_cast<std::int64_t>(kBuckets);
    cur_bucket_ = 0;
    near_end_ = ring_start_;
    if (buckets_.empty()) buckets_.resize(kBuckets);
    const SimTime end = ring_end_;
    std::size_t kept = 0;
    for (const HeapEntry& entry : overflow_) {
      if (entry.when < end) {
        const std::size_t index = static_cast<std::size_t>(
            (entry.when - ring_start_).us() >> width_shift_);
        buckets_[index].push_back(entry);
        ++ring_pending_;
      } else {
        overflow_[kept++] = entry;
      }
    }
    overflow_.resize(kept);
    trim(overflow_);
  }

  void heap_push(HeapEntry entry) {
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!entry.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }

  /// Sifts `entry` down from position `i` to its resting place.
  void sift_down(std::size_t i, HeapEntry entry) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t end =
          first_child + kArity < n ? first_child + kArity : n;
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(entry)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = entry;
  }

  void heap_pop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    sift_down(0, last);
  }

  /// Floyd build over an arbitrarily ordered heap_ (bucket load, extract).
  void heapify() {
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i, heap_[i]);
    }
  }

  // Near tier: 4-ary min-heap.  kLadder restricts it to events with
  // when < near_end_; kHeap keeps everything here (near_end_ stays 0 and
  // every `when` routes to it via the scheduler_ check).
  std::vector<HeapEntry> heap_;
  // Ring tier: kBuckets buckets of width width_ starting at ring_start_;
  // buckets below cur_bucket_ are forever empty (their range is < near_end_).
  std::vector<std::vector<HeapEntry>> buckets_;
  SimTime ring_start_{};
  SimTime width_ = SimTime::from_us(64);  // always 1 << width_shift_
  int width_shift_ = 6;
  SimTime ring_end_ =
      SimTime::from_us(64 * static_cast<std::int64_t>(kBuckets));
  SimTime near_end_{};
  std::size_t cur_bucket_ = 0;
  std::size_t ring_pending_ = 0;
  // Sub-rung: kSubBuckets finer buckets covering exactly one split ring
  // bucket's range [sub_start_, sub_end_); drained before the ring advances.
  std::vector<std::vector<HeapEntry>> sub_buckets_;
  SimTime sub_start_{};
  SimTime sub_end_{};
  SimTime sub_width_{};
  int sub_shift_ = 0;
  std::size_t sub_cur_ = 0;
  std::size_t sub_pending_ = 0;
  bool sub_active_ = false;
  // Overflow tier: unsorted events at or past ring_end, re-filed at reseed.
  std::vector<HeapEntry> overflow_;

  // Closure slab, indexed by a kClosure record's arg — a deque so a running
  // closure stays put while it schedules.
  std::deque<Action> closures_;
  std::vector<std::uint32_t> free_closures_;
  Target* target_ = nullptr;
  Scheduler scheduler_ = Scheduler::kLadder;
  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace matrix
