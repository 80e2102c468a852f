// Differential test of the two EventQueue priority structures
// (net/event_queue.h): the ladder/calendar queue must pop events in an order
// BIT-IDENTICAL to the reference 4-ary heap — same (when, seq) total order,
// regardless of how inserts were routed across the near/ring/overflow tiers.
// The golden trace hashes in tests/determinism_test.cpp depend on this; here
// we pin it directly with randomized schedules that exercise every tier
// transition (near inserts, bucket folds, ring reseeds, width re-derivation,
// overflow spill, past-time clamping, re-entrant scheduling from callbacks),
// with cold closures alone and interleaved with the typed delivery, service
// and timer records.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/event_queue.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace matrix {
namespace {

using namespace time_literals;

/// Execution log: (execution time, marker) per event, in pop order.
using Log = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Draws a scheduling offset that exercises all three tiers.  Mixes
/// same-instant, near-future (near heap / early buckets), medium (deep ring,
/// multiple bucket folds), far (overflow + ring reseed) and extreme (width
/// clamp) horizons, plus past times that must clamp to "now".
SimTime draw_when(Rng& rng, SimTime now) {
  switch (rng.next_below(10)) {
    case 0:
      return now;  // same instant: seq order must decide
    case 1:
    case 2:
    case 3:
      return now + SimTime::from_us(static_cast<std::int64_t>(
                       rng.next_below(200)));  // near
    case 4:
    case 5:
    case 6:
      return now + SimTime::from_us(static_cast<std::int64_t>(
                       rng.next_below(50'000)));  // deep ring
    case 7:
    case 8:
      return now + SimTime::from_us(static_cast<std::int64_t>(
                       rng.next_below(600'000'000)));  // overflow (10 min)
    default: {
      // Past: clamped to now.  Clamp before now_ ever advanced is a no-op,
      // so mix in genuinely-late times relative to the current clock.
      const auto back = static_cast<std::int64_t>(rng.next_below(1'000'000));
      const SimTime when = now - SimTime::from_us(back);
      return when;
    }
  }
}

/// Runs typed records by logging (time, marker) — the marker rides in the
/// record's arg word — and, for timer id 1, re-arming a follow-up timer from
/// inside the dispatch (the re-entrant path of a node's periodic tick).
class LogTarget final : public EventQueue::Target {
 public:
  LogTarget(EventQueue& queue, Log& log) : queue_(queue), log_(log) {}

  void run_delivery(std::uint32_t envelope) override {
    log_.emplace_back(queue_.now().us(), envelope);
  }
  void run_service(NodeId, std::uint64_t epoch) override {
    log_.emplace_back(queue_.now().us(), epoch);
  }
  void run_timer(NodeId node, std::uint8_t timer, std::uint64_t arg) override {
    log_.emplace_back(queue_.now().us(), arg);
    if (timer == 1) {
      const auto delay =
          SimTime::from_us(static_cast<std::int64_t>(arg % 5'000));
      queue_.schedule_record(
          queue_.now() + delay,
          EventQueue::Record::timer_tick(node, 0, arg | (1ULL << 63)));
    }
  }

 private:
  EventQueue& queue_;
  Log& log_;
};

/// Schedules marker `id` as one of the three typed record kinds, chosen by
/// `kind` (timers with odd markers re-arm once; see LogTarget).
void schedule_typed(EventQueue& queue, std::uint64_t kind, SimTime when,
                    std::uint64_t id) {
  const NodeId node(1 + id % 13);
  switch (kind) {
    case 0:
      queue.schedule_record(
          when,
          EventQueue::Record::delivery(node, static_cast<std::uint32_t>(id)));
      break;
    case 1:
      queue.schedule_record(when, EventQueue::Record::service(node, id));
      break;
    default:
      queue.schedule_record(
          when, EventQueue::Record::timer_tick(
                    node, static_cast<std::uint8_t>(id % 2), id));
      break;
  }
}

/// Runs one randomized schedule/pop interleaving against `queue` and returns
/// the execution log.  The op stream depends only on `seed`, never on the
/// queue's internals, so both schedulers see the identical request sequence.
/// With `typed`, half the scheduled events are typed records instead of
/// closures.
Log run_schedule(EventQueue& queue, std::uint64_t seed, int ops,
                 bool typed = false) {
  Rng rng(seed);
  Log log;
  LogTarget target(queue, log);
  queue.set_target(&target);
  std::uint64_t marker = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 70 || queue.empty()) {
      const SimTime when = draw_when(rng, queue.now());
      const std::uint64_t id = marker++;
      const std::uint64_t kind = typed ? rng.next_below(6) : 3;
      if (kind < 3) {
        schedule_typed(queue, kind, when, id);
      } else if (rng.next_below(8) == 0) {
        // Re-entrant: the callback itself schedules a follow-up, landing in
        // whatever tier the clock has reached by then.
        const auto delay =
            SimTime::from_us(static_cast<std::int64_t>(rng.next_below(5'000)));
        queue.schedule_at(when, [&queue, &log, id, delay] {
          log.emplace_back(queue.now().us(), id);
          queue.schedule_after(delay, [&queue, &log, id] {
            log.emplace_back(queue.now().us(), id | (1ULL << 63));
          });
        });
        ++marker;  // account for the follow-up so markers stay aligned
      } else {
        queue.schedule_at(when, [&queue, &log, id] {
          log.emplace_back(queue.now().us(), id);
        });
      }
    } else if (roll < 90) {
      queue.step();
    } else {
      // Window drains hit the bucket-fold path in bursts.
      queue.run_until(queue.now() + SimTime::from_us(static_cast<std::int64_t>(
                                        rng.next_below(100'000))));
    }
  }
  queue.run_all();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending(), 0u);
  queue.set_target(nullptr);
  return log;
}

TEST(SchedulerTest, LadderMatchesHeapPopOrder) {
  // >= 20 seeds x 10k mixed ops: the ladder must produce the exact event
  // sequence of the reference heap — same times AND same tie-break order.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    EventQueue heap;
    heap.set_scheduler(EventQueue::Scheduler::kHeap);
    EventQueue ladder;
    ladder.set_scheduler(EventQueue::Scheduler::kLadder);
    const Log expected = run_schedule(heap, seed, 10'000);
    const Log actual = run_schedule(ladder, seed, 10'000);
    ASSERT_EQ(expected, actual) << "seed " << seed;
    EXPECT_EQ(heap.events_processed(), ladder.events_processed());
    EXPECT_EQ(heap.now(), ladder.now());
  }
}

TEST(SchedulerTest, TypedRecordsAndClosuresKeepHeapPopOrder) {
  // The same differential check with typed delivery, service and timer
  // records interleaved with closures: the record kind never influences
  // pop order, only (when, seq) does.
  for (std::uint64_t seed = 101; seed <= 124; ++seed) {
    EventQueue heap;
    heap.set_scheduler(EventQueue::Scheduler::kHeap);
    EventQueue ladder;
    ladder.set_scheduler(EventQueue::Scheduler::kLadder);
    const Log expected = run_schedule(heap, seed, 10'000, /*typed=*/true);
    const Log actual = run_schedule(ladder, seed, 10'000, /*typed=*/true);
    ASSERT_EQ(expected, actual) << "seed " << seed;
    EXPECT_EQ(heap.events_processed(), ladder.events_processed());
    EXPECT_EQ(heap.now(), ladder.now());
  }
}

TEST(SchedulerTest, SameInstantEventsPopInScheduleOrder) {
  for (const auto scheduler :
       {EventQueue::Scheduler::kHeap, EventQueue::Scheduler::kLadder}) {
    EventQueue queue;
    queue.set_scheduler(scheduler);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      queue.schedule_at(5_ms, [&order, i] { order.push_back(i); });
    }
    queue.run_all();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, PastTimesClampToNowAfterQueuedPeers) {
  // An event scheduled in the past runs at "now" — but still AFTER events
  // already queued at the current instant (its sequence number is larger).
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(10_ms, [&] {
    queue.schedule_at(queue.now(), [&order] { order.push_back(1); });
    queue.schedule_at(2_ms, [&order] { order.push_back(2); });  // the past
    order.push_back(0);
  });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.now(), 10_ms);
}

TEST(SchedulerTest, NextTimeTracksGlobalMinimumAcrossTiers) {
  // next_time() must be the global minimum even when the earliest event sits
  // far past the current ring (overflow tier) — the settle invariant keeps
  // the near heap fronting the whole queue.
  EventQueue queue;
  queue.schedule_at(SimTime::from_sec(7200), [] {});  // overflow (past the initial ring)
  EXPECT_EQ(queue.next_time(), SimTime::from_sec(7200));
  queue.schedule_at(SimTime::from_sec(1800), [] {});
  EXPECT_EQ(queue.next_time(), SimTime::from_sec(1800));
  queue.schedule_at(10_us, [] {});
  EXPECT_EQ(queue.next_time(), 10_us);
  EXPECT_EQ(queue.pending(), 3u);
  queue.run_all();
  EXPECT_EQ(queue.now(), SimTime::from_sec(7200));
}

TEST(SchedulerTest, ReentrantGrowthKeepsSlabStable) {
  // A callback scheduling thousands of events while running forces slab
  // growth mid-invoke; the deque keeps the running slot stable.
  for (const auto scheduler :
       {EventQueue::Scheduler::kHeap, EventQueue::Scheduler::kLadder}) {
    EventQueue queue;
    queue.set_scheduler(scheduler);
    int executed = 0;
    queue.schedule_at(1_us, [&] {
      for (int i = 0; i < 5'000; ++i) {
        queue.schedule_after(SimTime::from_us(i % 97), [&] { ++executed; });
      }
    });
    queue.run_all();
    EXPECT_EQ(executed, 5'000);
    EXPECT_GE(queue.peak_pending(), 5'000u);
  }
}

TEST(SchedulerTest, DrainedBurstReleasesTierStorage) {
  // A 100k-event burst into one ring bucket grows that bucket, then the
  // sub-rung bucket it splits into, then the near heap it folds into, to
  // 1.6 MB of entries each time.  Once the burst drains, retained tier
  // storage must fall back to the bucket vectors' headers (2,304 x 24 B =
  // 54 KB) plus a few small reusable buffers — not the burst's peak.
  constexpr std::size_t kBurst = 100'000;
  constexpr std::size_t kRetainedBound = 64 * 1024;
  for (const bool same_instant : {true, false}) {
    EventQueue queue;
    std::size_t executed = 0;
    // The anchor folds bucket 0 into the near heap, so the burst below
    // lands in a ring bucket instead of the near heap.
    queue.schedule_at(1_us, [&executed] { ++executed; });
    for (std::size_t i = 0; i < 3; ++i) {  // three waves: no accumulation
      const SimTime base = queue.now() + 5_ms;
      for (std::size_t j = 0; j < kBurst; ++j) {
        const SimTime when =
            same_instant ? base
                         : base + SimTime::from_us(
                                      static_cast<std::int64_t>(j % 64));
        queue.schedule_at(when, [&executed] { ++executed; });
      }
      EXPECT_GE(queue.tier_bytes(), kBurst * 16);
      queue.run_all();
      EXPECT_LT(queue.tier_bytes(), kRetainedBound)
          << "same_instant " << same_instant << " wave " << i;
    }
    EXPECT_EQ(executed, 1 + 3 * kBurst);
  }
}

}  // namespace
}  // namespace matrix
