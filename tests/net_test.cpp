// Unit tests for src/net: event queue ordering, delivery timing, service
// queues, drops, detach semantics, instrumentation.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "net/event_queue.h"
#include "net/link_table.h"
#include "net/network.h"
#include "util/codec.h"
#include "util/rng.h"

namespace matrix {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30_ms, [&] { order.push_back(3); });
  q.schedule_at(10_ms, [&] { order.push_back(1); });
  q.schedule_at(20_ms, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30_ms);
}

TEST(EventQueueTest, TiesBreakInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleAfterIsRelative) {
  EventQueue q;
  SimTime fired{};
  q.schedule_at(10_ms, [&] {
    q.schedule_after(5_ms, [&] { fired = q.now(); });
  });
  q.run_all();
  EXPECT_EQ(fired, 15_ms);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  SimTime fired{};
  q.schedule_at(10_ms, [&] {
    q.schedule_at(1_ms, [&] { fired = q.now(); });  // in the past
  });
  q.run_all();
  EXPECT_EQ(fired, 10_ms);
}

TEST(EventQueueTest, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10_ms, [&] { ++fired; });
  q.schedule_at(50_ms, [&] { ++fired; });
  q.run_until(20_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 20_ms);  // advanced even without an event at 20ms
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(100_ms);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> tick = [&] {
    if (++chain < 10) q.schedule_after(1_ms, tick);
  };
  q.schedule_at(0_ms, tick);
  q.run_all();
  EXPECT_EQ(chain, 10);
  EXPECT_EQ(q.now(), 9_ms);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

/// Test node recording deliveries.
class Recorder : public Node {
 public:
  explicit Recorder(std::string label = "recorder") : label_(std::move(label)) {}
  [[nodiscard]] std::string name() const override { return label_; }
  void handle_message(const Envelope& env) override {
    received.push_back(env);
  }
  std::vector<Envelope> received;

 private:
  std::string label_;
};

TEST(NetworkTest, AttachAssignsDistinctIds) {
  Network net;
  Recorder a, b;
  const NodeId ia = net.attach(&a);
  const NodeId ib = net.attach(&b);
  EXPECT_TRUE(ia.valid());
  EXPECT_NE(ia, ib);
  EXPECT_EQ(a.node_id(), ia);
  EXPECT_EQ(a.network(), &net);
}

TEST(NetworkTest, DeliveryTimingIncludesLatencyTransferService) {
  Network net;
  Recorder a, b;
  net.attach(&a, {});
  // service: 1ms per message, no per-byte component.
  net.attach(&b, {1_ms, 0_us, std::nullopt});
  // link: 10ms latency, 1000 bytes/sec bandwidth.
  net.set_link(a.node_id(), b.node_id(), {10_ms, 1000.0, 0.0});

  std::vector<std::uint8_t> payload(100 - kWireHeaderBytes, 0xEE);
  net.send(a.node_id(), b.node_id(), payload);
  net.run_until(1_sec);

  ASSERT_EQ(b.received.size(), 1u);
  // 10ms latency + 100B/1000Bps = 100ms transfer + 1ms service = 111ms.
  EXPECT_EQ(b.received[0].delivered_at, 110_ms);
  EXPECT_EQ(b.received[0].sent_at, 0_ms);
}

TEST(NetworkTest, FifoPerDestination) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b);
  for (std::uint8_t i = 0; i < 10; ++i) {
    net.send(a.node_id(), b.node_id(), {i});
  }
  net.run_until(1_sec);
  ASSERT_EQ(b.received.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(b.received[i].payload[0], i);
  }
}

TEST(NetworkTest, ServiceQueueSerializesProcessing) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b, {10_ms, 0_us, std::nullopt});  // 10ms per message
  net.set_link(a.node_id(), b.node_id(), {0_us, 0.0, 0.0});  // instant link

  for (int i = 0; i < 5; ++i) net.send(a.node_id(), b.node_id(), {1});
  // After arrival, messages are queued and served one per 10ms.
  net.run_until(25_ms);
  EXPECT_EQ(b.received.size(), 2u);  // served at 10ms and 20ms
  EXPECT_GE(net.queue_length(b.node_id()), 2u);
  net.run_until(1_sec);
  EXPECT_EQ(b.received.size(), 5u);
  EXPECT_EQ(net.queue_length(b.node_id()), 0u);
}

TEST(NetworkTest, QueueGrowsUnderOverload) {
  // Arrival rate 1/ms, service rate 1/2ms → queue grows ~ t/2.
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b, {2_ms, 0_us, std::nullopt});
  net.set_link(a.node_id(), b.node_id(), {0_us, 0.0, 0.0});
  for (int t = 0; t < 100; ++t) {
    net.events().schedule_at(SimTime::from_ms(t), [&net, &a, &b] {
      net.send(a.node_id(), b.node_id(), {0});
    });
  }
  net.run_until(100_ms);
  EXPECT_GT(net.queue_length(b.node_id()), 40u);
}

TEST(NetworkTest, BoundedQueueTailDrops) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b, {10_ms, 0_us, std::size_t{3}});
  net.set_link(a.node_id(), b.node_id(), {0_us, 0.0, 0.0});
  for (int i = 0; i < 10; ++i) net.send(a.node_id(), b.node_id(), {1});
  net.run_until(1_sec);
  // 1 in service + 3 queued survive at most.
  EXPECT_LE(b.received.size(), 4u);
  EXPECT_GT(net.total_dropped(), 0u);
}

TEST(NetworkTest, DropProbabilityDropsEverythingAtOne) {
  Network net(7);
  Recorder a, b;
  net.attach(&a);
  net.attach(&b);
  net.set_link(a.node_id(), b.node_id(), {1_ms, 0.0, 1.0});
  for (int i = 0; i < 20; ++i) net.send(a.node_id(), b.node_id(), {1});
  net.run_until(1_sec);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats(a.node_id(), b.node_id()).dropped_messages, 20u);
}

TEST(NetworkTest, SendToDetachedNodeCountsAsDrop) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  const NodeId ib = net.attach(&b);
  net.detach(ib);
  net.send(a.node_id(), ib, {1});
  net.run_until(1_sec);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.total_dropped(), 1u);
}

TEST(NetworkTest, DetachDropsInFlightAndQueued) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  const NodeId ib = net.attach(&b, {50_ms, 0_us, std::nullopt});
  net.set_link(a.node_id(), ib, {10_ms, 0.0, 0.0});
  for (int i = 0; i < 3; ++i) net.send(a.node_id(), ib, {1});
  net.run_until(15_ms);  // arrived, first in service
  net.detach(ib);
  net.run_until(1_sec);
  EXPECT_TRUE(b.received.empty());  // service completion cancelled by epoch
}

TEST(NetworkTest, DetachDropsInFlightDeliveriesAndRecyclesTheirSlots) {
  // Messages still on the wire when their destination detaches are dropped
  // when their delivery fires: each counts as a drop, hands its payload back
  // to the pool and frees its in-flight envelope slot for the next send.
  Network net;
  Recorder a, b, c;
  net.attach(&a);
  const NodeId ib = net.attach(&b);
  const NodeId ic = net.attach(&c);
  net.set_default_link({10_ms, 0.0, 0.0});
  const std::size_t inflight_before = net.engine_stats().payload_inflight_bytes;
  for (std::uint8_t i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> payload = net.rent_buffer();
    payload.assign(32, i);
    net.send(a.node_id(), ib, std::move(payload));
  }
  const Network::EngineStats sent = net.engine_stats();
  EXPECT_GT(sent.payload_inflight_bytes, inflight_before);
  EXPECT_GT(sent.inflight_envelope_bytes, 0u);
  net.run_until(5_ms);  // still on the wire
  net.detach(ib);
  net.run_until(1_sec);
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.total_dropped(), 3u);
  const Network::EngineStats dropped = net.engine_stats();
  EXPECT_EQ(dropped.payload_inflight_bytes, inflight_before);
  EXPECT_EQ(dropped.buffers_idle, 3u);
  // The three freed envelope slots carry the next three messages.
  for (std::uint8_t i = 0; i < 3; ++i) net.send(a.node_id(), ic, {i});
  EXPECT_EQ(net.engine_stats().inflight_envelope_bytes,
            sent.inflight_envelope_bytes);
  net.run_until(2_sec);
  EXPECT_EQ(c.received.size(), 3u);
  EXPECT_EQ(net.engine_stats().payload_inflight_bytes, inflight_before);
}

TEST(NetworkTest, StatsCountMessagesAndBytes) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b);
  net.send(a.node_id(), b.node_id(), std::vector<std::uint8_t>(72, 0));
  net.send(a.node_id(), b.node_id(), std::vector<std::uint8_t>(72, 0));
  const auto& stats = net.stats(a.node_id(), b.node_id());
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.bytes, 2 * (72 + kWireHeaderBytes));
  EXPECT_EQ(net.total_messages(), 2u);
  // Reverse direction untouched.
  EXPECT_EQ(net.stats(b.node_id(), a.node_id()).messages, 0u);
}

TEST(NetworkTest, BytesMatchingFiltersByPredicate) {
  Network net;
  Recorder a, b, c;
  net.attach(&a);
  net.attach(&b);
  net.attach(&c);
  net.send(a.node_id(), b.node_id(), {1});
  net.send(a.node_id(), c.node_id(), {1, 2});
  const auto only_to_b = net.bytes_matching(
      [&](NodeId, NodeId dst) { return dst == b.node_id(); });
  EXPECT_EQ(only_to_b, 1 + kWireHeaderBytes);
}

TEST(NetworkTest, HandlerMayDetachItsOwnNode) {
  // A node that detaches itself while handling a message (reclaimed server)
  // must not crash or process further messages.
  class SelfDetacher : public Node {
   public:
    [[nodiscard]] std::string name() const override { return "self-detach"; }
    void handle_message(const Envelope&) override {
      ++handled;
      network()->detach(node_id());
    }
    int handled = 0;
  };
  Network net;
  Recorder a;
  SelfDetacher d;
  net.attach(&a);
  net.attach(&d);
  net.send(a.node_id(), d.node_id(), {1});
  net.send(a.node_id(), d.node_id(), {2});
  net.run_until(1_sec);
  EXPECT_EQ(d.handled, 1);
}

TEST(NetworkTest, TransferDelayScalesWithSize) {
  const LinkConfig link{0_us, 1e6, 0.0};  // 1 MB/s
  EXPECT_EQ(link.transfer_delay(1000), 1_ms);
  EXPECT_EQ(link.transfer_delay(0), 0_us);
  const LinkConfig infinite{0_us, 0.0, 0.0};  // bandwidth 0 = infinite
  EXPECT_EQ(infinite.transfer_delay(1 << 20), 0_us);
}

TEST(NetworkTest, NodeServiceTimeScalesWithSize) {
  const NodeConfig cfg{10_us, 100_us, std::nullopt};  // 100us per KiB
  EXPECT_EQ(cfg.service_time(0), 10_us);
  EXPECT_EQ(cfg.service_time(1024), 110_us);
  EXPECT_EQ(cfg.service_time(2048), 210_us);
}

// ---------------------------------------------------------------------------
// Receive queues: intrusive FIFOs in one slab per shard
// ---------------------------------------------------------------------------

TEST(ReceiveQueueTest, InterleavedNodesKeepFifoOrderInOneSlab) {
  // Eight receivers share shard 0's slab; their messages arrive round-robin
  // so every queue's slots interleave with its siblings', and the second
  // burst reuses the first burst's freed slots in a different order.
  constexpr int kNodes = 8;
  constexpr int kPerNode = 12;
  Network net;
  Recorder src;
  std::array<Recorder, kNodes> dst;
  net.attach(&src);
  for (int n = 0; n < kNodes; ++n) {
    net.attach(&dst[n], {SimTime::from_ms(1 + n), 0_us, std::nullopt});
    net.set_link(src.node_id(), dst[n].node_id(), {0_us, 0.0, 0.0});
  }
  auto burst = [&](std::uint8_t round) {
    for (int i = 0; i < kPerNode; ++i) {
      for (int n = 0; n < kNodes; ++n) {
        net.send(src.node_id(), dst[n].node_id(),
                 {round, static_cast<std::uint8_t>(i)});
      }
    }
  };
  burst(0);
  net.run_until(1_ms);  // everything arrived; node 0 served one message
  EXPECT_EQ(net.queue_length(dst[0].node_id()), kPerNode - 1u);
  EXPECT_EQ(net.queue_length(dst[kNodes - 1].node_id()),
            static_cast<std::size_t>(kPerNode));
  net.run_until(1_sec);
  const std::size_t slab_after_first = net.engine_stats().receive_slab_bytes;
  EXPECT_GT(slab_after_first, 0u);
  burst(1);
  net.run_until(2_sec);
  // The slab is sized by the peak number queued at once, not by traffic.
  EXPECT_EQ(net.engine_stats().receive_slab_bytes, slab_after_first);
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(net.queue_length(dst[n].node_id()), 0u);
    ASSERT_EQ(dst[n].received.size(), 2u * kPerNode) << "node " << n;
    for (int k = 0; k < 2 * kPerNode; ++k) {
      EXPECT_EQ(dst[n].received[k].payload[0], k / kPerNode);
      EXPECT_EQ(dst[n].received[k].payload[1], k % kPerNode);
    }
  }
}

TEST(ReceiveQueueTest, TailDropsExactlyAtQueueCapacity) {
  // The message in service still occupies its queue slot, so a capacity-3
  // queue holds exactly three: the fourth and later arrivals are dropped
  // and charged to the pair.
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b, {10_ms, 0_us, std::size_t{3}});
  net.set_link(a.node_id(), b.node_id(), {0_us, 0.0, 0.0});
  for (std::uint8_t i = 0; i < 10; ++i) net.send(a.node_id(), b.node_id(), {i});
  net.run_until(5_ms);
  EXPECT_EQ(net.queue_length(b.node_id()), 3u);
  EXPECT_EQ(net.total_dropped(), 7u);
  EXPECT_EQ(net.stats(a.node_id(), b.node_id()).dropped_messages, 7u);
  net.run_until(1_sec);
  ASSERT_EQ(b.received.size(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(b.received[i].payload[0], i);
  // Drained, the queue admits again.
  net.send(a.node_id(), b.node_id(), {42});
  net.run_until(2_sec);
  ASSERT_EQ(b.received.size(), 4u);
  EXPECT_EQ(b.received.back().payload[0], 42);
}

TEST(ReceiveQueueTest, DetachCountsQueuedAsDroppedAndRecyclesPayloads) {
  Network net;
  Recorder a, b, c;
  net.attach(&a);
  const NodeId ib = net.attach(&b, {50_ms, 0_us, std::nullopt});
  const NodeId ic = net.attach(&c, {50_ms, 0_us, std::nullopt});
  net.set_link(a.node_id(), ib, {0_us, 0.0, 0.0});
  net.set_link(a.node_id(), ic, {0_us, 0.0, 0.0});
  for (std::uint8_t i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> payload = net.rent_buffer();
    payload.assign(32, i);
    net.send(a.node_id(), ib, std::move(payload));
    net.send(a.node_id(), ic, {i});  // interleaved in the same slab
  }
  net.run_until(1_ms);
  ASSERT_EQ(net.queue_length(ib), 5u);
  const std::size_t idle_before = net.engine_stats().buffers_idle;
  net.detach(ib);
  EXPECT_EQ(net.queue_length(ib), 0u);
  EXPECT_EQ(net.total_dropped(), 5u);
  EXPECT_EQ(net.engine_stats().buffers_idle, idle_before + 5);
  net.run_until(1_sec);
  EXPECT_TRUE(b.received.empty());
  // The sibling queue threaded through the same slab is untouched.
  ASSERT_EQ(c.received.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(c.received[i].payload[0], i);
}

TEST(LinkTableTest, MapsManyDestinationsThroughGrowth) {
  LinkTable table;
  EXPECT_EQ(table.find(NodeId(1)), LinkTable::kAbsent);
  EXPECT_EQ(table.bytes(), 0u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.insert(NodeId(7 + 3 * i), i);
  }
  EXPECT_EQ(table.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.find(NodeId(7 + 3 * i)), static_cast<std::int32_t>(i));
    EXPECT_EQ(table.find(NodeId(8 + 3 * i)), LinkTable::kAbsent);
  }
  // Load factor at most 3/4, capacity a power of four: 1,024 slots hold at
  // most 768 entries, so 1,000 take 4,096 slots of 8 B.
  EXPECT_EQ(table.bytes(), 4096u * 8u);
  std::size_t visited = 0;
  table.for_each([&](NodeId dst, std::uint32_t record) {
    EXPECT_EQ((dst.value() - 7) / 3, record);
    ++visited;
  });
  EXPECT_EQ(visited, 1000u);
}

TEST(NetworkTest, PerPairStatsAcrossManyDestinations) {
  // One source fanning out to hundreds of destinations (a game server's
  // update fan-out) keeps one record per pair through link-table growth.
  Network net;
  Recorder src;
  std::vector<Recorder> dst(300);
  net.attach(&src);
  for (Recorder& r : dst) net.attach(&r);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    for (std::size_t k = 0; k <= i % 3; ++k) {
      net.send(src.node_id(), dst[i].node_id(), {1, 2, 3});
    }
  }
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const LinkStats& stats = net.stats(src.node_id(), dst[i].node_id());
    EXPECT_EQ(stats.messages, i % 3 + 1) << i;
    EXPECT_EQ(stats.bytes, (i % 3 + 1) * (3 + kWireHeaderBytes)) << i;
  }
  EXPECT_EQ(net.stats(dst[0].node_id(), src.node_id()).messages, 0u);
  EXPECT_GT(net.engine_stats().link_table_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Engine counters & buffer pool (the hot-path overhaul's instrumentation)
// ---------------------------------------------------------------------------

TEST(EventQueueTest, CountsProcessedEventsAndPeakPending) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(SimTime::from_ms(i), [] {});
  }
  EXPECT_EQ(q.events_processed(), 0u);
  EXPECT_EQ(q.peak_pending(), 5u);
  q.run_all();
  EXPECT_EQ(q.events_processed(), 5u);
  EXPECT_EQ(q.peak_pending(), 5u);  // high-water mark survives the drain
}

TEST(EventQueueTest, OversizedCapturesStillRun) {
  // Captures beyond std::function's small buffer live on the heap —
  // behaviour, not layout, is the contract.
  EventQueue q;
  std::array<std::uint64_t, 64> big{};
  big[63] = 7;
  std::uint64_t seen = 0;
  q.schedule_at(1_ms, [big, &seen] { seen = big[63]; });
  q.run_all();
  EXPECT_EQ(seen, 7u);
}

TEST(NetworkTest, PayloadBuffersAreRecycled) {
  Network net;
  Recorder a, b;
  net.attach(&a);
  net.attach(&b);
  // Steady-state send/deliver cycles: after the first few messages warm the
  // pool, every rented buffer is a recycled one.
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint8_t> payload = net.rent_buffer();
    payload.assign(64, static_cast<std::uint8_t>(round));
    net.send(a.node_id(), b.node_id(), std::move(payload));
    net.run_until(net.now() + 1_sec);
  }
  const Network::EngineStats stats = net.engine_stats();
  EXPECT_EQ(stats.buffers_acquired, 20u);
  EXPECT_GE(stats.buffers_reused, 18u);  // all but the cold start
  EXPECT_GT(stats.events_processed, 0u);
  ASSERT_EQ(b.received.size(), 20u);
  EXPECT_EQ(b.received.back().payload[0], 19);
}

TEST(NetworkTest, TraceHashIsSeedStableAndTrafficSensitive) {
  auto run = [](std::uint64_t seed, int sends) {
    Network net(seed);
    Recorder a, b;
    net.attach(&a);
    net.attach(&b);
    net.enable_trace_hash();
    for (int i = 0; i < sends; ++i) {
      net.send(a.node_id(), b.node_id(), {static_cast<std::uint8_t>(i)});
    }
    net.run_until(1_sec);
    return net.trace_hash();
  };
  EXPECT_EQ(run(1, 3), run(1, 3));
  EXPECT_NE(run(1, 3), run(1, 4));
}

// ---------------------------------------------------------------------------
// Zero tails (net/message.h)
// ---------------------------------------------------------------------------

using Frame = std::vector<std::uint8_t>;

/// Frames of every shape a sender stores differently: all zeros, empty, a
/// head (itself possibly holding zeros) followed by zeros, and frames that
/// end in a nonzero byte.
std::vector<Frame> random_frames(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Frame> frames;
  for (int i = 0; i < count; ++i) {
    Frame frame(1 + rng.next_below(400));
    switch (i % 4) {
      case 0:
        break;  // all zeros
      case 1:
        frame.clear();
        break;
      case 2: {
        const std::size_t head = rng.next_below(frame.size());
        for (std::size_t j = 0; j < head; ++j) {
          frame[j] = static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      }
      default:
        for (std::uint8_t& b : frame) {
          b = static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        break;
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

/// Sends `frame` the way the protocol senders do: a head allocated for its
/// bytes up to the zero tail, plus the tail's length.  Returns the head's
/// capacity, which is what the in-flight gauge charges.
std::size_t send_trimmed(Network& net, NodeId src, NodeId dst,
                         const Frame& frame) {
  const std::size_t tail = zero_tail_length(frame);
  Frame head(frame.begin(), frame.end() - static_cast<std::ptrdiff_t>(tail));
  const std::size_t capacity = head.capacity();
  net.send(src, dst, std::move(head), tail);
  return capacity;
}

/// Records each handled frame with the instant its handler ran.
class FrameLog : public Node {
 public:
  [[nodiscard]] std::string name() const override { return "frame-log"; }
  void handle_message(const Envelope& env) override {
    EXPECT_EQ(env.zero_tail, 0u) << "handlers see whole frames";
    handled.emplace_back(network()->now().us(), env.payload);
  }
  std::vector<std::pair<std::int64_t, Frame>> handled;

  [[nodiscard]] std::vector<Frame> frames() const {
    std::vector<Frame> out;
    for (const auto& entry : handled) out.push_back(entry.second);
    return out;
  }
};

TEST(ZeroTailTest, TrimmedFramesAreSeenAndChargedLikeStoredOnes) {
  // The same frames, sent once with their zeros stored and once as a head
  // plus a count: handlers see the same bytes at the same instants (link
  // transfer delay and service time both scale with the frame), and the
  // wire sizes, link stats, byte totals and trace hash all agree.
  const std::vector<Frame> frames = random_frames(11, 64);
  struct Outcome {
    std::vector<std::pair<std::int64_t, Frame>> handled;
    std::vector<std::size_t> wire;
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> stats;
    std::uint64_t total_bytes = 0;
    std::uint64_t hash = 0;
  };
  auto run = [&](bool trimmed) {
    Network net(5);
    Recorder a;
    FrameLog b;
    net.attach(&a);
    net.attach(&b, {15_us, 200_us, std::nullopt});
    net.set_link(a.node_id(), b.node_id(), {1_ms, 1e6, 0.0});
    net.enable_trace_hash();
    Outcome out;
    for (const Frame& frame : frames) {
      if (trimmed) {
        const std::size_t tail = zero_tail_length(frame);
        Frame head(frame.begin(),
                   frame.end() - static_cast<std::ptrdiff_t>(tail));
        out.wire.push_back(
            net.send(a.node_id(), b.node_id(), std::move(head), tail));
      } else {
        out.wire.push_back(net.send(a.node_id(), b.node_id(), frame));
      }
      // Spaced so that a small frame never overtakes a large one.
      net.run_until(net.now() + 5_ms);
    }
    net.run_until(10_sec);
    out.handled = b.handled;
    const LinkStats& stats = net.stats(a.node_id(), b.node_id());
    out.stats = {stats.messages, stats.bytes, stats.dropped_messages};
    out.total_bytes = net.total_bytes();
    out.hash = net.trace_hash();
    EXPECT_EQ(net.engine_stats().payload_inflight_bytes, 0u);
    return out;
  };
  const Outcome stored = run(false);
  const Outcome trimmed = run(true);
  ASSERT_EQ(stored.handled.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(stored.handled[i].second, frames[i]) << "frame " << i;
  }
  EXPECT_EQ(trimmed.handled, stored.handled);
  EXPECT_EQ(trimmed.wire, stored.wire);
  EXPECT_EQ(trimmed.stats, stored.stats);
  EXPECT_EQ(trimmed.total_bytes, stored.total_bytes);
  EXPECT_EQ(trimmed.hash, stored.hash);
}

TEST(ZeroTailTest, EveryExitPathReturnsHeadsAndSlots) {
  // A trimmed message leaves the network by a drop on the link, a tail drop
  // at a full queue, a detach, or a delivery after crossing a shard
  // mailbox.  Each path must give its
  // head back (the in-flight gauge returns to where it started) and free
  // its envelope slot, and a delivered frame must arrive byte for byte.
  const std::vector<Frame> frames = random_frames(12, 16);

  {  // Link drop: nothing is stored at all.
    Network net;
    Recorder a, b;
    net.attach(&a);
    net.attach(&b);
    net.set_link(a.node_id(), b.node_id(), {1_ms, 0.0, 1.0});
    for (const Frame& frame : frames) {
      send_trimmed(net, a.node_id(), b.node_id(), frame);
    }
    EXPECT_EQ(net.total_dropped(), frames.size());
    EXPECT_EQ(net.engine_stats().payload_inflight_bytes, 0u);
    EXPECT_EQ(net.engine_stats().inflight_envelope_bytes, 0u);
  }

  {  // Tail drop at a two-message queue.
    Network net;
    Recorder a;
    FrameLog b;
    net.attach(&a);
    net.attach(&b, {1_ms, 0_us, std::size_t{2}});
    net.set_link(a.node_id(), b.node_id(), {0_us, 0.0, 0.0});
    std::size_t heads = 0;
    for (const Frame& frame : frames) {
      heads += send_trimmed(net, a.node_id(), b.node_id(), frame);
    }
    EXPECT_EQ(net.engine_stats().payload_inflight_bytes, heads);
    net.run_until(1_sec);
    EXPECT_EQ(b.frames(), (std::vector<Frame>{frames[0], frames[1]}));
    EXPECT_EQ(net.total_dropped(), frames.size() - 2);
    EXPECT_EQ(net.engine_stats().payload_inflight_bytes, 0u);
  }

  {  // Detach with half the frames queued and half on the wire; the freed
     // slots then carry the same traffic to another node.
    Network net;
    Recorder a;
    FrameLog b, c;
    net.attach(&a);
    const NodeId ib = net.attach(&b, {1_ms, 0_us, std::nullopt});
    const NodeId ic = net.attach(&c, {1_ms, 0_us, std::nullopt});
    net.set_default_link({10_ms, 0.0, 0.0});
    const std::size_t half = frames.size() / 2;
    auto send_in_halves = [&](NodeId dst) {
      for (std::size_t i = 0; i < half; ++i) {
        send_trimmed(net, a.node_id(), dst, frames[i]);
      }
      net.run_until(net.now() + 15_ms);  // arrived: some handled, the rest
                                         // queued
      for (std::size_t i = half; i < frames.size(); ++i) {
        send_trimmed(net, a.node_id(), dst, frames[i]);
      }
    };
    send_in_halves(ib);
    const Network::EngineStats before = net.engine_stats();
    net.detach(ib);
    net.run_until(1_sec);
    EXPECT_EQ(net.engine_stats().payload_inflight_bytes, 0u);
    send_in_halves(ic);
    net.run_until(2_sec);
    EXPECT_EQ(c.frames(), frames);
    const Network::EngineStats after = net.engine_stats();
    EXPECT_EQ(after.payload_inflight_bytes, 0u);
    EXPECT_EQ(after.inflight_envelope_bytes, before.inflight_envelope_bytes);
    EXPECT_EQ(after.receive_slab_bytes, before.receive_slab_bytes);
  }

  {  // Cross-shard mailbox: a relay on shard 0 forwards every frame,
     // trimmed, to a node on shard 1.
    class Relay : public Node {
     public:
      explicit Relay(const std::vector<Frame>& frames) : frames_(frames) {}
      [[nodiscard]] std::string name() const override { return "relay"; }
      void handle_message(const Envelope&) override {
        for (const Frame& frame : frames_) {
          send_trimmed(*network(), node_id(), target, frame);
        }
      }
      NodeId target;

     private:
      const std::vector<Frame>& frames_;
    };
    Network net;
    net.configure_shards(2, /*use_threads=*/false);
    Recorder a;
    Relay relay(frames);
    FrameLog far;
    net.attach(&a, {}, 0);
    net.attach(&relay, {}, 0);
    net.attach(&far, {}, 1);
    net.set_default_link({1_ms, 0.0, 0.0});  // no size-dependent overtaking
    relay.target = far.node_id();
    net.send(a.node_id(), relay.node_id(), {1});
    net.run_until(1_sec);
    EXPECT_EQ(far.frames(), frames);
    EXPECT_EQ(net.engine_stats().cross_shard_messages, frames.size());
    EXPECT_EQ(net.engine_stats().payload_inflight_bytes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Link records and overrides
// ---------------------------------------------------------------------------

TEST(NetworkTest, LinkOverridesStayWithTheirPair) {
  // Records hold an override by index only; link() still returns each
  // pair's latest override, and set_link folds an override into the
  // lookahead exactly when its pair crosses shards: same-shard links never
  // bound a window, and shards are fixed at attach, so the fold is final.
  Network net;
  net.configure_shards(2, /*use_threads=*/false);
  Recorder src, near, peer;
  net.attach(&src, {}, 0);
  net.attach(&near, {}, 0);
  net.attach(&peer, {}, 1);
  net.set_default_link({1_ms, 0.0, 0.0});
  const LinkConfig fast{40_us, 0.0, 0.0};
  const LinkConfig wan{20_ms, 1e6, 0.0};
  net.set_link(src.node_id(), near.node_id(), {10_us, 0.0, 0.0});
  net.set_link(src.node_id(), near.node_id(), wan);
  net.set_link(src.node_id(), near.node_id(), {2_ms, 0.0, 0.0});  // reset
  net.set_link(src.node_id(), peer.node_id(), wan);
  EXPECT_EQ(net.lookahead(), 1_ms);  // the 10 µs link is same-shard
  net.set_link(near.node_id(), peer.node_id(), fast);
  EXPECT_EQ(net.lookahead(), 40_us);
  net.send(src.node_id(), near.node_id(), {1});
  net.run_until(3_ms);
  EXPECT_TRUE(net.link(near.node_id(), peer.node_id()) == fast);
  EXPECT_EQ(net.link(src.node_id(), near.node_id()).latency, 2_ms);
  EXPECT_TRUE(net.link(src.node_id(), peer.node_id()) == wan);
  EXPECT_EQ(net.link(peer.node_id(), near.node_id()).latency, 1_ms);
  EXPECT_EQ(net.lookahead(), 40_us);
}

TEST(NetworkTest, BytesMatchingSumsTheStatsOfMatchedPairs) {
  // Random traffic across two shards' record stores: bytes_matching finds
  // every pair through the link tables and adds exactly its stats().
  Network net;
  net.configure_shards(2, /*use_threads=*/false);
  std::vector<std::unique_ptr<Recorder>> nodes;
  for (std::size_t i = 0; i < 8; ++i) {
    nodes.push_back(std::make_unique<Recorder>());
    net.attach(nodes.back().get(), {}, i % 2);
  }
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const NodeId src = nodes[rng.next_below(nodes.size())]->node_id();
    const NodeId dst = nodes[rng.next_below(nodes.size())]->node_id();
    net.send(src, dst, Frame(rng.next_below(100), 1));
  }
  net.run_until(1_sec);
  const std::function<bool(NodeId, NodeId)> preds[] = {
      [](NodeId, NodeId) { return true; },
      [](NodeId src, NodeId) { return src.value() % 2 == 0; },
      [](NodeId src, NodeId dst) { return src.value() + 1 == dst.value(); },
  };
  for (const auto& pred : preds) {
    std::uint64_t expected = 0;
    for (const auto& src : nodes) {
      for (const auto& dst : nodes) {
        if (pred(src->node_id(), dst->node_id())) {
          expected += net.stats(src->node_id(), dst->node_id()).bytes;
        }
      }
    }
    EXPECT_EQ(net.bytes_matching(pred), expected);
  }
  EXPECT_EQ(net.bytes_matching(preds[0]), net.total_bytes());
}

}  // namespace
}  // namespace matrix
