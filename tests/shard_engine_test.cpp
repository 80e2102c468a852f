// Sharded parallel engine (net/network.h): conservative-window correctness,
// deterministic cross-shard mailbox merge order, and run-to-run stability of
// the per-shard golden-hash chains — sequential and threaded execution must
// be indistinguishable.
//
// The companion macro-level pins live in tests/determinism_test.cpp (K=1
// golden hashes are the serial engine's own pins; the K=4 deployment hash is
// pinned there too).  This file exercises the engine directly.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "sim/deployment.h"
#include "sim/scenario.h"

namespace matrix {
namespace {

using namespace time_literals;

/// Test node recording deliveries.
class Recorder : public Node {
 public:
  [[nodiscard]] std::string name() const override { return "recorder"; }
  void handle_message(const Envelope& env) override { received.push_back(env); }
  std::vector<Envelope> received;
};

/// On any delivery, fans `count` tagged messages out to `target`.
class Fanout : public Node {
 public:
  Fanout(std::uint8_t tag, int count) : tag_(tag), count_(count) {}
  [[nodiscard]] std::string name() const override { return "fanout"; }
  void handle_message(const Envelope&) override {
    for (int i = 0; i < count_; ++i) {
      network()->send(node_id(), target,
                      {tag_, static_cast<std::uint8_t>(i)});
    }
  }
  NodeId target;

 private:
  std::uint8_t tag_;
  int count_;
};

TEST(ShardEngineTest, ConfigureShardsAssignsOwnership) {
  Network net;
  EXPECT_FALSE(net.sharded());
  EXPECT_EQ(net.shard_count(), 1u);
  net.configure_shards(3, /*use_threads=*/false);
  EXPECT_TRUE(net.sharded());
  EXPECT_EQ(net.shard_count(), 3u);

  Recorder a, b, c;
  net.attach(&a, {}, 0);
  net.attach(&b, {}, 1);
  net.attach(&c, {}, 7);  // out of range: clamped to the last shard
  EXPECT_EQ(net.shard_of(a.node_id()), 0u);
  EXPECT_EQ(net.shard_of(b.node_id()), 1u);
  EXPECT_EQ(net.shard_of(c.node_id()), 2u);
}

TEST(ShardEngineTest, LookaheadIsMinimumCrossShardLatency) {
  Network net;
  net.configure_shards(2, /*use_threads=*/false);
  Recorder a, b;
  net.attach(&a, {}, 0);
  net.attach(&b, {}, 1);
  net.set_default_link({25_ms, 0.0, 0.0});
  EXPECT_EQ(net.lookahead(), 25_ms);
  // Intra-shard overrides never tighten the window.
  net.set_link(a.node_id(), a.node_id(), {10_us, 0.0, 0.0});
  EXPECT_EQ(net.lookahead(), 25_ms);
  // A faster cross-shard override does.
  net.set_link(a.node_id(), b.node_id(), {300_us, 0.0, 0.0});
  EXPECT_EQ(net.lookahead(), 300_us);
}

TEST(ShardEngineTest, CrossShardDeliveryMatchesSerialTiming) {
  // The same two-hop topology, serial and sharded: deliveries must land at
  // identical times with identical payloads — conservative windows change
  // the execution schedule, never the simulated one.
  const NodeConfig instant{0_us, 0_us, std::nullopt};
  auto run = [&](std::size_t shards) {
    Network net;
    if (shards > 1) net.configure_shards(shards, /*use_threads=*/false);
    Recorder dst;
    Fanout relay{/*tag=*/9, /*count=*/4};
    net.attach(&dst, instant, 0);
    net.attach(&relay, instant, shards > 1 ? 1 : 0);
    relay.target = dst.node_id();
    net.set_default_link({3_ms, 0.0, 0.0});
    net.send(dst.node_id(), relay.node_id(), {1});  // kick at t=0
    net.run_until(1_sec);
    std::vector<std::pair<std::int64_t, int>> out;
    for (const Envelope& env : dst.received) {
      out.emplace_back(env.delivered_at.us(), env.payload[1]);
    }
    return out;
  };
  const auto serial = run(1);
  const auto sharded = run(2);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(serial.front().first, 6000);  // 3ms kick + 3ms reply
}

TEST(ShardEngineTest, MailboxMergeOrdersByTimeThenSourceShard) {
  // Two senders on different shards fan out to one destination with equal
  // link latency, so every message carries the SAME deliver time.  The merge
  // contract: ties resolve by (source shard, send order) — never by which
  // worker finished first.
  Network net;
  net.configure_shards(3, /*use_threads=*/false);
  const NodeConfig instant{0_us, 0_us, std::nullopt};
  Recorder dst;
  Fanout f1{/*tag=*/1, /*count=*/3};
  Fanout f2{/*tag=*/2, /*count=*/3};
  net.attach(&dst, instant, 0);
  net.attach(&f1, instant, 1);
  net.attach(&f2, instant, 2);
  f1.target = dst.node_id();
  f2.target = dst.node_id();
  net.set_default_link({1_ms, 0.0, 0.0});

  // Both kicks arrive at 1ms; both handlers send at 1ms; all six messages
  // deliver at exactly 2ms.
  net.send(dst.node_id(), f1.node_id(), {0});
  net.send(dst.node_id(), f2.node_id(), {0});
  net.run_until(10_ms);

  ASSERT_EQ(dst.received.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const Envelope& env = dst.received[i];
    EXPECT_EQ(env.delivered_at, 2_ms);
    EXPECT_EQ(env.payload[0], i < 3 ? 1 : 2) << "message " << i;
    EXPECT_EQ(env.payload[1], static_cast<std::uint8_t>(i % 3));
  }
  EXPECT_EQ(net.engine_stats().cross_shard_messages, 6u);
}

TEST(ShardEngineTest, SingleShardConfigKeepsSerialTraceHash) {
  // configure_shards(1) must leave the engine byte-identical to an
  // unconfigured network: same RNG stream, same hash chain, serial path.
  auto run = [](bool configure) {
    Network net(42);
    if (configure) net.configure_shards(1);
    Recorder a, b;
    net.attach(&a);
    net.attach(&b);
    net.set_link(a.node_id(), b.node_id(), {1_ms, 0.0, 0.3});
    net.enable_trace_hash();
    for (int i = 0; i < 50; ++i) {
      net.send(a.node_id(), b.node_id(), {static_cast<std::uint8_t>(i)});
    }
    net.run_until(1_sec);
    return net.trace_hash();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ShardEngineTest, TraceMergeCoversMoreThanSixtyFourShards) {
  // The barrier's trace merge keeps one cursor per shard whatever the shard
  // count.  Sequential windows, so 65 shards start no thread.
  constexpr std::size_t kShards = 65;
  Network net;
  net.configure_shards(kShards, /*use_threads=*/false);
  net.enable_tracing();
  const NodeConfig instant{0_us, 0_us, std::nullopt};
  std::vector<Recorder> sinks(kShards);
  std::vector<std::unique_ptr<Fanout>> relays;
  for (std::size_t i = 0; i < kShards; ++i) net.attach(&sinks[i], instant, i);
  for (std::size_t i = 0; i < kShards; ++i) {
    relays.push_back(
        std::make_unique<Fanout>(static_cast<std::uint8_t>(i), /*count=*/1));
    net.attach(relays.back().get(), instant, i);
    relays.back()->target = sinks[(i + 1) % kShards].node_id();
  }
  net.set_default_link({1_ms, 0.0, 0.0});
  // Kick every relay from its own shard's sink; each reply crosses into the
  // next shard through a mailbox, traced on the sending shard.
  for (std::size_t i = 0; i < kShards; ++i) {
    net.send(sinks[i].node_id(), relays[i]->node_id(), {0});
  }
  net.run_until(10_ms);
  for (std::size_t i = 0; i < kShards; ++i) {
    const Recorder& sink = sinks[(i + 1) % kShards];
    ASSERT_EQ(sink.received.size(), 1u) << "shard " << i;
    EXPECT_EQ(sink.received[0].payload[0], i);
    EXPECT_EQ(sink.received[0].delivered_at, 2_ms);
  }
  EXPECT_EQ(net.engine_stats().cross_shard_messages, kShards);
  EXPECT_EQ(net.tracer().events_recorded(), 2 * kShards);
}

// ---------------------------------------------------------------------------
// The threaded barrier: shard 0 on the calling thread, K−1 workers that spin
// and then park on a generation counter
// ---------------------------------------------------------------------------

/// One sink per shard; the sink on shard 0 pings every other sink at t=0.
struct PingNet {
  explicit PingNet(std::size_t shards) : sinks(shards) {
    net.configure_shards(shards, /*use_threads=*/true);
    const NodeConfig instant{0_us, 0_us, std::nullopt};
    for (std::size_t i = 0; i < shards; ++i) net.attach(&sinks[i], instant, i);
    net.set_default_link({300_us, 0.0, 0.0});
    for (std::size_t i = 1; i < shards; ++i) {
      net.send(sinks[0].node_id(), sinks[i].node_id(), {1});
    }
  }
  Network net;
  std::vector<Recorder> sinks;
};

TEST(ShardEngineTest, FreshWorkersServeTheRunAfterTheFirstWindow) {
  // Workers spawn on the first window dispatch.  One that took its starting
  // generation after that dispatch's bump would wait for a later bump
  // forever, and the second run_until would never return.
  for (const std::size_t shards : {2u, 4u}) {
    for (int round = 0; round < 200; ++round) {
      PingNet ping(shards);
      ping.net.run_until(100_us);  // one window: spawns the workers
      ping.net.run_until(1_ms);    // runs on the workers just spawned
      for (std::size_t i = 1; i < shards; ++i) {
        ASSERT_EQ(ping.sinks[i].received.size(), 1u)
            << "K=" << shards << " round " << round << " shard " << i;
      }
    }
  }
}

TEST(ShardEngineTest, ParkedWorkersStopOnReconfigureAndDestroy) {
  // A worker parks once its spin (at most ~0.6 ms) runs out;
  // configure_shards and the destructor must still wake and join it.
  Network net;
  net.configure_shards(4, /*use_threads=*/true);
  net.run_until(1_ms);  // an empty window still spawns the workers
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.configure_shards(2, /*use_threads=*/true);
  EXPECT_EQ(net.shard_count(), 2u);
  {
    PingNet ping(4);
    ping.net.run_until(1_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }  // destroyed with three workers parked
  // The reconfigured network's new workers serve windows.
  Recorder a, b;
  net.attach(&a, {0_us, 0_us, std::nullopt}, 0);
  net.attach(&b, {0_us, 0_us, std::nullopt}, 1);
  net.set_default_link({300_us, 0.0, 0.0});
  net.send(a.node_id(), b.node_id(), {1});
  net.run_until(5_ms);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].delivered_at, 1_ms + 300_us);
}

// ---------------------------------------------------------------------------
// Deployment-level: full scenarios under K=4, threaded and sequential
// ---------------------------------------------------------------------------

DeploymentOptions sharded_options(std::size_t shards, bool threads) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 60;
  options.config.underload_clients = 30;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.config.engine.shards = shards;
  options.config.engine.threads = threads;
  options.spec = quake_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = 4;
  options.pool_size = 4;
  options.map_objects = 120;
  options.seed = 2005;
  return options;
}

std::vector<std::uint64_t> sharded_scenario_hashes(std::size_t shards,
                                                   bool threads) {
  OverloadScenarioOptions scenario;
  scenario.flash_bots = 300;
  scenario.duration = 12_sec;
  Deployment deployment(sharded_options(shards, threads));
  deployment.network().enable_trace_hash();
  schedule_overload_scenario(deployment, scenario);
  deployment.run_until(scenario.duration);
  return deployment.network().shard_trace_hashes();
}

TEST(ShardEngineTest, ShardedDeploymentIsRunToRunStable) {
  const auto first = sharded_scenario_hashes(4, /*threads=*/true);
  const auto second = sharded_scenario_hashes(4, /*threads=*/true);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, second)
      << "K=4 must be bit-stable across runs: the barrier merge or a shard "
         "RNG stream is nondeterministic.";
}

TEST(ShardEngineTest, ThreadedMatchesSequentialExecution) {
  // Worker threads are an execution detail: the per-shard hash chains must
  // be identical whether windows run on a pool or on the main thread.
  const auto threaded = sharded_scenario_hashes(4, /*threads=*/true);
  const auto sequential = sharded_scenario_hashes(4, /*threads=*/false);
  EXPECT_EQ(threaded, sequential);
}

TEST(ShardEngineTest, ShardedDeploymentServesClients) {
  // Sanity beyond hashing: a K=2 deployment actually runs the scenario —
  // clients join, servers split, traffic flows across the shard boundary.
  OverloadScenarioOptions scenario;
  scenario.flash_bots = 200;
  scenario.duration = 10_sec;
  Deployment deployment(sharded_options(2, /*threads=*/true));
  schedule_overload_scenario(deployment, scenario);
  deployment.run_until(scenario.duration);
  EXPECT_GT(deployment.total_clients(), 100u);
  const Network::EngineStats stats = deployment.network().engine_stats();
  EXPECT_GT(stats.cross_shard_messages, 0u);
  EXPECT_GT(stats.windows, 0u);
  // Each window's dispatch spans its slowest shard, so the imbalance is the
  // part of the stall that a free handoff would leave.
  EXPECT_LE(stats.window_imbalance_us, stats.window_stall_us);
}

}  // namespace
}  // namespace matrix
