// End-to-end integration tests: full deployments on the simulated network,
// real game servers, real bots.  Scaled-down versions of the paper's
// scenarios (smaller thresholds and populations keep each test < a few
// seconds) exercising the complete split / reclaim / handoff machinery.
#include <gtest/gtest.h>

#include "baseline/static_partitioning.h"
#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace matrix {
namespace {

using namespace time_literals;

/// Small-scale options: overload at 40 clients, split quickly.
DeploymentOptions small_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.visibility_radius = 60.0;
  options.config.overload_clients = 40;
  options.config.underload_clients = 20;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.spec = bzflag_like();
  options.initial_servers = 1;
  options.pool_size = 7;
  options.map_objects = 60;
  options.seed = 2026;
  return options;
}

TEST(DeploymentTest, BootsSingleRootCoveringWholeWorld) {
  auto options = small_options();
  Deployment deployment(options);
  EXPECT_EQ(deployment.active_server_count(), 1u);
  EXPECT_EQ(deployment.pool().idle_count(), 7u);
  EXPECT_TRUE(
      deployment.coordinator().partition_map().tiles(options.config.world));
}

TEST(DeploymentTest, GridBaselineTilesWorldForAnyN) {
  for (std::size_t n : {2u, 3u, 4u, 5u, 7u, 9u}) {
    auto options = static_partitioning_options(small_options(), n);
    Deployment deployment(options);
    EXPECT_EQ(deployment.active_server_count(), n);
    EXPECT_TRUE(deployment.coordinator().partition_map().tiles(
        options.config.world))
        << "n=" << n;
  }
}

TEST(DeploymentTest, BotsConnectAndPlay) {
  Deployment deployment(small_options());
  for (int i = 0; i < 10; ++i) {
    deployment.add_bot({100.0 + 50.0 * i, 500.0});
  }
  deployment.run_until(5_sec);
  EXPECT_EQ(deployment.total_clients(), 10u);
  const LatencySummary latency = collect_latency(deployment);
  EXPECT_GT(latency.actions, 100u);  // ~10 Hz × 10 bots × 5 s
  EXPECT_GT(latency.self_ms.count(), 100u);
  // WAN RTT is 50ms; self latency should sit near it and comfortably under
  // the 150ms interactivity budget.
  EXPECT_GT(latency.self_ms.median(), 45.0);
  EXPECT_LT(latency.self_ms.percentile(99), 150.0);
}

TEST(DeploymentTest, BotsReceiveDigestUpdates) {
  Deployment deployment(small_options());
  for (int i = 0; i < 6; ++i) {
    deployment.add_bot({500.0 + 5.0 * i, 500.0});
  }
  deployment.run_until(4_sec);
  for (const BotClient* bot : deployment.bots()) {
    EXPECT_GT(bot->metrics().updates_received, 10u) << bot->name();
  }
  const LatencySummary latency = collect_latency(deployment);
  EXPECT_GT(latency.observer_ms.count(), 0u);
}

TEST(IntegrationTest, HotspotTriggersSplitAndRedistribution) {
  Deployment deployment(small_options());
  ScenarioSpec().flash(1_sec, 90, {200, 200}, 20.0).schedule(deployment);
  deployment.run_until(20_sec);

  // 90 clients ≫ overload 40: at least one split must have happened.
  EXPECT_GE(deployment.active_server_count(), 2u);
  // A couple of clients may be mid-handoff at the sampling instant (session
  // torn down at the old server, hello in flight to the new one).
  EXPECT_GE(deployment.total_clients(), 88u);
  EXPECT_LE(deployment.total_clients(), 90u);
  EXPECT_TRUE(deployment.coordinator().partition_map().tiles(
      deployment.options().config.world));

  // Load actually redistributed: no active server should still hold
  // everyone.
  std::size_t max_on_one = 0;
  for (const GameServer* game : deployment.game_servers()) {
    max_on_one = std::max(max_on_one, game->client_count());
  }
  EXPECT_LT(max_on_one, 90u);

  // Clients were handed off with measurable switch latency.
  const LatencySummary latency = collect_latency(deployment);
  EXPECT_GT(latency.switches, 0u);
  EXPECT_GT(latency.switch_ms.count(), 0u);
}

TEST(IntegrationTest, LoadEasingReclaimsServers) {
  auto options = small_options();
  Deployment deployment(options);
  ScenarioSpec().flash(1_sec, 90, {200, 200}, 20.0).schedule(deployment);
  deployment.run_until(15_sec);
  const std::size_t peak = deployment.active_server_count();
  ASSERT_GE(peak, 2u);

  // Everyone leaves; servers should consolidate back toward 1.
  deployment.remove_bots(90);
  deployment.run_until(60_sec);
  EXPECT_LT(deployment.active_server_count(), peak);
  EXPECT_TRUE(deployment.coordinator().partition_map().tiles(
      options.config.world));
  std::uint64_t reclaims = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    reclaims += server->stats().reclaims_completed;
  }
  EXPECT_GT(reclaims, 0u);
}

TEST(IntegrationTest, StaticBaselineDoesNotSplit) {
  auto options = static_partitioning_options(small_options(), 2);
  Deployment deployment(options);
  ScenarioSpec().flash(1_sec, 90, {200, 200}, 20.0).schedule(deployment);
  deployment.run_until(15_sec);
  EXPECT_EQ(deployment.active_server_count(), 2u);
  for (const MatrixServer* server : deployment.matrix_servers()) {
    EXPECT_EQ(server->stats().splits_initiated, 0u);
  }
}

TEST(IntegrationTest, MatrixBeatsStaticOnQueueDepth) {
  // The paper's headline: under a hotspot, Matrix sheds load while the
  // static scheme's receive queue grows without relief.
  auto base = small_options();
  // 90 hotspot clients at ~10 Hz ≈ 900 msg/s against a ~650 msg/s server:
  // clearly past saturation, so the static server's queue diverges while
  // Matrix splits its way back under capacity.
  base.game_node.service_per_message = SimTime::from_us(1500);
  base.config.topology_cooldown = 1_sec;
  // Centre the hotspot near the first split lines (x=500, y=500) so a few
  // splits divide the crowd; a corner hotspot needs the full recursive
  // descent, which the Fig. 2 bench exercises at full scale instead.
  const Vec2 hotspot{480, 480};

  auto matrix_options = adaptive_options(base, 1, 7);
  Deployment matrix_run(matrix_options);
  MetricsSampler matrix_metrics(matrix_run, 1_sec);
  ScenarioSpec().flash(1_sec, 90, hotspot, 80.0).schedule(matrix_run);
  matrix_run.run_until(30_sec);

  auto static_options = static_partitioning_options(base, 2);
  Deployment static_run(static_options);
  MetricsSampler static_metrics(static_run, 1_sec);
  ScenarioSpec().flash(1_sec, 90, hotspot, 80.0).schedule(static_run);
  static_run.run_until(30_sec);

  EXPECT_GE(matrix_run.active_server_count(), 2u);
  // At the end of the run Matrix has drained its queues; the static
  // hotspot server is still drowning.
  double matrix_final = 0.0, static_final = 0.0;
  for (const auto& series : matrix_metrics.queue_per_server()) {
    matrix_final = std::max(matrix_final, series.value_at(29.0));
  }
  for (const auto& series : static_metrics.queue_per_server()) {
    static_final = std::max(static_final, series.value_at(29.0));
  }
  EXPECT_GT(static_final, 100.0);
  EXPECT_LT(matrix_final, static_final / 2.0);
}

TEST(IntegrationTest, CrossServerVisibilityIsMaintained) {
  // Two bots standing on opposite sides of a partition boundary must see
  // each other's events (localized consistency across servers).
  auto options = static_partitioning_options(small_options(), 2);
  options.spec.move_speed = 0.0;  // sentinels: hold position exactly
  Deployment deployment(options);
  // Static 2-grid splits at x=500.  Park two bots astride the boundary.
  BotClient* left = deployment.add_bot({495, 500});
  BotClient* right = deployment.add_bot({505, 500});
  deployment.run_until(5_sec);

  EXPECT_NE(left->current_server(), right->current_server());
  // Each server saw remote events from the other side.
  std::uint64_t remote_events = 0;
  for (const GameServer* game : deployment.game_servers()) {
    remote_events += game->stats().remote_events;
  }
  EXPECT_GT(remote_events, 0u);
  // Matrix-to-matrix traffic flowed.
  const TrafficBreakdown traffic = collect_traffic(deployment);
  EXPECT_GT(traffic.matrix_to_matrix, 0u);
}

TEST(IntegrationTest, InteriorOnlyWorkloadSendsNoPeerTraffic) {
  // All bots in the deep interior of one static partition: consistency
  // sets are empty, so no matrix↔matrix data-plane packets at all.
  auto options = static_partitioning_options(small_options(), 2);
  Deployment deployment(options);
  for (int i = 0; i < 5; ++i) {
    deployment.add_bot({200.0 + i, 500.0}, Vec2{200, 500});
  }
  deployment.run_until(5_sec);
  std::uint64_t fanned = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    fanned += server->stats().packets_fanned_out;
  }
  EXPECT_EQ(fanned, 0u);
}

TEST(IntegrationTest, MigrationFollowsWanderingBot) {
  // A bot attracted across the boundary must be migrated to the other
  // server, transparently.
  auto options = static_partitioning_options(small_options(), 2);
  Deployment deployment(options);
  BotClient* bot = deployment.add_bot({400, 500});
  deployment.run_until(1_sec);
  const NodeId before = bot->current_server();
  bot->set_attraction(Vec2{700, 500});  // walk across x=500
  deployment.run_until(40_sec);
  EXPECT_NE(bot->current_server(), before);
  EXPECT_GT(bot->metrics().switches, 0u);
  std::uint64_t migrated = 0;
  for (const GameServer* game : deployment.game_servers()) {
    migrated += game->stats().clients_migrated;
  }
  EXPECT_GT(migrated, 0u);
}

TEST(IntegrationTest, MapObjectsConservedAcrossSplitsAndReclaims) {
  auto options = small_options();
  Deployment deployment(options);
  ScenarioSpec().flash(1_sec, 90, {200, 200}, 20.0).schedule(deployment);
  deployment.run_until(15_sec);
  deployment.remove_bots(90);
  deployment.run_until(50_sec);

  std::size_t objects = 0;
  for (const GameServer* game : deployment.game_servers()) {
    objects += game->map_object_count();
  }
  EXPECT_EQ(objects, options.map_objects);
}

TEST(IntegrationTest, PoolExhaustionDegradesGracefully) {
  auto options = small_options();
  options.pool_size = 1;  // only one spare for a large hotspot
  Deployment deployment(options);
  ScenarioSpec().flash(1_sec, 90, {200, 200}, 20.0).schedule(deployment);
  deployment.run_until(20_sec);
  // Both servers end up overloaded and at least one further split was
  // denied — but the game keeps running and every client stays connected.
  EXPECT_EQ(deployment.active_server_count(), 2u);
  EXPECT_EQ(deployment.total_clients(), 90u);
  std::uint64_t denied = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    denied += server->stats().split_denied_no_server;
  }
  EXPECT_GT(denied, 0u);
}

TEST(IntegrationTest, CoordinatorFailoverIsTransparentToRouting) {
  // Kill the MC mid-game: data-plane routing must not miss a beat (tables
  // are local), and the standby must rebuild the map from re-registrations
  // so that later topology changes still work.
  auto options = static_partitioning_options(small_options(), 2);
  options.spec.move_speed = 0.0;
  Deployment deployment(options);
  deployment.add_bot({495, 500});  // boundary sentinels force peer traffic
  deployment.add_bot({505, 500});
  deployment.run_until(3_sec);

  std::uint64_t fanned_before = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    fanned_before += server->stats().packets_fanned_out;
  }
  ASSERT_GT(fanned_before, 0u);

  deployment.fail_over_coordinator();
  deployment.run_until(6_sec);

  // Routing continued across the fail-over window.
  std::uint64_t fanned_after = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    fanned_after += server->stats().packets_fanned_out;
  }
  EXPECT_GT(fanned_after, fanned_before);

  // The standby rebuilt the full map from re-registrations and pushed
  // fresh tables.
  EXPECT_EQ(deployment.coordinator().partition_map().size(), 2u);
  EXPECT_TRUE(deployment.coordinator().partition_map().tiles(
      deployment.options().config.world));
  EXPECT_GE(deployment.coordinator().tables_pushed(), 2u);
}

TEST(IntegrationTest, SplitsStillWorkAfterCoordinatorFailover) {
  auto options = small_options();
  Deployment deployment(options);
  deployment.run_until(2_sec);
  deployment.fail_over_coordinator();
  deployment.run_until(4_sec);

  ScenarioSpec().flash(4_sec, 90, {480, 480}, 80.0).schedule(deployment);
  deployment.run_until(25_sec);
  EXPECT_GE(deployment.active_server_count(), 2u);
  EXPECT_TRUE(deployment.coordinator().partition_map().tiles(
      options.config.world));
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  // Same seed ⇒ identical topology evolution and traffic totals.
  auto run_once = [] {
    Deployment deployment(small_options());
    ScenarioSpec().flash(1_sec, 60, {200, 200}, 20.0).schedule(deployment);
    deployment.run_until(12_sec);
    return std::tuple{deployment.active_server_count(),
                      deployment.network().total_messages(),
                      deployment.network().total_bytes()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(IntegrationTest, LinkLossDoesNotWedgeTheControlPlane) {
  // 2% loss on every link: some packets vanish, but splits still complete
  // and the world keeps tiling.  (Data-plane loss is acceptable — the
  // paper's consistency is already best-effort localized.)
  auto options = small_options();
  options.wan.drop_probability = 0.02;
  options.lan.drop_probability = 0.002;
  Deployment deployment(options);
  ScenarioSpec().flash(1_sec, 90, {200, 200}, 20.0).schedule(deployment);
  deployment.run_until(20_sec);
  EXPECT_GE(deployment.active_server_count(), 2u);
  EXPECT_TRUE(deployment.coordinator().partition_map().tiles(
      deployment.options().config.world));
  EXPECT_GT(deployment.network().total_dropped(), 0u);
}

}  // namespace
}  // namespace matrix
