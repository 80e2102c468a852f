// Tests for the simulation harness itself (sim/): deployment wiring,
// metrics sampling, scenario scripting, traffic accounting, game models,
// bot behaviour — plus the multi-radius (exceptional visibility) plumbing
// end to end.
#include <gtest/gtest.h>

#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace matrix {
namespace {

using namespace time_literals;

DeploymentOptions base_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 50;
  options.config.underload_clients = 25;
  options.spec = bzflag_like();
  options.initial_servers = 1;
  options.pool_size = 3;
  options.map_objects = 40;
  options.seed = 77;
  return options;
}

// ---------------------------------------------------------------------------
// Game models
// ---------------------------------------------------------------------------

TEST(GameModelTest, ThreeModelsHaveDistinctSignatures) {
  const auto bz = bzflag_like();
  const auto q = quake_like();
  const auto d = daimonin_like();
  // Rate ordering: quake > bzflag > daimonin.
  EXPECT_LT(q.action_interval, bz.action_interval);
  EXPECT_LT(bz.action_interval, d.action_interval);
  // Radius ordering: daimonin > bzflag > quake.
  EXPECT_GT(d.visibility_radius, bz.visibility_radius);
  EXPECT_GT(bz.visibility_radius, q.visibility_radius);
  // Daimonin is the chatty, teleporting one.
  EXPECT_GT(d.chat_fraction, bz.chat_fraction);
  EXPECT_GT(d.non_proximal_fraction, q.non_proximal_fraction);
}

TEST(GameModelTest, PayloadSizesByKind) {
  const auto spec = bzflag_like();
  EXPECT_EQ(spec.payload_size(ActionKind::kMove), spec.move_payload);
  EXPECT_EQ(spec.payload_size(ActionKind::kFire), spec.fire_payload);
  EXPECT_EQ(spec.payload_size(ActionKind::kChat), spec.chat_payload);
  EXPECT_GT(spec.chat_payload, spec.move_payload);
}

TEST(GameModelTest, AllRadiiListsDefaultFirst) {
  auto spec = daimonin_like();
  const auto radii = spec.all_radii();
  ASSERT_EQ(radii.size(), 2u);
  EXPECT_DOUBLE_EQ(radii[0], 120.0);
  EXPECT_DOUBLE_EQ(radii[1], 240.0);
}

// ---------------------------------------------------------------------------
// Deployment wiring
// ---------------------------------------------------------------------------

TEST(SimDeploymentTest, MapObjectsSeededOnRoots) {
  auto options = base_options();
  options.initial_servers = 2;
  Deployment deployment(options);
  std::size_t objects = 0;
  for (const GameServer* game : deployment.game_servers()) {
    objects += game->map_object_count();
  }
  EXPECT_EQ(objects, options.map_objects);
}

TEST(SimDeploymentTest, ColocatedLinkIsFasterThanLan) {
  auto options = base_options();
  Deployment deployment(options);
  const NodeId m = deployment.matrix_servers()[0]->node_id();
  const NodeId g = deployment.game_servers()[0]->node_id();
  const NodeId mc = deployment.coordinator().node_id();
  EXPECT_LT(deployment.network().link(m, g).latency,
            deployment.network().link(m, mc).latency);
  // Client links default to WAN.
  BotClient* bot = deployment.add_bot({500, 500});
  EXPECT_EQ(deployment.network().link(bot->node_id(), g).latency,
            options.wan.latency);
}

TEST(SimDeploymentTest, RemoveBotsPrefersNearest) {
  Deployment deployment(base_options());
  BotClient* far = deployment.add_bot({900, 900});
  for (int i = 0; i < 5; ++i) deployment.add_bot({100.0 + i, 100.0});
  deployment.run_until(2_sec);
  ASSERT_EQ(deployment.total_clients(), 6u);
  deployment.remove_bots(5, Vec2{100, 100});
  deployment.run_until(4_sec);
  EXPECT_EQ(deployment.total_clients(), 1u);
  EXPECT_TRUE(far->connected());
}

TEST(SimDeploymentTest, ServerForFallsBackWhenMapEmpty) {
  // Bots added before any registration settle must still connect somewhere.
  Deployment deployment(base_options());
  BotClient* bot = deployment.add_bot({12, 12});
  deployment.run_until(1_sec);
  EXPECT_TRUE(bot->connected());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, SamplerRecordsSeriesPerServerSlot) {
  auto options = base_options();
  Deployment deployment(options);
  MetricsSampler metrics(deployment, 500_ms);
  for (int i = 0; i < 4; ++i) deployment.add_bot({200.0 + i, 200.0});
  deployment.run_until(5_sec);
  EXPECT_EQ(metrics.clients_per_server().size(),
            options.initial_servers + options.pool_size);
  EXPECT_DOUBLE_EQ(metrics.clients_per_server()[0].value_at(4.5), 4.0);
  EXPECT_DOUBLE_EQ(metrics.active_servers().value_at(4.5), 1.0);
  EXPECT_DOUBLE_EQ(metrics.total_clients().value_at(4.5), 4.0);
  EXPECT_DOUBLE_EQ(metrics.pool_idle().value_at(4.5), 3.0);
}

TEST(MetricsTest, StopHaltsSampling) {
  Deployment deployment(base_options());
  MetricsSampler metrics(deployment, 100_ms);
  deployment.run_until(1_sec);
  metrics.stop();
  const auto points = metrics.active_servers().points().size();
  deployment.run_until(3_sec);
  EXPECT_EQ(metrics.active_servers().points().size(), points);
}

TEST(MetricsTest, TrafficBreakdownPartitionsTotals) {
  Deployment deployment(base_options());
  for (int i = 0; i < 5; ++i) deployment.add_bot({500.0 + i, 500.0});
  deployment.run_until(5_sec);
  const TrafficBreakdown traffic = collect_traffic(deployment);
  EXPECT_GT(traffic.client_to_server, 0u);
  EXPECT_GT(traffic.game_to_matrix, 0u);
  EXPECT_GT(traffic.matrix_to_mc, 0u);  // registrations + tables
  // Categories are disjoint subsets of the total.
  EXPECT_LE(traffic.client_to_server + traffic.game_to_matrix +
                traffic.matrix_to_matrix + traffic.matrix_to_mc,
            traffic.total);
}

// ---------------------------------------------------------------------------
// Scenario scripting
// ---------------------------------------------------------------------------

TEST(ScenarioTest, EventsFireAtScheduledTimes) {
  Deployment deployment(base_options());
  ScenarioSpec()
      .background(1_sec, 5)
      .flash(3_sec, 7, {200, 200}, 30.0)
      .depart(6_sec, 4, Vec2{200, 200})
      .schedule(deployment);

  deployment.run_until(500_ms);
  EXPECT_EQ(deployment.bots().size(), 0u);
  deployment.run_until(2_sec);
  EXPECT_EQ(deployment.bots().size(), 5u);
  deployment.run_until(4_sec);
  EXPECT_EQ(deployment.bots().size(), 12u);
  deployment.run_until(8_sec);
  EXPECT_EQ(deployment.total_clients(), 8u);  // 12 - 4 leavers
}

TEST(ScenarioTest, HotspotScenarioSchedulesFullTimeline) {
  auto options = base_options();
  options.pool_size = 5;
  Deployment deployment(options);
  HotspotScenarioOptions scenario;
  scenario.background_bots = 5;
  scenario.hotspot_bots = 20;
  scenario.first_hotspot_at = 1_sec;
  scenario.hold = 3_sec;
  scenario.departure_group = 10;
  scenario.departure_interval = 1_sec;
  scenario.second_hotspot = true;
  scenario.second_hotspot_at = 8_sec;
  scenario.second_hotspot_bots = 20;
  scenario.second_hold = 2_sec;
  schedule_hotspot_scenario(deployment, scenario);

  deployment.run_until(2_sec);
  EXPECT_EQ(deployment.bots().size(), 25u);
  deployment.run_until(7_sec);   // first hotspot fully departed
  EXPECT_EQ(deployment.total_clients(), 5u);
  deployment.run_until(9_sec);   // second hotspot joined
  EXPECT_EQ(deployment.total_clients(), 25u);
  deployment.run_until(14_sec);  // second departed
  EXPECT_EQ(deployment.total_clients(), 5u);
}

// ---------------------------------------------------------------------------
// Exceptional radii end to end
// ---------------------------------------------------------------------------

TEST(ExceptionalRadiusTest, SecondRadiusClassRoutesWithWiderReach) {
  // Static 2-grid, daimonin-like (R0=120, R1=240, 5% seers).  A normal
  // client at distance 180 from the boundary is interior (no forwarding);
  // a seer at the same spot must be forwarded to the neighbour.
  auto options = base_options();
  options.spec = daimonin_like();
  options.spec.move_speed = 0.0;
  options.spec.exceptional_radius_fraction = 1.0;  // every client a seer
  options.config.visibility_radius = options.spec.visibility_radius;
  options.config.allow_split = false;
  options.config.allow_reclaim = false;
  options.initial_servers = 2;
  options.pool_size = 0;
  Deployment deployment(options);
  // x=500 boundary; stand at 320: distance 180 ∈ (120, 240).
  deployment.add_bot({320, 500});
  deployment.run_until(5_sec);
  std::uint64_t fanned = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    fanned += server->stats().packets_fanned_out;
  }
  EXPECT_GT(fanned, 0u) << "seer events must cross at distance 180";

  // Control: the same geometry with no seers stays interior.
  auto control = options;
  control.spec.exceptional_radius_fraction = 0.0;
  Deployment control_deployment(control);
  control_deployment.add_bot({320, 500});
  control_deployment.run_until(5_sec);
  std::uint64_t control_fanned = 0;
  for (const MatrixServer* server : control_deployment.matrix_servers()) {
    control_fanned += server->stats().packets_fanned_out;
  }
  EXPECT_EQ(control_fanned, 0u);
}

TEST(ExceptionalRadiusTest, AssignmentIsProportionalAcrossClientIds) {
  // The per-client assignment uses the SplitMix64 finalizer over the
  // globally-unique client id; check the realized seer fraction over a
  // large id range matches the configured fraction (and, being a pure
  // function of the id, it is trivially stable across handoffs).
  std::size_t seers = 0;
  const std::size_t n = 10000;
  const double fraction = 0.25;
  for (std::size_t i = 1; i <= n; ++i) {
    std::uint64_t z = i + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    if (static_cast<double>(z >> 11) * 0x1.0p-53 < fraction) ++seers;
  }
  EXPECT_NEAR(static_cast<double>(seers) / static_cast<double>(n), fraction,
              0.02);
}

}  // namespace
}  // namespace matrix
