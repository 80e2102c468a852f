// Coordinator-led global admission (src/control/global_admission.h):
// strictest-wins composition, the directive floor's hysteresis contract,
// depth-weighted token shares, the LoadDigest → AdmissionDirective wire
// loop, and the cross-server surge-queue handoff on split.
#include <gtest/gtest.h>

#include "control/global_admission.h"
#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// compose_admission — strictest wins
// ---------------------------------------------------------------------------

TEST(ComposeAdmissionTest, StrictestWins) {
  const AdmissionState states[3] = {AdmissionState::kNormal,
                                    AdmissionState::kSoft,
                                    AdmissionState::kHard};
  for (AdmissionState local : states) {
    for (AdmissionState floor : states) {
      const AdmissionState composed = compose_admission(local, floor);
      EXPECT_EQ(composed, std::max(local, floor));
      // Composition can never relax either input...
      EXPECT_GE(composed, local);
      EXPECT_GE(composed, floor);
      // ...and is symmetric.
      EXPECT_EQ(composed, compose_admission(floor, local));
    }
  }
}

// ---------------------------------------------------------------------------
// GlobalAdmission — pressure, floor hysteresis, shares
// ---------------------------------------------------------------------------

GlobalAdmissionConfig global_config() {
  GlobalAdmissionConfig config;
  config.enabled = true;
  config.soft_pressure = 0.65;
  config.hard_pressure = 0.85;
  config.token_rate_total = 30.0;
  config.token_rate_floor = 1.0;
  config.dwell = 2_sec;
  config.recover_min = 5_sec;
  config.directive_interval = 1_sec;
  return config;
}

GlobalAdmission::ServerDigest digest(std::uint32_t clients,
                                     std::uint32_t waiting,
                                     AdmissionState state) {
  GlobalAdmission::ServerDigest d;
  d.load.client_count = clients;
  d.load.waiting_count = waiting;
  d.state = state;
  return d;
}

TEST(GlobalAdmissionTest, QuietDeploymentStaysNormal) {
  GlobalAdmission global(global_config(), 100);
  EXPECT_FALSE(global.active());
  global.observe_pool(1_sec, 4, 4);  // pool fully idle
  global.observe_server(1_sec, ServerId(1),
                        digest(30, 0, AdmissionState::kNormal));
  EXPECT_EQ(global.floor(), AdmissionState::kNormal);
  EXPECT_FALSE(global.active());
  EXPECT_LT(global.pressure(), 0.2);
}

TEST(GlobalAdmissionTest, SaturationEscalatesImmediately) {
  GlobalAdmission global(global_config(), 100);
  global.observe_pool(1_sec, 0, 4);  // pool dry: 0.40
  // Every server at the overload threshold (0.30), HARD (0.20), with a
  // half-overload waiting room (0.10) → pressure 1.0 ≥ hard threshold.
  for (std::uint64_t s = 1; s <= 3; ++s) {
    global.observe_server(1_sec, ServerId(s),
                          digest(100, 50, AdmissionState::kHard));
  }
  EXPECT_EQ(global.floor(), AdmissionState::kHard);
  EXPECT_TRUE(global.active());
  EXPECT_GE(global.pressure(), 0.85);
  EXPECT_EQ(global.waiting_total(), 150u);
  // Escalation may skip levels and needs no dwell — like the local valve.
  EXPECT_GE(global.stats().escalations, 1u);
  EXPECT_TRUE(global.timeline_valid());
}

TEST(GlobalAdmissionTest, RelaxationIsSlowAndSingleStepped) {
  GlobalAdmission global(global_config(), 100);
  global.observe_pool(1_sec, 0, 4);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    global.observe_server(1_sec, ServerId(s),
                          digest(100, 50, AdmissionState::kHard));
  }
  ASSERT_EQ(global.floor(), AdmissionState::kHard);

  // Everything calms down at t=2 s: pool refilled, servers idle.
  auto calm_all = [&](SimTime at) {
    global.observe_pool(at, 4, 4);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      global.observe_server(at, ServerId(s),
                            digest(5, 0, AdmissionState::kNormal));
    }
  };
  calm_all(2_sec);
  EXPECT_EQ(global.floor(), AdmissionState::kHard);  // not yet: recover_min
  calm_all(4_sec);
  EXPECT_EQ(global.floor(), AdmissionState::kHard);  // 2 s of calm < 5 s
  calm_all(7500_ms);
  // 5.5 s of continuous calm, dwell satisfied → exactly ONE step down.
  EXPECT_EQ(global.floor(), AdmissionState::kSoft);
  calm_all(8_sec);
  EXPECT_EQ(global.floor(), AdmissionState::kSoft);  // window re-armed
  calm_all(13_sec);
  EXPECT_EQ(global.floor(), AdmissionState::kNormal);
  EXPECT_FALSE(global.active());
  EXPECT_TRUE(global.timeline_valid());
  EXPECT_EQ(global.transitions().size(), 3u);
}

TEST(GlobalAdmissionTest, SharesWeightStarvedPartitions) {
  GlobalAdmission global(global_config(), 100);
  global.observe_pool(1_sec, 0, 4);
  global.observe_server(1_sec, ServerId(1),
                        digest(100, 90, AdmissionState::kHard));
  global.observe_server(1_sec, ServerId(2),
                        digest(100, 10, AdmissionState::kSoft));
  global.observe_server(1_sec, ServerId(3),
                        digest(100, 0, AdmissionState::kSoft));
  ASSERT_TRUE(global.active());

  const double deep = global.share_for(ServerId(1));
  const double shallow = global.share_for(ServerId(2));
  const double empty = global.share_for(ServerId(3));
  // Every server gets the 1.0 floor first; the remaining 27/s divides by
  // weight 1 + waiting → 91 : 11 : 1.
  EXPECT_NEAR(deep, 1.0 + 27.0 * 91.0 / 103.0, 1e-9);
  EXPECT_NEAR(shallow, 1.0 + 27.0 * 11.0 / 103.0, 1e-9);
  EXPECT_NEAR(empty, 1.0 + 27.0 * 1.0 / 103.0, 1e-9);
  EXPECT_GT(deep, 5.0 * shallow);  // starved partition dominates
  // Shares sum to EXACTLY the deployment budget — the floor is reserved,
  // not clamped on top (which would overspend by up to N×floor).
  EXPECT_NEAR(deep + shallow + empty, 30.0, 1e-9);
  // An unknown server gets the floor, never a nonsense share.
  EXPECT_DOUBLE_EQ(global.share_for(ServerId(9)), 1.0);
}

TEST(GlobalAdmissionTest, ForgetServerDropsItsWeight) {
  GlobalAdmission global(global_config(), 100);
  global.observe_pool(1_sec, 0, 4);
  global.observe_server(1_sec, ServerId(1),
                        digest(100, 90, AdmissionState::kHard));
  global.observe_server(1_sec, ServerId(2),
                        digest(100, 10, AdmissionState::kHard));
  ASSERT_EQ(global.tracked_servers(), 2u);
  global.forget_server(2_sec, ServerId(1));
  EXPECT_EQ(global.tracked_servers(), 1u);
  EXPECT_EQ(global.waiting_total(), 10u);
  // The survivor now carries the whole budget.
  EXPECT_NEAR(global.share_for(ServerId(2)), 30.0, 1e-9);
}

TEST(GlobalAdmissionTest, BroadcastCadenceIsBounded) {
  GlobalAdmission global(global_config(), 100);
  global.observe_pool(1_sec, 0, 4);
  global.observe_server(1_sec, ServerId(1),
                        digest(100, 50, AdmissionState::kHard));
  ASSERT_TRUE(global.active());
  EXPECT_TRUE(global.broadcast_due(1_sec));  // never broadcast yet
  global.mark_broadcast(1_sec);
  EXPECT_FALSE(global.broadcast_due(1500_ms));  // within directive_interval
  EXPECT_TRUE(global.broadcast_due(2100_ms));
}

// ---------------------------------------------------------------------------
// Wire loop: LoadDigest → MC → AdmissionDirective → one AdmissionUpdate
// ---------------------------------------------------------------------------

Config global_wire_config() {
  Config config;
  config.overload_clients = 100;
  config.admission.enabled = true;
  // Local thresholds far away: the LOCAL valve stays NORMAL throughout,
  // so any SOFT the game server sees is the coordinator's floor.
  config.admission.soft_load_fraction = 5.0;
  config.admission.hard_load_fraction = 6.0;
  config.admission.soft_queue_length = 1000000;
  config.admission.hard_queue_length = 2000000;
  config.admission.soft_denied_streak = 0;
  config.admission.hard_denied_streak = 0;
  config.admission.soft_pool_idle_fraction = -1.0;  // disable pre-escalation
  config.admission.global.enabled = true;
  config.admission.global.soft_pressure = 0.3;
  config.admission.global.hard_pressure = 0.9;
  config.admission.global.token_rate_total = 24.0;
  return config;
}

TEST(GlobalAdmissionWireTest, DigestsFlowAndDirectiveComposes) {
  ControlHarness harness(2, global_wire_config());
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 500, 1000), {50.0});
  harness.matrix_servers[1]->activate_root(Rect(500, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  // Pool dry (0.40) + load (≈0.3×0.75) pushes pressure past 0.3 → SOFT
  // floor, even though every LOCAL valve is NORMAL.
  harness.games[0]->inject(harness.mc_node, PoolStatus{0, 4});
  LoadReport report;
  report.client_count = 75;
  report.waiting_count = 40;
  harness.games[0]->inject(harness.matrix_servers[0]->node_id(), report);
  harness.games[1]->inject(harness.matrix_servers[1]->node_id(), report);
  harness.run_for(200_ms);

  // The MC heard digests from both servers...
  const GlobalAdmission& global = harness.coordinator.global_admission();
  EXPECT_EQ(global.tracked_servers(), 2u);
  EXPECT_EQ(global.waiting_total(), 80u);
  ASSERT_TRUE(global.active());
  EXPECT_EQ(global.floor(), AdmissionState::kSoft);
  EXPECT_GT(harness.coordinator.directives_broadcast(), 0u);

  // ...each Matrix server composed the floor with its NORMAL local valve...
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(harness.matrix_servers[s]->admission_state(),
              AdmissionState::kNormal);
    EXPECT_EQ(harness.matrix_servers[s]->effective_admission_state(),
              AdmissionState::kSoft);
    EXPECT_TRUE(harness.matrix_servers[s]->directive_active());
    EXPECT_GT(harness.matrix_servers[s]->stats().directives_received, 0u);
    EXPECT_GT(harness.matrix_servers[s]->stats().digests_sent, 0u);
  }

  // ...and the game side heard all of it in one AdmissionUpdate: the
  // COMPOSED state, the directive's token share and the active flag.  No
  // directive travels matrix → game.
  const AdmissionUpdate* update = harness.games[0]->last<AdmissionUpdate>();
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->state, static_cast<std::uint8_t>(AdmissionState::kSoft));
  EXPECT_GT(update->token_rate, 0.0);
  EXPECT_NE(update->token_rate,
            global_wire_config().admission.token_rate_per_sec);
  EXPECT_TRUE(update->directive_active);
  EXPECT_EQ(harness.games[0]->last<AdmissionDirective>(), nullptr);
}

TEST(GlobalAdmissionWireTest, StaleDirectiveIsIgnored) {
  ControlHarness harness(1, global_wire_config());
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  AdmissionDirective fresh;
  fresh.seq = 10;
  fresh.floor = static_cast<std::uint8_t>(AdmissionState::kHard);
  fresh.active = true;
  harness.games[0]->inject(harness.matrix_servers[0]->node_id(), fresh);
  harness.run_for(20_ms);
  EXPECT_EQ(harness.matrix_servers[0]->effective_admission_state(),
            AdmissionState::kHard);

  // A reordered older directive (lower seq, lower floor) must not reopen
  // the valve.
  AdmissionDirective stale;
  stale.seq = 5;
  stale.floor = static_cast<std::uint8_t>(AdmissionState::kNormal);
  stale.active = false;
  harness.games[0]->inject(harness.matrix_servers[0]->node_id(), stale);
  harness.run_for(20_ms);
  EXPECT_EQ(harness.matrix_servers[0]->effective_admission_state(),
            AdmissionState::kHard);

  // A genuinely newer rescind does.
  AdmissionDirective rescind;
  rescind.seq = 11;
  rescind.active = false;
  harness.games[0]->inject(harness.matrix_servers[0]->node_id(), rescind);
  harness.run_for(20_ms);
  EXPECT_EQ(harness.matrix_servers[0]->effective_admission_state(),
            AdmissionState::kNormal);
}

TEST(GlobalAdmissionWireTest, DirectiveFloorBlocksReclaim) {
  // A parent whose LOCAL valve is NORMAL but whose directive floor is
  // elevated must not reclaim: the composed state gates bulk handoffs too.
  Config config = global_wire_config();
  config.underload_clients = 50;
  config.topology_cooldown = 100_ms;
  ControlHarness harness(2, config);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.park(1);
  harness.run_for(50_ms);

  // Drive a split so server 0 has a reclaimable child.
  config.overload_clients = 100;
  harness.report_load(0, 120);
  harness.run_for(600_ms);
  harness.report_load(0, 120);
  harness.run_for(600_ms);
  harness.ack_shed(0);
  harness.run_for(600_ms);
  ASSERT_EQ(harness.matrix_servers[0]->child_count(), 1u);

  // Clamp via directive, then report deep underload on both sides.
  AdmissionDirective clamp;
  clamp.seq = 100;
  clamp.floor = static_cast<std::uint8_t>(AdmissionState::kSoft);
  clamp.active = true;
  harness.games[0]->inject(harness.matrix_servers[0]->node_id(), clamp);
  harness.run_for(1500_ms);  // past cooldown, heartbeats flowing
  harness.report_load(1, 5);
  harness.run_for(1500_ms);
  harness.report_load(0, 5);
  harness.run_for(200_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().reclaims_initiated, 0u);

  // Rescind → the same underload now reclaims.
  AdmissionDirective rescind;
  rescind.seq = 101;
  rescind.active = false;
  harness.games[0]->inject(harness.matrix_servers[0]->node_id(), rescind);
  harness.run_for(200_ms);
  harness.report_load(0, 5);
  harness.run_for(200_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().reclaims_initiated, 1u);
}

// ---------------------------------------------------------------------------
// Cross-server queue handoff on a live split
// ---------------------------------------------------------------------------

TEST(GlobalAdmissionDeploymentTest, SplitHandsOffParkedJoins) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 800, 800);
  options.config.overload_clients = 40;
  options.config.underload_clients = 10;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 1_sec;
  options.config.load_report_interval = 500_ms;

  options.config.admission.enabled = true;
  // SOFT from the first digest (pressure threshold ~0): every fresh join
  // beyond the token budget parks, building the room the split will move.
  options.config.admission.global.enabled = true;
  options.config.admission.global.soft_pressure = 0.01;
  options.config.admission.global.hard_pressure = 0.9;
  options.config.admission.global.token_rate_total = 60.0;
  options.config.admission.global.queue_handoff = true;
  // A healthy token rate: sessions still reach the overload threshold so
  // the split actually fires while latecomers wait in the room.
  options.config.admission.token_rate_per_sec = 15.0;
  options.config.admission.token_burst = 20.0;
  options.config.admission.soft_waiting_count = 1;  // deep room stays SOFT
  options.config.admission.priority.queue_enabled = true;
  options.config.admission.priority.queue_capacity = 512;

  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = 1;
  options.pool_size = 1;
  options.map_objects = 0;
  options.seed = 7;

  Deployment deployment(options);
  // A left-half hotspot: the paper's split hands the LEFT half to the
  // child, so the parked left-half joins must re-park there.  The vanguard
  // lands first so the valve is already SOFT (directive floor) when the
  // main crowd arrives and parks.
  ScenarioSpec()
      .flash(500_ms, 30, {180.0, 400.0}, 60.0)
      .flash(3_sec, 100, {180.0, 400.0}, 60.0)
      .schedule(deployment);
  deployment.run_until(30_sec);

  const AdmissionSummary summary = collect_admission(deployment);
  EXPECT_GT(summary.joins_queued, 0u);
  // The split moved parked joins instead of leaving them at the parent:
  // entries were extracted on one side and adopted on the other.
  EXPECT_GT(summary.queue_handed_off, 0u);
  EXPECT_GT(summary.queue_adopted, 0u);
  EXPECT_LE(summary.queue_adopted, summary.queue_handed_off);
  // Handoff must not corrupt the admission machinery.
  EXPECT_TRUE(summary.timelines_valid);
  EXPECT_TRUE(summary.global_timeline_valid);
  // The deployment actually split and kept admitting afterwards.
  EXPECT_GE(deployment.active_server_count(), 2u);
  EXPECT_GT(deployment.total_clients(), 40u);
}

}  // namespace
}  // namespace matrix
