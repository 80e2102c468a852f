// Tests for the admission & overload-protection subsystem (src/control/):
// the AdmissionController's state machine and hysteresis contract (pure
// unit tests), the timeline validator, and the Matrix-server integration
// (AdmissionUpdate pushes, pool-denial escalation, exponential backoff,
// reclaim gating) driven through the control harness.
#include <gtest/gtest.h>

#include "control/admission.h"
#include "control/token_bucket.h"
#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

/// Overload threshold used by every controller unit test: SOFT at 80
/// clients, HARD at 120.
constexpr std::uint32_t kOverload = 100;

AdmissionConfig unit_config() {
  AdmissionConfig config;
  config.enabled = true;
  config.soft_load_fraction = 0.8;
  config.hard_load_fraction = 1.2;
  config.soft_queue_length = 100;
  config.hard_queue_length = 400;
  config.soft_denied_streak = 1;
  config.hard_denied_streak = 3;
  config.soft_pool_idle_fraction = 0.25;
  config.pool_pressure_load_fraction = 0.5;
  config.token_rate_per_sec = 2.0;
  config.token_burst = 2.0;
  config.dwell = 1_sec;
  config.recover_min = 3_sec;
  return config;
}

LoadView calm() { return {}; }
LoadView load(std::uint32_t clients) {
  LoadView s;
  s.load.client_count = clients;
  return s;
}

// ---------------------------------------------------------------------------
// Target severity (the mode-selection equation)
// ---------------------------------------------------------------------------

TEST(AdmissionTarget, LoadThresholds) {
  AdmissionController c(unit_config(), kOverload);
  EXPECT_EQ(c.target_for(load(79)), AdmissionState::kNormal);
  EXPECT_EQ(c.target_for(load(80)), AdmissionState::kSoft);
  EXPECT_EQ(c.target_for(load(119)), AdmissionState::kSoft);
  EXPECT_EQ(c.target_for(load(120)), AdmissionState::kHard);
}

TEST(AdmissionTarget, QueueThresholds) {
  AdmissionController c(unit_config(), kOverload);
  LoadView s;
  s.load.queue_length = 99;
  EXPECT_EQ(c.target_for(s), AdmissionState::kNormal);
  s.load.queue_length = 100;
  EXPECT_EQ(c.target_for(s), AdmissionState::kSoft);
  s.load.queue_length = 400;
  EXPECT_EQ(c.target_for(s), AdmissionState::kHard);
}

TEST(AdmissionTarget, WaitingCountThresholds) {
  // Queue-depth as an admission signal: a deepening waiting room means the
  // token budget is losing the race.
  AdmissionConfig config = unit_config();
  config.soft_waiting_count = 50;
  config.hard_waiting_count = 200;
  AdmissionController c(config, kOverload);
  LoadView s;
  s.load.waiting_count = 49;
  EXPECT_EQ(c.target_for(s), AdmissionState::kNormal);
  s.load.waiting_count = 50;
  EXPECT_EQ(c.target_for(s), AdmissionState::kSoft);
  s.load.waiting_count = 200;
  EXPECT_EQ(c.target_for(s), AdmissionState::kHard);
}

TEST(AdmissionTarget, WaitingCountDisabledByDefault) {
  // Thresholds default to 0 = off: PR-2 behaviour is bit-identical.
  AdmissionController c(unit_config(), kOverload);
  LoadView s;
  s.load.waiting_count = 100000;
  EXPECT_EQ(c.target_for(s), AdmissionState::kNormal);
}

TEST(AdmissionTarget, DeniedStreakEscalates) {
  AdmissionController c(unit_config(), kOverload);
  LoadView s;
  s.split_denied_streak = 1;
  EXPECT_EQ(c.target_for(s), AdmissionState::kSoft);
  s.split_denied_streak = 3;
  EXPECT_EQ(c.target_for(s), AdmissionState::kHard);
}

TEST(AdmissionTarget, PoolPressurePreEscalatesLoadedServer) {
  AdmissionController c(unit_config(), kOverload);
  LoadView s;
  s.load.client_count = 50;  // at pool_pressure_load_fraction × overload
  s.pool_idle_fraction = 0.2;
  EXPECT_EQ(c.target_for(s), AdmissionState::kSoft);
  // A healthy pool, or a lightly loaded server, does not pre-escalate.
  s.pool_idle_fraction = 1.0;
  EXPECT_EQ(c.target_for(s), AdmissionState::kNormal);
  s.pool_idle_fraction = 0.0;
  s.load.client_count = 30;
  EXPECT_EQ(c.target_for(s), AdmissionState::kNormal);
  // Unknown pool occupancy never escalates.
  s.pool_idle_fraction = -1.0;
  s.load.client_count = 50;
  EXPECT_EQ(c.target_for(s), AdmissionState::kNormal);
}

// ---------------------------------------------------------------------------
// Hysteresis: escalation immediate, relaxation slow
// ---------------------------------------------------------------------------

TEST(AdmissionHysteresis, DisabledNeverTransitions) {
  AdmissionConfig config = unit_config();
  config.enabled = false;
  AdmissionController c(config, kOverload);
  EXPECT_FALSE(c.observe(1_sec, load(500)));
  EXPECT_EQ(c.state(), AdmissionState::kNormal);
  EXPECT_TRUE(c.transitions().empty());
}

TEST(AdmissionHysteresis, EscalationIsImmediate) {
  AdmissionController c(unit_config(), kOverload);
  EXPECT_TRUE(c.observe(1_sec, load(85)));
  EXPECT_EQ(c.state(), AdmissionState::kSoft);
  // Straight to HARD one millisecond later — no dwell on the way up.
  EXPECT_TRUE(c.observe(SimTime::from_ms(1001), load(130)));
  EXPECT_EQ(c.state(), AdmissionState::kHard);
  ASSERT_EQ(c.transitions().size(), 2u);
  EXPECT_EQ(c.stats().escalations, 2u);
}

TEST(AdmissionHysteresis, EscalationMaySkipSoft) {
  AdmissionController c(unit_config(), kOverload);
  EXPECT_TRUE(c.observe(1_sec, load(200)));
  EXPECT_EQ(c.state(), AdmissionState::kHard);
  ASSERT_EQ(c.transitions().size(), 1u);
  EXPECT_EQ(c.transitions()[0].from, AdmissionState::kNormal);
  EXPECT_EQ(c.transitions()[0].to, AdmissionState::kHard);
}

TEST(AdmissionHysteresis, RelaxationRequiresRecoverMin) {
  AdmissionController c(unit_config(), kOverload);
  c.observe(1_sec, load(85));  // SOFT
  // Calm from t=2 s; recover_min is 3 s, so nothing before t=5 s.
  EXPECT_FALSE(c.observe(2_sec, calm()));
  EXPECT_FALSE(c.observe(4_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kSoft);
  EXPECT_TRUE(c.observe(5_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kNormal);
  EXPECT_EQ(c.stats().relaxations, 1u);
}

TEST(AdmissionHysteresis, FlappingSignalResetsStability) {
  AdmissionController c(unit_config(), kOverload);
  c.observe(1_sec, load(85));   // SOFT
  c.observe(2_sec, calm());     // calm window opens at 2 s...
  c.observe(3_sec, load(90));   // ...and is voided: still SOFT-severity
  c.observe(4_sec, calm());     // window restarts at 4 s
  EXPECT_FALSE(c.observe(6_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kSoft);
  EXPECT_TRUE(c.observe(7_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kNormal);
}

TEST(AdmissionHysteresis, RelaxationStepsOneLevelAtATime) {
  AdmissionController c(unit_config(), kOverload);
  c.observe(1_sec, load(200));  // HARD
  c.observe(2_sec, calm());
  EXPECT_TRUE(c.observe(5_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kSoft);  // not straight to NORMAL
  // The next step needs a fresh stability window.
  c.observe(6_sec, calm());
  EXPECT_FALSE(c.observe(8_sec, calm()));
  EXPECT_TRUE(c.observe(9_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kNormal);
  EXPECT_TRUE(admission_timeline_valid(c.transitions(), unit_config().dwell,
                                       unit_config().recover_min));
}

TEST(AdmissionHysteresis, DwellBlocksRapidRelaxation) {
  AdmissionConfig config = unit_config();
  config.dwell = 5_sec;
  config.recover_min = 1_sec;
  AdmissionController c(config, kOverload);
  c.observe(1_sec, load(85));  // SOFT at t=1 s
  c.observe(2_sec, calm());
  // Stability satisfied at t=3 s, but dwell (5 s since the transition)
  // holds the valve until t=6 s.
  EXPECT_FALSE(c.observe(3_sec, calm()));
  EXPECT_FALSE(c.observe(SimTime::from_ms(5900), calm()));
  EXPECT_TRUE(c.observe(6_sec, calm()));
  EXPECT_EQ(c.state(), AdmissionState::kNormal);
  EXPECT_TRUE(admission_timeline_valid(c.transitions(), config.dwell,
                                       config.recover_min));
}

TEST(AdmissionHysteresis, ResetReturnsToNormal) {
  AdmissionController c(unit_config(), kOverload);
  c.observe(1_sec, load(200));
  EXPECT_EQ(c.state(), AdmissionState::kHard);
  c.reset(2_sec);
  EXPECT_EQ(c.state(), AdmissionState::kNormal);
  EXPECT_TRUE(c.transitions().empty());
}

// ---------------------------------------------------------------------------
// The SOFT-mode token budget the game server's join gate spends
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, SpendsBurstThenRefillsAtRate) {
  TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.try_take(1_sec));
  EXPECT_TRUE(bucket.try_take(1_sec));
  EXPECT_FALSE(bucket.try_take(1_sec));  // burst spent
  // One second later the bucket has refilled (rate 2/s, capped at burst 2).
  EXPECT_TRUE(bucket.try_take(2_sec));
  EXPECT_TRUE(bucket.try_take(2_sec));
  EXPECT_FALSE(bucket.try_take(2_sec));
}

// ---------------------------------------------------------------------------
// Timeline validator
// ---------------------------------------------------------------------------

TEST(AdmissionTimeline, AcceptsLegalTimeline) {
  const AdmissionConfig config = unit_config();  // dwell 1 s, recover 3 s
  const std::vector<AdmissionTransition> legal = {
      {1_sec, AdmissionState::kNormal, AdmissionState::kHard},
      {5_sec, AdmissionState::kHard, AdmissionState::kSoft},
      {6_sec, AdmissionState::kSoft, AdmissionState::kHard},  // immediate up
  };
  EXPECT_TRUE(admission_timeline_valid(legal, config.dwell, config.recover_min));
}

TEST(AdmissionTimeline, RejectsTwoLevelRelaxation) {
  const std::vector<AdmissionTransition> bad = {
      {1_sec, AdmissionState::kNormal, AdmissionState::kHard},
      {9_sec, AdmissionState::kHard, AdmissionState::kNormal},
  };
  EXPECT_FALSE(admission_timeline_valid(bad, unit_config().dwell,
                                        unit_config().recover_min));
}

TEST(AdmissionTimeline, RejectsEarlyRelaxation) {
  const std::vector<AdmissionTransition> bad = {
      {1_sec, AdmissionState::kNormal, AdmissionState::kSoft},
      {2_sec, AdmissionState::kSoft, AdmissionState::kNormal},  // < recover
  };
  EXPECT_FALSE(admission_timeline_valid(bad, unit_config().dwell,
                                        unit_config().recover_min));
}

TEST(AdmissionTimeline, RejectsBrokenChain) {
  const std::vector<AdmissionTransition> bad = {
      {1_sec, AdmissionState::kNormal, AdmissionState::kSoft},
      {9_sec, AdmissionState::kHard, AdmissionState::kSoft},
  };
  EXPECT_FALSE(admission_timeline_valid(bad, unit_config().dwell,
                                        unit_config().recover_min));
}

// ---------------------------------------------------------------------------
// Matrix-server integration (control harness)
// ---------------------------------------------------------------------------

Config admission_config() {
  Config config;
  config.world = Rect(0, 0, 1000, 1000);
  config.visibility_radius = 50.0;
  config.overload_clients = 300;  // SOFT at 255, HARD at 345
  config.underload_clients = 150;
  config.sustain_reports_to_split = 2;
  config.topology_cooldown = 500_ms;
  config.load_report_interval = 100_ms;
  config.peer_load_interval = 100_ms;
  config.pool_backoff_initial = 100_ms;
  config.pool_backoff_max = 400_ms;
  config.admission.enabled = true;
  config.admission.soft_denied_streak = 1;
  config.admission.hard_denied_streak = 2;
  config.admission.dwell = 200_ms;
  config.admission.recover_min = 500_ms;
  return config;
}

TEST(AdmissionIntegration, MatrixPushesStateToGame) {
  ControlHarness harness(1, admission_config());
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  harness.report_load(0, 260);  // ≥ 0.85 × 300 ⇒ SOFT
  harness.run_for(20_ms);
  const AdmissionUpdate* update = harness.games[0]->last<AdmissionUpdate>();
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->state,
            static_cast<std::uint8_t>(AdmissionState::kSoft));

  harness.report_load(0, 400);  // ≥ 1.15 × 300 ⇒ HARD
  harness.run_for(20_ms);
  update = harness.games[0]->last<AdmissionUpdate>();
  ASSERT_NE(update, nullptr);
  EXPECT_EQ(update->state,
            static_cast<std::uint8_t>(AdmissionState::kHard));
  EXPECT_EQ(harness.matrix_servers[0]->stats().admission_updates, 2u);
}

TEST(AdmissionIntegration, PoolDenialStreakEscalatesAndBacksOff) {
  // No spare servers: every split attempt is denied.  The denial streak
  // escalates admission (1 ⇒ SOFT, 2 ⇒ HARD) and the retry backoff doubles.
  ControlHarness harness(1, admission_config());
  MatrixServer& server = *harness.matrix_servers[0];
  server.activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  // Overloaded enough to split (≥ 300) but below the HARD load line (345):
  // any HARD state must come from the denial streak, not raw load.
  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().split_denied_no_server, 1u);
  EXPECT_EQ(server.stats().split_denied_streak, 1u);
  EXPECT_EQ(server.stats().pool_backoff_us, 100'000u);
  EXPECT_EQ(server.admission_state(), AdmissionState::kSoft);

  // After the backoff, the next sustained overload is denied again.
  harness.run_for(150_ms);
  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().split_denied_no_server, 2u);
  EXPECT_EQ(server.stats().pool_backoff_us, 200'000u);
  EXPECT_EQ(server.admission_state(), AdmissionState::kHard);

  // Two more denials: 400 ms, then capped at 400 ms.
  harness.run_for(250_ms);
  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().pool_backoff_us, 400'000u);
  harness.run_for(450_ms);
  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().split_denied_no_server, 4u);
  EXPECT_EQ(server.stats().pool_backoff_us, 400'000u);  // capped

  const AdmissionConfig config = admission_config().admission;
  EXPECT_TRUE(admission_timeline_valid(server.admission().transitions(),
                                       config.dwell, config.recover_min));
}

TEST(AdmissionIntegration, CalmReportEndsDenialEpisode) {
  // One denial must not latch the valve forever: with the overload gone no
  // further PoolAcquire (and hence no clearing PoolGrant) would ever be
  // sent, so the calm report itself ends the episode and the valve relaxes
  // on the hysteresis schedule.
  ControlHarness harness(1, admission_config());
  MatrixServer& server = *harness.matrix_servers[0];
  server.activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  ASSERT_EQ(server.stats().split_denied_streak, 1u);
  ASSERT_EQ(server.admission_state(), AdmissionState::kSoft);

  // The crowd leaves: the streak clears immediately, and after recover_min
  // (500 ms) of calm the valve reopens — no permanent SOFT, no blocked
  // reclaim.
  for (int i = 0; i < 8; ++i) {
    harness.report_load(0, 50);
    harness.run_for(100_ms);
  }
  EXPECT_EQ(server.stats().split_denied_streak, 0u);
  EXPECT_EQ(server.stats().pool_backoff_us, 0u);
  EXPECT_EQ(server.admission_state(), AdmissionState::kNormal);
}

TEST(AdmissionIntegration, GrantClearsStreakAndBackoff) {
  ControlHarness harness(2, admission_config());
  MatrixServer& server = *harness.matrix_servers[0];
  server.activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  // First attempt denied (pool empty)...
  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().split_denied_streak, 1u);

  // ...then a spare appears and the next attempt is granted.
  harness.park(1);
  harness.run_for(150_ms);
  harness.report_load(0, 310);
  harness.report_load(0, 310);
  harness.run_for(50_ms);
  harness.ack_shed(0);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().splits_completed, 1u);
  EXPECT_EQ(server.stats().split_denied_streak, 0u);
  EXPECT_EQ(server.stats().pool_backoff_us, 0u);
}

TEST(AdmissionIntegration, ElevatedStateBlocksReclaim) {
  // Reclaim hands the parent the child's whole population: a parent whose
  // valve is not NORMAL must refuse to initiate it.
  Config config = admission_config();
  config.admission.soft_queue_length = 100;  // queue signal drives SOFT
  ControlHarness harness(2, config);
  harness.park(1);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  // Split so there is a child to reclaim (320 overloads without crossing
  // the HARD load line at 345).
  harness.report_load(0, 320);
  harness.report_load(0, 320);
  harness.run_for(50_ms);
  harness.ack_shed(0);
  harness.run_for(600_ms);  // past the topology cooldown

  // Child idles; the parent is underloaded by client count (reclaim would
  // fire) but its queue sustains the valve at SOFT ⇒ reclaim stays blocked.
  for (int i = 0; i < 6; ++i) {
    harness.report_load(1, 10);
    harness.report_load(0, 60, 200);
    harness.run_for(100_ms);
  }
  EXPECT_EQ(harness.matrix_servers[0]->admission_state(),
            AdmissionState::kSoft);
  EXPECT_EQ(harness.matrix_servers[0]->stats().reclaims_initiated, 0u);

  // Queue drains; after recover_min of calm the valve reopens and the
  // reclaim proceeds.
  for (int i = 0; i < 10; ++i) {
    harness.report_load(0, 60);
    harness.report_load(1, 10);
    harness.run_for(100_ms);
  }
  EXPECT_EQ(harness.matrix_servers[0]->admission_state(),
            AdmissionState::kNormal);
  EXPECT_GE(harness.matrix_servers[0]->stats().reclaims_initiated, 1u);
}

}  // namespace
}  // namespace matrix
