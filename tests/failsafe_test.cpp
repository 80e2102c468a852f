// Control-plane failsafe (src/control/control_plane.h): the epoch-stamped
// ControlUpdate ingestion path and the heartbeat-driven NORMAL / HOLD /
// FALLBACK machine.
//
// Three layers:
//
//   1. ControlPlane unit tests — every admit() rule (epoch supersedes seq,
//      per-kind seq monotonicity, degraded gating, recovery on a fresh
//      beat) exercised directly, plus the planted stale-replay fault.
//   2. failsafe_timeline_valid — the machine-checked contract accepts a
//      legal degradation story and rejects each malformed shape.
//   3. Deployment integration — a live MC outage drives every server
//      HOLD → FALLBACK on schedule, a standby revival flips the epoch and
//      recovers everyone, a control partition degrades and heals, and the
//      whole story replays deterministically with the failsafe on.
#include <gtest/gtest.h>

#include "control/control_plane.h"
#include "fuzz/invariants.h"
#include "sim/scenario.h"

namespace matrix {
namespace {

using namespace time_literals;

SimTime at_sec(double s) { return SimTime::from_sec(s); }

FailsafeConfig enabled_config() {
  FailsafeConfig config;
  config.enabled = true;
  return config;  // fixed: beat 1s, tau1 3s, tau2 8s
}

// ---------------------------------------------------------------------------
// ControlPlane unit tests
// ---------------------------------------------------------------------------

TEST(ControlPlaneTest, SequencedReplayAndReorderAreRejected) {
  ControlPlane plane{FailsafeConfig{}};  // disabled: the historical rules
  const SimTime t = at_sec(1.0);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 1}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 1}),
            ControlVerdict::kStaleSeq);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 3}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 2}),
            ControlVerdict::kStaleSeq);
  // Unsequenced updates (seq 0) always pass the seq rule.
  EXPECT_EQ(plane.admit(t, {ControlKind::kPoolPressure, 0, 0}),
            ControlVerdict::kApply);
  // Each kind keeps its own counter.
  EXPECT_EQ(plane.admit(t, {ControlKind::kAdmissionUpdate, 0, 1}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.stats().stale_seq_drops, 2u);
}

TEST(ControlPlaneTest, EpochFlipResetsEverySeqCounterAtomically) {
  ControlPlane plane{FailsafeConfig{}};
  const SimTime t = at_sec(1.0);
  ASSERT_EQ(plane.admit(t, {ControlKind::kAnnounce, 1, 0}),
            ControlVerdict::kApply);
  ASSERT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 5}),
            ControlVerdict::kApply);
  // Generation 2 takes over: the directive counter restarts at 1.
  EXPECT_EQ(plane.admit(t, {ControlKind::kAnnounce, 2, 0}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.epoch(), 2u);
  EXPECT_EQ(plane.last_seq(ControlKind::kDirective), 0u);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 1}),
            ControlVerdict::kApply);
  // The dead generation's messages are dropped on the epoch alone.
  EXPECT_EQ(plane.admit(t, {ControlKind::kHeartbeat, 1, 99}),
            ControlVerdict::kStaleEpoch);
  // Two flips: 0→1 on the first announce, 1→2 on the takeover.
  EXPECT_EQ(plane.stats().epoch_flips, 2u);
  EXPECT_EQ(plane.stats().stale_epoch_drops, 1u);
}

TEST(ControlPlaneTest, SilenceDegradesAndHoldsCoordinatorPayloads) {
  ControlPlane plane{enabled_config()};
  plane.start(at_sec(0.0));

  // Fresh beats keep the machine in NORMAL.
  EXPECT_EQ(plane.admit(at_sec(1.0), {ControlKind::kHeartbeat, 1, 1}),
            ControlVerdict::kApply);
  EXPECT_FALSE(plane.tick(at_sec(2.0)));
  EXPECT_EQ(plane.state(), FailsafeState::kNormal);

  // tau1 of silence: HOLD.  Coordinator payloads are refused, the
  // matrix-local admission relay is not.
  EXPECT_TRUE(plane.tick(at_sec(4.5)));
  EXPECT_EQ(plane.state(), FailsafeState::kHold);
  EXPECT_EQ(plane.admit(at_sec(4.6), {ControlKind::kDirective, 0, 7}),
            ControlVerdict::kHeld);
  EXPECT_EQ(plane.admit(at_sec(4.6), {ControlKind::kPoolPressure, 0, 0}),
            ControlVerdict::kHeld);
  EXPECT_EQ(plane.admit(at_sec(4.6), {ControlKind::kAdmissionUpdate, 0, 1}),
            ControlVerdict::kApply);
  // The held directive consumed no seq: it can be re-sent after recovery.
  EXPECT_EQ(plane.last_seq(ControlKind::kDirective), 0u);

  // A fresh beat recovers straight to NORMAL and the directive applies.
  EXPECT_EQ(plane.admit(at_sec(5.0), {ControlKind::kHeartbeat, 1, 2}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.state(), FailsafeState::kNormal);
  EXPECT_EQ(plane.admit(at_sec(5.1), {ControlKind::kDirective, 0, 7}),
            ControlVerdict::kApply);

  ASSERT_EQ(plane.transitions().size(), 2u);
  EXPECT_EQ(plane.transitions()[0].to, FailsafeState::kHold);
  EXPECT_EQ(plane.transitions()[1].to, FailsafeState::kNormal);
  EXPECT_TRUE(failsafe_timeline_valid(plane.transitions()));
}

TEST(ControlPlaneTest, LateTickNeverSkipsHold) {
  ControlPlane plane{enabled_config()};
  plane.start(at_sec(0.0));
  // One tick lands long past tau2: the machine still steps N→H→F, never
  // N→F, recording both entries (same timestamp, which the validator
  // accepts because the age gap is zero too).
  EXPECT_TRUE(plane.tick(at_sec(20.0)));
  EXPECT_EQ(plane.state(), FailsafeState::kFallback);
  ASSERT_EQ(plane.transitions().size(), 2u);
  EXPECT_EQ(plane.transitions()[0].to, FailsafeState::kHold);
  EXPECT_EQ(plane.transitions()[1].to, FailsafeState::kFallback);
  EXPECT_TRUE(failsafe_timeline_valid(plane.transitions()));
}

TEST(ControlPlaneTest, DisabledPlaneNeverDegrades) {
  ControlPlane plane{FailsafeConfig{}};
  plane.start(at_sec(0.0));
  EXPECT_FALSE(plane.tick(at_sec(100.0)));
  EXPECT_EQ(plane.state(), FailsafeState::kNormal);
  EXPECT_TRUE(plane.transitions().empty());
}

TEST(ControlPlaneTest, FaultAcceptStaleAppliesTheReplay) {
  // The knob behind Config::fault.stale_directive_replay: the stale drop is
  // still counted and traced, but the update acts anyway — the planted bug
  // kInvControlMonotonic exists to catch.
  ControlPlane plane{FailsafeConfig{}};
  plane.set_fault_accept_stale(true);
  const SimTime t = at_sec(1.0);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 4}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.admit(t, {ControlKind::kDirective, 0, 4}),
            ControlVerdict::kApply);
  EXPECT_EQ(plane.stats().stale_seq_drops, 1u);
}

// ---------------------------------------------------------------------------
// failsafe_timeline_valid
// ---------------------------------------------------------------------------

FailsafeTransition edge(double at_s, FailsafeState from, FailsafeState to,
                        double age_s) {
  return {at_sec(at_s), from, to, at_sec(age_s)};
}

TEST(FailsafeTimelineTest, AcceptsALegalDegradationStory) {
  EXPECT_TRUE(failsafe_timeline_valid({}));
  const std::vector<FailsafeTransition> timeline = {
      edge(10.0, FailsafeState::kNormal, FailsafeState::kHold, 3.5),
      edge(15.0, FailsafeState::kHold, FailsafeState::kFallback, 8.5),
      edge(30.0, FailsafeState::kFallback, FailsafeState::kNormal, 0.0),
      edge(40.0, FailsafeState::kNormal, FailsafeState::kHold, 3.0),
      edge(41.0, FailsafeState::kHold, FailsafeState::kNormal, 0.5),
  };
  EXPECT_TRUE(failsafe_timeline_valid(timeline));
}

TEST(FailsafeTimelineTest, RejectsEachMalformedShape) {
  // Self-transition.
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(1.0, FailsafeState::kNormal, FailsafeState::kNormal, 3.5)}));
  // Degradation skipping HOLD.
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(1.0, FailsafeState::kNormal, FailsafeState::kFallback, 9.0)}));
  // First transition not leaving NORMAL (no chain).
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(1.0, FailsafeState::kHold, FailsafeState::kFallback, 9.0)}));
  // HOLD entered before tau1 of silence.
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(1.0, FailsafeState::kNormal, FailsafeState::kHold, 1.0)}));
  // Recovery claimed while the heartbeat is still stale.
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(10.0, FailsafeState::kNormal, FailsafeState::kHold, 3.5),
       edge(12.0, FailsafeState::kHold, FailsafeState::kNormal, 5.5)}));
  // Time running backwards.
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(10.0, FailsafeState::kNormal, FailsafeState::kHold, 3.5),
       edge(9.0, FailsafeState::kHold, FailsafeState::kFallback, 8.5)}));
  // HOLD→FALLBACK wall gap disagreeing with the age gap: a beat landed in
  // between, so the machine should have recovered instead.
  EXPECT_FALSE(failsafe_timeline_valid(
      {edge(10.0, FailsafeState::kNormal, FailsafeState::kHold, 3.5),
       edge(20.0, FailsafeState::kHold, FailsafeState::kFallback, 8.5)}));
}

// ---------------------------------------------------------------------------
// Deployment integration: live outage, revival, partition, determinism
// ---------------------------------------------------------------------------

/// Small deployment (1 root + 2 spares) with the failsafe armed.
DeploymentOptions failsafe_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 600, 600);
  options.config.visibility_radius = 40.0;
  options.config.overload_clients = 40;
  options.config.underload_clients = 20;
  options.config.load_report_interval = 500_ms;
  options.config.admission.enabled = true;
  options.config.admission.global.enabled = true;
  options.config.failsafe.enabled = true;
  options.config.obs.trace_enabled = true;
  options.config.obs.ring_capacity = 1u << 18;  // whole-run invariant checks
  options.spec = bzflag_like();
  options.spec.visibility_radius = 40.0;
  options.initial_servers = 1;
  options.pool_size = 2;
  options.map_objects = 30;
  options.seed = 11;
  return options;
}

OverloadScenarioOptions modest_crowd() {
  OverloadScenarioOptions load;
  load.background_bots = 15;
  load.flash_bots = 60;
  load.join_batch = 20;
  load.join_interval = 1_sec;
  load.flash_at = 2_sec;
  load.center = {300.0, 300.0};
  load.spread = 120.0;
  load.duration = 40_sec;
  return load;
}

/// Every matrix plane must satisfy the timeline contract, and every game
/// plane must stay NORMAL with no transitions (the pair's one failsafe
/// machine runs on the matrix server); returns the number of planes,
/// game planes included, currently in `state`.
std::size_t count_planes_in(Deployment& deployment, FailsafeState state) {
  std::size_t n = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    EXPECT_TRUE(failsafe_timeline_valid(server->control_plane().transitions()));
    if (server->control_plane().state() == state) ++n;
  }
  for (const GameServer* game : deployment.game_servers()) {
    EXPECT_TRUE(game->control_plane().transitions().empty());
    EXPECT_EQ(game->control_plane().state(), FailsafeState::kNormal);
    if (game->control_plane().state() == state) ++n;
  }
  return n;
}

TEST(FailsafeIntegrationTest, McOutageDrivesEveryServerIntoFallback) {
  Deployment deployment(failsafe_options());
  McOutageScenarioOptions scenario;
  scenario.load = modest_crowd();
  scenario.kill_at = at_sec(10.0);  // dead for the rest of the run
  schedule_mc_outage_scenario(deployment, scenario);

  // Just before the kill everyone is NORMAL on fresh beats.
  deployment.run_until(at_sec(9.5));
  EXPECT_FALSE(deployment.coordinator_alive() &&
               count_planes_in(deployment, FailsafeState::kNormal) == 0);
  const MatrixServer* root = deployment.matrix_servers().front();
  EXPECT_EQ(root->control_plane().state(), FailsafeState::kNormal);
  EXPECT_GT(root->control_plane().stats().heartbeats, 5u);

  // kill + tau1: HOLD.  kill + tau2: FALLBACK.  (Silence is measured from
  // the last beat, so give each threshold one beat interval of slack.)
  deployment.run_until(at_sec(16.0));
  EXPECT_FALSE(deployment.coordinator_alive());
  EXPECT_EQ(root->control_plane().state(), FailsafeState::kHold);
  deployment.run_until(scenario.load.duration);
  EXPECT_EQ(root->control_plane().state(), FailsafeState::kFallback);
  // The root's matrix plane degraded; its game plane stays NORMAL (it has
  // no heartbeat clock — the matrix decides for the pair), and parked
  // spares never started and stay NORMAL too.
  EXPECT_GE(count_planes_in(deployment, FailsafeState::kFallback), 1u);

  // The run still quiesces (login and leave never traverse the MC) and
  // every invariant holds — including the failsafe timelines, re-checked
  // inside check_deployment.
  EXPECT_TRUE(fuzz::quiesce(deployment));
  fuzz::InvariantOptions invariants;
  invariants.expect_quiesced = true;
  const fuzz::InvariantReport report =
      fuzz::check_deployment(deployment, invariants);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.count(obs::TraceKind::kFailsafeTransition), 0u);
}

TEST(FailsafeIntegrationTest, StandbyRevivalFlipsTheEpochAndRecovers) {
  Deployment deployment(failsafe_options());
  McOutageScenarioOptions scenario;
  scenario.load = modest_crowd();
  scenario.kill_at = at_sec(10.0);
  scenario.revive_at = at_sec(25.0);  // well past tau2: FALLBACK first
  schedule_mc_outage_scenario(deployment, scenario);
  deployment.run_until(scenario.load.duration);

  EXPECT_TRUE(deployment.coordinator_alive());
  const MatrixServer* root = deployment.matrix_servers().front();
  const ControlPlane& plane = root->control_plane();
  // Generation 2's announce/beats flipped the epoch and recovered the
  // machine straight to NORMAL.
  EXPECT_EQ(plane.state(), FailsafeState::kNormal);
  EXPECT_EQ(plane.epoch(), 2u);
  EXPECT_GE(plane.stats().epoch_flips, 1u);
  bool recovered_from_fallback = false;
  for (const FailsafeTransition& t : plane.transitions()) {
    if (t.from == FailsafeState::kFallback && t.to == FailsafeState::kNormal) {
      recovered_from_fallback = true;
    }
  }
  EXPECT_TRUE(recovered_from_fallback);
  EXPECT_EQ(count_planes_in(deployment, FailsafeState::kFallback), 0u);

  EXPECT_TRUE(fuzz::quiesce(deployment));
  fuzz::InvariantOptions invariants;
  invariants.expect_quiesced = true;
  const fuzz::InvariantReport report =
      fuzz::check_deployment(deployment, invariants);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.count(obs::TraceKind::kControlEpochFlip), 0u);
}

TEST(FailsafeIntegrationTest, ControlPartitionDegradesThenHeals) {
  Deployment deployment(failsafe_options());
  ControlPartitionScenarioOptions scenario;
  scenario.load = modest_crowd();
  scenario.partition_at = at_sec(10.0);
  scenario.heal_at = at_sec(25.0);  // 15s of silence: through FALLBACK
  schedule_control_partition_scenario(deployment, scenario);
  deployment.run_until(at_sec(22.0));

  // Mid-window: the MC is alive but unreachable — same degradation story
  // as an outage.
  EXPECT_TRUE(deployment.coordinator_alive());
  const MatrixServer* root = deployment.matrix_servers().front();
  EXPECT_EQ(root->control_plane().state(), FailsafeState::kFallback);

  deployment.run_until(scenario.load.duration);
  // Healed: beats flow again (same generation, no epoch flip) and every
  // degraded plane recovered.
  EXPECT_EQ(root->control_plane().state(), FailsafeState::kNormal);
  EXPECT_EQ(root->control_plane().epoch(), 1u);
  EXPECT_EQ(count_planes_in(deployment, FailsafeState::kFallback), 0u);
  EXPECT_EQ(count_planes_in(deployment, FailsafeState::kHold), 0u);

  EXPECT_TRUE(fuzz::quiesce(deployment));
  // drop 1.0 on the control links loses (not delays) whatever was in
  // flight at the cut: the lossy profile keeps the state-machine
  // invariants and forgives delivery-dependent conservation.
  fuzz::InvariantOptions invariants;
  invariants.expect_quiesced = true;
  invariants.lossy_control_links = true;
  const fuzz::InvariantReport report =
      fuzz::check_deployment(deployment, invariants);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FailsafeIntegrationTest, GameServersObeyTheirMatrixFallbackRescind) {
  // One failsafe machine per co-located pair, on the matrix server: its
  // FALLBACK rescinds the frozen directive, and the game obeys the rescind
  // instead of holding it behind a second, game-side copy of the machine.
  // The rescind is one AdmissionUpdate: it restores the local token rate
  // too, and no directive stream reaches the game's plane.
  const DeploymentOptions options = failsafe_options();
  const double local_rate = options.config.admission.token_rate_per_sec;
  Deployment deployment(options);
  McOutageScenarioOptions scenario;
  scenario.load = modest_crowd();
  scenario.load.flash_bots = 240;  // past the pool: the MC raises a floor
  scenario.load.join_batch = 60;
  scenario.kill_at = at_sec(10.0);  // dead for the rest of the run
  schedule_mc_outage_scenario(deployment, scenario);

  deployment.run_until(scenario.kill_at);
  std::size_t games_under_directive = 0;
  std::size_t games_on_a_share = 0;
  for (const GameServer* game : deployment.game_servers()) {
    if (game->directive_active()) ++games_under_directive;
    if (game->join_token_rate() != local_rate) ++games_on_a_share;
  }
  ASSERT_GT(games_under_directive, 0u) << "no directive in force at the kill";
  ASSERT_GT(games_on_a_share, 0u) << "no directive share in force at the kill";

  deployment.run_until(scenario.load.duration);
  const MatrixServer* root = deployment.matrix_servers().front();
  EXPECT_EQ(root->control_plane().state(), FailsafeState::kFallback);
  for (const GameServer* game : deployment.game_servers()) {
    SCOPED_TRACE(game->name());
    const ControlPlane& plane = game->control_plane();
    EXPECT_TRUE(plane.transitions().empty());
    EXPECT_EQ(plane.state(), FailsafeState::kNormal);
    EXPECT_EQ(plane.stats().held_drops, 0u);
    EXPECT_EQ(plane.last_seq(ControlKind::kDirective), 0u);
    EXPECT_FALSE(game->directive_active());
    EXPECT_EQ(game->join_token_rate(), local_rate);
  }
}

TEST(FailsafeIntegrationTest, OutageRunIsDeterministicWithFailsafeOn) {
  // The failsafe must not cost the repo its replay contract: the same
  // seed + outage schedule yields a byte-identical trace stream.
  const auto hash_of = [] {
    Deployment deployment(failsafe_options());
    deployment.network().enable_trace_hash();
    McOutageScenarioOptions scenario;
    scenario.load = modest_crowd();
    scenario.kill_at = at_sec(10.0);
    scenario.revive_at = at_sec(25.0);
    schedule_mc_outage_scenario(deployment, scenario);
    deployment.run_until(scenario.load.duration);
    return deployment.network().trace_hash();
  };
  const std::uint64_t first = hash_of();
  const std::uint64_t second = hash_of();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0u);
}

}  // namespace
}  // namespace matrix
