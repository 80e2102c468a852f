// Tests for the load rules (src/policy/load_rules.h): the classic
// thresholds, the directive rules' proactive-split and need-hint
// extensions, the degraded-control-plane rules, pool-grant arbitration, the
// load-aware cut under degenerate client distributions, and the
// pool-denial episode's backoff semantics ("a calm report ends the
// episode"; idle spares allow a prompt retry WITHOUT forgetting the
// streak).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "policy/denial_episode.h"
#include "policy/load_rules.h"
#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

/// The classic rules, whatever MATRIX_LOAD_POLICY says.
Config policy_config() {
  Config config;
  config.policy.kind = LoadPolicyKind::kClassic;
  config.world = Rect(0, 0, 1000, 1000);
  config.overload_clients = 100;
  config.underload_clients = 50;
  config.sustain_reports_to_split = 2;
  config.min_partition_extent = 10.0;
  return config;
}

LoadView view_with(std::uint32_t clients, std::uint32_t overloads,
                   Rect range = Rect(0, 0, 1000, 1000)) {
  LoadView view;
  view.load.client_count = clients;
  view.consecutive_overload = overloads;
  view.range = range;
  return view;
}

// ---------------------------------------------------------------------------
// Selection: Config::policy.kind, env override
// ---------------------------------------------------------------------------

TEST(PolicySelection, DefaultKindFollowsEnvironment) {
  // The CI policy-matrix leg runs the whole suite with
  // MATRIX_LOAD_POLICY=directive; a default Config must follow the process
  // override and fall back to the classic rules otherwise.
  const char* env = std::getenv("MATRIX_LOAD_POLICY");
  const LoadPolicyKind expected =
      env != nullptr && std::string_view(env) == "directive"
          ? LoadPolicyKind::kDirective
          : LoadPolicyKind::kClassic;
  EXPECT_EQ(Config{}.policy.kind, expected);
  EXPECT_STREQ(load_policy_kind_name(LoadPolicyKind::kClassic), "classic");
  EXPECT_STREQ(load_policy_kind_name(LoadPolicyKind::kDirective), "directive");
}

// ---------------------------------------------------------------------------
// Classic rules: the historical thresholds, verbatim
// ---------------------------------------------------------------------------

TEST(ClassicPolicyTest, SplitRequiresSustainedOverload) {
  const Config config = policy_config();
  EXPECT_FALSE(decide_split(config, view_with(400, 0)).split);
  EXPECT_FALSE(decide_split(config, view_with(400, 1)).split);
  const SplitDecision decision = decide_split(config, view_with(400, 2));
  EXPECT_TRUE(decision.split);
  EXPECT_FALSE(decision.proactive);  // classic never splits proactively
}

TEST(ClassicPolicyTest, SustainZeroBehavesLikeOne) {
  // The historical code only consulted the sustain threshold after at least
  // one overloaded report; a knob of 0 must not mean "split while calm".
  Config config = policy_config();
  config.sustain_reports_to_split = 0;
  EXPECT_FALSE(decide_split(config, view_with(10, 0)).split);
  EXPECT_TRUE(decide_split(config, view_with(400, 1)).split);
}

TEST(ClassicPolicyTest, SplitRefusedBelowMinExtent) {
  Config config = policy_config();
  config.min_partition_extent = 400.0;
  // 1000-wide halves to 500 ≥ 400: allowed.
  EXPECT_TRUE(decide_split(config, view_with(400, 2)).split);
  // 500-wide would halve to 250 < 400: refused.
  EXPECT_FALSE(
      decide_split(config, view_with(400, 2, Rect(0, 0, 500, 500))).split);
  // Degenerate empty range: extent 0, always refused.
  EXPECT_FALSE(decide_split(config, view_with(400, 2, Rect{})).split);
}

TEST(ClassicPolicyTest, SplitDisabledByConfig) {
  Config config = policy_config();
  config.allow_split = false;
  EXPECT_FALSE(decide_split(config, view_with(4000, 10)).split);
}

TEST(ClassicPolicyTest, SplitRangesHalveByDefault) {
  const Config config = policy_config();
  LoadView view = view_with(400, 2, Rect(0, 0, 1000, 600));
  const auto [give_away, keep] = split_ranges(config, view);
  // Wide rect: vertical cut at the midpoint, left piece handed away.
  EXPECT_EQ(give_away, Rect(0, 0, 500, 600));
  EXPECT_EQ(keep, Rect(500, 0, 1000, 600));
}

TEST(ClassicPolicyTest, LoadAwareCutsAtMedian) {
  Config config = policy_config();
  config.split_policy = SplitPolicy::kLoadAware;
  LoadView view = view_with(80, 2, Rect(0, 0, 1000, 600));
  view.median_position = {300.0, 100.0};
  const auto [give_away, keep] = split_ranges(config, view);
  EXPECT_EQ(give_away, Rect(0, 0, 300, 600));
  EXPECT_EQ(keep, Rect(300, 0, 1000, 600));
  // With zero clients there is no median to trust: halve instead.
  view.load.client_count = 0;
  EXPECT_EQ(split_ranges(config, view).first, Rect(0, 0, 500, 600));
}

// ---------------------------------------------------------------------------
// Load-aware cut, degenerate distributions (the previously untested paths)
// ---------------------------------------------------------------------------

TEST(LoadAwareDegenerateTest, AllClientsAtOnePointStillYieldsTwoPieces) {
  Config config = policy_config();
  config.split_policy = SplitPolicy::kLoadAware;
  const Rect range(0, 0, 1000, 600);
  // Every client stacked exactly on the range's low corner: the raw cut
  // fraction is 0, which Rect::split_at clamps — both pieces must stay
  // non-degenerate and tile the parent.
  LoadView view = view_with(80, 2, range);
  view.median_position = {0.0, 0.0};
  const auto [give_away, keep] = split_ranges(config, view);
  EXPECT_FALSE(give_away.empty());
  EXPECT_FALSE(keep.empty());
  EXPECT_EQ(give_away.x1(), keep.x0());
  EXPECT_EQ(Rect::bounding(give_away, keep), range);
  EXPECT_GE(give_away.width(), range.width() * 0.05 - 1e-9);
  EXPECT_GE(keep.width(), range.width() * 0.05 - 1e-9);
}

TEST(LoadAwareDegenerateTest, MedianOutsideRangeClamps) {
  // A stale report can carry a median the server no longer owns (the range
  // changed between report and grant).  The cut must stay inside the range.
  Config config = policy_config();
  config.split_policy = SplitPolicy::kLoadAware;
  const Rect range(500, 0, 1000, 400);
  LoadView view = view_with(80, 2, range);
  view.median_position = {120.0, 200.0};  // far left of the range
  const auto low = split_ranges(config, view);
  EXPECT_FALSE(low.first.empty());
  EXPECT_FALSE(low.second.empty());
  EXPECT_EQ(Rect::bounding(low.first, low.second), range);
  view.median_position = {4000.0, 200.0};  // far right
  const auto high = split_ranges(config, view);
  EXPECT_FALSE(high.first.empty());
  EXPECT_FALSE(high.second.empty());
  EXPECT_EQ(Rect::bounding(high.first, high.second), range);
}

TEST(LoadAwareDegenerateTest, TallRangeCutsHorizontally) {
  Config config = policy_config();
  config.split_policy = SplitPolicy::kLoadAware;
  const Rect range(0, 0, 200, 1000);
  LoadView view = view_with(80, 2, range);
  view.median_position = {100.0, 900.0};
  const auto [give_away, keep] = split_ranges(config, view);
  EXPECT_EQ(give_away, Rect(0, 0, 200, 900));
  EXPECT_EQ(keep, Rect(0, 900, 200, 1000));
}

// ---------------------------------------------------------------------------
// Classic rules: reclaim
// ---------------------------------------------------------------------------

TEST(ClassicPolicyTest, ReclaimRules) {
  const Config config = policy_config();
  ChildView child;
  child.client_count = 10;
  child.child_count = 0;
  child.load_known = true;

  // Parent and child underloaded with headroom: reclaim.
  EXPECT_TRUE(decide_reclaim(config, view_with(20, 0), child));
  // Parent not underloaded.
  EXPECT_FALSE(decide_reclaim(config, view_with(60, 0), child));
  // Child's load unknown (no heartbeat yet).
  child.load_known = false;
  EXPECT_FALSE(decide_reclaim(config, view_with(20, 0), child));
  child.load_known = true;
  // Child has its own children: subtree must collapse first.
  child.child_count = 1;
  EXPECT_FALSE(decide_reclaim(config, view_with(20, 0), child));
  child.child_count = 0;
  // Combined load over the headroom fraction (0.8 × 100 = 80).
  child.client_count = 45;
  EXPECT_FALSE(decide_reclaim(config, view_with(40, 0), child));
}

TEST(ClassicPolicyTest, ReclaimGatedByElevatedValve) {
  Config config = policy_config();
  config.admission.enabled = true;
  ChildView child;
  child.client_count = 10;
  child.load_known = true;
  LoadView view = view_with(20, 0);
  view.effective_valve = AdmissionState::kSoft;
  EXPECT_FALSE(decide_reclaim(config, view, child));
  view.effective_valve = AdmissionState::kNormal;
  EXPECT_TRUE(decide_reclaim(config, view, child));
  // With the admission subsystem off the valve fields are ignored.
  view.effective_valve = AdmissionState::kHard;
  EXPECT_TRUE(decide_reclaim(policy_config(), view, child));
}

// ---------------------------------------------------------------------------
// Directive rules: proactive splits + need hints
// ---------------------------------------------------------------------------

Config directive_config() {
  Config config = policy_config();
  config.policy.kind = LoadPolicyKind::kDirective;
  config.policy.proactive_load_fraction = 0.80;  // 80 clients
  return config;
}

LoadView directive_view(std::uint32_t clients, std::uint32_t waiting) {
  LoadView view = view_with(clients, 0);
  view.directive_active = true;
  view.load.waiting_count = waiting;
  view.pool_idle_fraction = 0.5;  // spares known idle
  return view;
}

TEST(DirectivePolicyTest, ProactiveSplitBelowOverloadThreshold) {
  const Config config = directive_config();
  const SplitDecision decision = decide_split(config, directive_view(85, 20));
  EXPECT_TRUE(decision.split);
  EXPECT_TRUE(decision.proactive);
}

TEST(DirectivePolicyTest, ProactiveNeedsDirectiveLoadWaitingAndIdlePool) {
  const Config config = directive_config();
  // No directive: pure classic (85 < overload, 0 sustained ⇒ defer).
  LoadView no_directive = directive_view(85, 20);
  no_directive.directive_active = false;
  EXPECT_FALSE(decide_split(config, no_directive).split);
  // Below the proactive load fraction.
  EXPECT_FALSE(decide_split(config, directive_view(79, 20)).split);
  // Waiting room too shallow: the valve is coping.
  EXPECT_FALSE(decide_split(config, directive_view(85, 7)).split);
  // Pool dry (or unknown): a denied ask would only escalate the valve.
  LoadView dry = directive_view(85, 20);
  dry.pool_idle_fraction = 0.0;
  EXPECT_FALSE(decide_split(config, dry).split);
  dry.pool_idle_fraction = -1.0;
  EXPECT_FALSE(decide_split(config, dry).split);
  // Ordinary overload still splits through the classic path regardless.
  LoadView overloaded = directive_view(400, 0);
  overloaded.pool_idle_fraction = -1.0;
  overloaded.consecutive_overload = 2;
  EXPECT_TRUE(decide_split(config, overloaded).split);
  EXPECT_FALSE(decide_split(config, overloaded).proactive);
}

TEST(DirectivePolicyTest, DirectiveSplitsCutAtMedian) {
  // Under a directive the cut is load-aware even with kSplitToLeft
  // configured: a proactive split exists to shed the hotspot.
  const Config config = directive_config();
  LoadView view = directive_view(85, 20);
  view.range = Rect(0, 0, 1000, 600);
  view.median_position = {250.0, 100.0};
  EXPECT_EQ(split_ranges(config, view).first, Rect(0, 0, 250, 600));
  // Without a directive: back to the configured (halving) policy.
  view.directive_active = false;
  EXPECT_EQ(split_ranges(config, view).first, Rect(0, 0, 500, 600));
}

TEST(DirectivePolicyTest, NeedHintWeighsLoadAndStarvation) {
  const Config config = directive_config();
  // Classic never biases; directive only under an active directive.
  EXPECT_EQ(pool_need(policy_config(), directive_view(90, 50)), 0.0);
  LoadView inactive = directive_view(90, 50);
  inactive.directive_active = false;
  EXPECT_EQ(pool_need(config, inactive), 0.0);
  // Active: positive, monotone in both load and waiting-room depth, and
  // the waiting depth dominates at equal load (weight 2).
  const double calm = pool_need(config, directive_view(0, 0));
  EXPECT_GT(calm, 0.0);
  EXPECT_GT(pool_need(config, directive_view(90, 0)), calm);
  EXPECT_GT(pool_need(config, directive_view(90, 50)),
            pool_need(config, directive_view(90, 10)));
  EXPECT_GT(pool_need(config, directive_view(50, 100)),
            pool_need(config, directive_view(100, 50)));
}

TEST(DirectivePolicyTest, ArbitrationOrdersByNeedThenArrival) {
  const Config config = directive_config();
  std::vector<PoolRequest> requests;
  requests.push_back({ServerId(1), NodeId(1), 2.0, 1});
  requests.push_back({ServerId(2), NodeId(2), 5.0, 2});
  requests.push_back({ServerId(3), NodeId(3), 5.0, 3});
  requests.push_back({ServerId(4), NodeId(4), 0.5, 4});
  const std::vector<std::size_t> order = arbitrate(config, requests);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);  // need 5.0, earlier arrival
  EXPECT_EQ(order[1], 2u);  // need 5.0, later arrival
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 3u);
  // Classic ignores need entirely: strict arrival order.
  EXPECT_EQ(arbitrate(policy_config(), requests),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Degraded control plane (control/control_plane.h): frozen coordinator
// state is held, never acted on
// ---------------------------------------------------------------------------

TEST(DegradedControlPlaneTest, NoProactiveSplitUnderHoldOrFallback) {
  const Config config = directive_config();
  LoadView view = directive_view(85, 20);
  ASSERT_TRUE(decide_split(config, view).proactive);
  view.failsafe = FailsafeState::kHold;
  EXPECT_FALSE(decide_split(config, view).split);
  view.failsafe = FailsafeState::kFallback;
  EXPECT_FALSE(decide_split(config, view).split);
}

TEST(DegradedControlPlaneTest, NeedIsZeroUnderHoldOrFallback) {
  // A zero need is never held: the pool answers at once, FCFS.
  const Config config = directive_config();
  LoadView view = directive_view(90, 50);
  ASSERT_GT(pool_need(config, view), 0.0);
  for (const FailsafeState state :
       {FailsafeState::kHold, FailsafeState::kFallback}) {
    view.failsafe = state;
    const double need = pool_need(config, view);
    EXPECT_EQ(need, 0.0);
    EXPECT_EQ(grant_hold(config, {ServerId(1), NodeId(1), need, 1}),
              SimTime{});
  }
}

TEST(DegradedControlPlaneTest, NoSplitAtAllUnderFallback) {
  // Sustained overload still splits under HOLD; FALLBACK refuses even that
  // (the child would have to register with a presumed-dead MC).
  const Config config = policy_config();
  LoadView view = view_with(400, 2);
  view.failsafe = FailsafeState::kHold;
  EXPECT_TRUE(decide_split(config, view).split);
  view.failsafe = FailsafeState::kFallback;
  EXPECT_FALSE(decide_split(config, view).split);
}

TEST(DegradedControlPlaneTest, FallbackReclaimsOnlyAnEmptyLeafChild) {
  const Config config = policy_config();
  ChildView child;
  child.client_count = 10;
  child.load_known = true;
  LoadView view = view_with(20, 0);
  view.failsafe = FailsafeState::kHold;
  EXPECT_TRUE(decide_reclaim(config, view, child));
  view.failsafe = FailsafeState::kFallback;
  EXPECT_FALSE(decide_reclaim(config, view, child));  // populated
  child.client_count = 0;
  EXPECT_TRUE(decide_reclaim(config, view, child));   // empty leaf
  child.child_count = 1;
  EXPECT_FALSE(decide_reclaim(config, view, child));  // not a leaf
  child.child_count = 0;
  child.load_known = false;
  EXPECT_FALSE(decide_reclaim(config, view, child));  // load unknown
}

// ---------------------------------------------------------------------------
// Pool-side arbitration, end to end through the wire
// ---------------------------------------------------------------------------

TEST(PoolArbitrationTest, ContestedSpareGoesToHighestNeed) {
  Config config = directive_config();
  config.policy.grant_window = 100_ms;
  Network network(1);
  ResourcePool pool;
  pool.configure(config);
  const NodeId pool_node = network.attach(&pool);
  CaptureNode starving("starving"), comfy("comfy"), spare("spare");
  const NodeId starving_node = network.attach(&starving);
  const NodeId comfy_node = network.attach(&comfy);
  network.attach(&spare);
  pool.add_entry({ServerId(9), spare.node_id(), spare.node_id()});

  // The comfy server asks FIRST — under FCFS it would win.  Both requests
  // land inside the grant window; the starving server's higher need must
  // take the spare.
  comfy.inject(pool_node, PoolAcquire{ServerId(2), 1.5});
  network.run_until(network.now() + 10_ms);
  starving.inject(pool_node, PoolAcquire{ServerId(1), 6.0});
  network.run_until(network.now() + 500_ms);

  EXPECT_NE(starving.last<PoolGrant>(), nullptr);
  EXPECT_EQ(starving.last<PoolGrant>()->server, ServerId(9));
  EXPECT_EQ(starving.count<PoolDeny>(), 0u);
  EXPECT_NE(comfy.last<PoolDeny>(), nullptr);
  EXPECT_EQ(comfy.count<PoolGrant>(), 0u);
  EXPECT_EQ(pool.grants(), 1u);
  EXPECT_EQ(pool.denies(), 1u);
  EXPECT_EQ(pool.arbitrated_requests(), 2u);
  EXPECT_EQ(pool.contested_rounds(), 1u);
  (void)starving_node;
  (void)comfy_node;
}

TEST(PoolArbitrationTest, NeedZeroIsAnsweredImmediately) {
  // A need-0 request (the classic rules, or no directive in force) must
  // never be held, even when the pool runs the directive rules.
  Config config = directive_config();
  config.policy.grant_window = 10_sec;
  Network network(1);
  ResourcePool pool;
  pool.configure(config);
  const NodeId pool_node = network.attach(&pool);
  CaptureNode asker("asker"), spare("spare");
  network.attach(&asker);
  network.attach(&spare);
  pool.add_entry({ServerId(9), spare.node_id(), spare.node_id()});
  asker.inject(pool_node, PoolAcquire{ServerId(1)});
  network.run_until(network.now() + 50_ms);
  EXPECT_NE(asker.last<PoolGrant>(), nullptr);
  EXPECT_EQ(pool.arbitrated_requests(), 0u);
}

// ---------------------------------------------------------------------------
// PoolDenialEpisode: backoff doubling + the episode-end contract
// ---------------------------------------------------------------------------

TEST(DenialEpisodeTest, BackoffDoublesAndCaps) {
  Config config;
  config.pool_backoff_initial = 1_sec;
  config.pool_backoff_max = 4_sec;
  PoolDenialEpisode episode(config);
  EXPECT_EQ(episode.on_denied(), 1_sec);
  EXPECT_EQ(episode.on_denied(), 2_sec);
  EXPECT_EQ(episode.on_denied(), 4_sec);
  EXPECT_EQ(episode.on_denied(), 4_sec);  // capped
  EXPECT_EQ(episode.streak(), 4u);
  EXPECT_TRUE(episode.end());
  EXPECT_EQ(episode.streak(), 0u);
  EXPECT_EQ(episode.backoff_us(), 0u);
  EXPECT_FALSE(episode.end());  // nothing pending any more
}

TEST(DenialEpisodeTest, InitialZeroFallsBackToTopologyCooldown) {
  Config config;
  config.pool_backoff_initial = SimTime{};
  config.topology_cooldown = 3_sec;
  config.pool_backoff_max = 60_sec;
  PoolDenialEpisode episode(config);
  EXPECT_EQ(episode.on_denied(), 3_sec);
  EXPECT_EQ(episode.on_denied(), 6_sec);
}

TEST(DenialEpisodeTest, PoolIdlePreservesStreak) {
  Config config;
  config.pool_backoff_initial = 1_sec;
  config.pool_backoff_max = 8_sec;
  PoolDenialEpisode episode(config);
  episode.on_denied();
  episode.on_denied();
  EXPECT_TRUE(episode.idle_allows_prompt_retry());
  // The prompt retry does NOT forget the streak: the next denial keeps
  // doubling from where the episode left off.
  EXPECT_EQ(episode.streak(), 2u);
  EXPECT_EQ(episode.on_denied(), 4_sec);
}

// Regression for the historical bug: MatrixServer reset the whole denial
// episode on ANY PoolPressure with idle > 0 — so a thrashing pool (spares
// freed and instantly re-taken by other servers) was re-asked at the flat
// cooldown rate forever, the exponential backoff never escalating.  The
// fixed semantics: idle > 0 shrinks the pending wait (prompt retry) but
// KEEPS the streak; only a calm report (or a grant) ends the episode.
TEST(DenialEpisodeRegression, PromptRetryAfterPoolIdleKeepsDoubling) {
  Config config;
  config.world = Rect(0, 0, 1000, 1000);
  config.overload_clients = 100;
  config.underload_clients = 50;
  config.sustain_reports_to_split = 1;
  config.topology_cooldown = 200_ms;
  config.pool_backoff_initial = 1_sec;
  config.pool_backoff_max = 8_sec;
  ControlHarness harness(1, config);
  MatrixServer& server = *harness.matrix_servers[0];
  server.activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  // Two denials: streak 2, pending backoff 2 s.
  harness.report_load(0, 300);
  harness.run_for(50_ms);
  ASSERT_EQ(server.stats().split_denied_no_server, 1u);
  ASSERT_EQ(server.stats().pool_backoff_us, 1'000'000u);
  harness.run_for(1100_ms);
  harness.report_load(0, 300);
  harness.run_for(50_ms);
  ASSERT_EQ(server.stats().split_denied_no_server, 2u);
  ASSERT_EQ(server.stats().split_denied_streak, 2u);
  ASSERT_EQ(server.stats().pool_backoff_us, 2'000'000u);

  // A spare is freed somewhere: PoolPressure idle > 0 arrives.  The server
  // may retry promptly (within the ordinary cooldown, NOT the 2 s backoff)…
  harness.games[0]->inject(server.node_id(), PoolPressure{1, 4});
  harness.run_for(300_ms);  // past topology_cooldown, well inside 2 s
  harness.report_load(0, 300);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().split_denied_no_server, 3u);
  // …but the streak survived: the third denial's backoff is 4 s, not a
  // restart at 1 s.
  EXPECT_EQ(server.stats().split_denied_streak, 3u);
  EXPECT_EQ(server.stats().pool_backoff_us, 4'000'000u);

  // A calm report ends the episode for real: streak and backoff zero, and
  // the pending 4 s wait shrinks to the ordinary cooldown (ROADMAP: "a
  // calm report ends the episode and shrinks any pending backoff back to
  // the ordinary cooldown").
  harness.report_load(0, 10);
  harness.run_for(20_ms);
  EXPECT_EQ(server.stats().split_denied_streak, 0u);
  EXPECT_EQ(server.stats().pool_backoff_us, 0u);
  harness.run_for(300_ms);  // ordinary cooldown, far short of 4 s
  harness.report_load(0, 300);
  harness.run_for(50_ms);
  EXPECT_EQ(server.stats().split_denied_no_server, 4u);
}

}  // namespace
}  // namespace matrix
