// Scenario-fuzzer and trace-invariants harness tests (docs/TESTING.md).
//
// Three layers:
//
//   1. Clean sweeps — a fixed seed set under both load policies must hold
//      every invariant, and a seed must replay byte-identically (the
//      property that makes any red CI run reproducible locally).
//   2. Synthetic traces — hand-built event streams prove each check_trace
//      rule fires on exactly the malformed stream it exists for, including
//      shapes a healthy deployment can never produce.
//   3. Mutation smoke — each Config::fault knob (config.h) injects one real
//      bug into a live deployment, and the matching invariant must catch
//      it.  A fuzzer that has never been shown to fail proves nothing; the
//      final test asserts every invariant fired somewhere in this binary.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fuzz/fuzz_scenario.h"
#include "fuzz/invariants.h"

namespace matrix::fuzz {
namespace {

/// Which invariants have fired across this binary's tests; the capstone
/// test asserts full coverage.
std::set<std::string>& fired_registry() {
  static std::set<std::string> fired;
  return fired;
}

void note_fired(const InvariantReport& report) {
  for (const auto& [name, count] : report.fired_counts) {
    fired_registry().insert(name);
  }
}

/// The forced configuration the mutation tests run under: every subsystem
/// the faults target is on, and the deployment is small enough to overload.
void force_full_stack(DeploymentOptions& options) {
  AdmissionConfig& admission = options.config.admission;
  admission.enabled = true;
  admission.priority.queue_enabled = true;
  admission.global.enabled = true;
  admission.global.queue_handoff = true;
  options.config.overload_clients = 80;
  options.config.underload_clients = 40;
  if (options.pool_size < 2) options.pool_size = 2;
}

/// The seed every mutation test runs: probed to exercise splits, queue
/// handoffs (87 sent/adopted), denials, and redirects under
/// force_full_stack.  If a future change re-shapes seed 2's scenario, the
/// baseline assertions below will say so explicitly.
constexpr std::uint64_t kMutationSeed = 2;

const FuzzResult& mutation_baseline() {
  static const FuzzResult result = [] {
    FuzzRunOptions options;
    options.mutate = force_full_stack;
    return run_fuzz_case(kMutationSeed, LoadPolicyKind::kDirective, options);
  }();
  return result;
}

FuzzResult run_mutated(void (*arm)(DeploymentOptions&)) {
  FuzzRunOptions options;
  options.mutate = [arm](DeploymentOptions& deployment) {
    force_full_stack(deployment);
    arm(deployment);
  };
  return run_fuzz_case(kMutationSeed, LoadPolicyKind::kDirective, options);
}

obs::TraceEvent event(std::int64_t t_us, obs::TraceKind kind,
                      std::uint64_t subject, std::uint64_t actor = 0,
                      std::int64_t a = 0, std::int64_t b = 0) {
  obs::TraceEvent e;
  e.at = SimTime::from_us(t_us);
  e.kind = kind;
  e.subject = subject;
  e.actor = actor;
  e.a = a;
  e.b = b;
  return e;
}

// ---------------------------------------------------------------------------
// Clean sweeps
// ---------------------------------------------------------------------------

TEST(FuzzSweepTest, FixedSeedsHoldEveryInvariantUnderBothPolicies) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const LoadPolicyKind policy :
         {LoadPolicyKind::kClassic, LoadPolicyKind::kDirective}) {
      const FuzzResult result = run_fuzz_case(seed, policy);
      EXPECT_TRUE(result.report.ok())
          << result.plan.describe() << "\n" << result.report.summary();
      EXPECT_TRUE(result.quiesced) << result.plan.describe();
      EXPECT_GT(result.report.events_checked, 0u);
      EXPECT_GT(result.report.clients_tracked, 0u);
    }
  }
}

TEST(FuzzSweepTest, SameSeedReplaysByteIdentically) {
  FuzzRunOptions options;
  options.capture_trace = true;
  const FuzzResult first =
      run_fuzz_case(7, LoadPolicyKind::kClassic, options);
  const FuzzResult second =
      run_fuzz_case(7, LoadPolicyKind::kClassic, options);
  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "a seed must fully determine the run — replay is the contract "
         "that makes a red fuzz case debuggable";
  EXPECT_EQ(first.plan.describe(), second.plan.describe());
}

TEST(FuzzSweepTest, PlanExpansionIsPureAndPolicyAware) {
  const FuzzPlan classic = make_fuzz_plan(11, LoadPolicyKind::kClassic);
  const FuzzPlan again = make_fuzz_plan(11, LoadPolicyKind::kClassic);
  EXPECT_EQ(classic.describe(), again.describe());
  const FuzzPlan directive = make_fuzz_plan(11, LoadPolicyKind::kDirective);
  EXPECT_EQ(directive.deployment.config.policy.kind,
            LoadPolicyKind::kDirective);
  EXPECT_GT(classic.offered_clients, 0u);
  EXPECT_FALSE(classic.waves.empty());
  // The flight recorder must be able to hold the whole lifecycle story.
  EXPECT_GE(classic.deployment.config.obs.ring_capacity,
            classic.offered_clients * 160);
}

// ---------------------------------------------------------------------------
// Synthetic traces: each rule fires on the stream it exists for
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, CleanLifecycleHolds) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientAdmitted, 1, 10),
      event(200, obs::TraceKind::kClientHello, 2, 10),
      event(200, obs::TraceKind::kClientQueued, 2, 10),
      event(300, obs::TraceKind::kClientAdmitted, 2, 10),
      event(900, obs::TraceKind::kClientBye, 1, 10, /*a=*/1),
      event(950, obs::TraceKind::kClientBye, 2, 10, /*a=*/1),
  };
  InvariantOptions options;
  options.expect_quiesced = true;
  const InvariantReport report = check_trace(events, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.clients_tracked, 2u);
}

TEST(InvariantCheckerTest, UnresolvedHelloIsBlackhole) {
  // The gate is synchronous, so a hello with no same-instant verdict was
  // swallowed — whether the stream ends (client 1) or the client's next
  // event is a teardown bye (client 2).
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientHello, 2, 10),
      event(900, obs::TraceKind::kClientBye, 2, 10),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvBlackhole)) << report.summary();
  EXPECT_EQ(report.fired_counts.at(kInvBlackhole), 2u);
}

TEST(InvariantCheckerTest, LateVerdictIsBlackhole) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(5000, obs::TraceKind::kClientDeferred, 1, 10),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvBlackhole)) << report.summary();
}

TEST(InvariantCheckerTest, StuckClientsAfterQuiesceAreBlackholes) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientQueued, 1, 10),  // parked forever
      event(200, obs::TraceKind::kClientHello, 2, 10),
      event(200, obs::TraceKind::kClientAdmitted, 2, 10),
      event(300, obs::TraceKind::kClientRedirected, 2, 10, /*a=*/11),
      // client 2 never resumes at node 11 and never says bye
  };
  InvariantOptions options;
  options.expect_quiesced = true;
  const InvariantReport report = check_trace(events, options);
  note_fired(report);
  EXPECT_GE(report.fired_counts.at(kInvBlackhole), 2u) << report.summary();
}

TEST(InvariantCheckerTest, DoubleSessionIsClientConservationViolation) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientAdmitted, 1, 10),
      // admitted again at another node with no redirect in between
      event(200, obs::TraceKind::kClientAdmitted, 1, 11),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvClientConservation)) << report.summary();
}

TEST(InvariantCheckerTest, ByeFindingNoSessionIsClientConservationViolation) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientAdmitted, 1, 10),
      // the server forgot the session: the bye reports a=0 (none found)
      event(900, obs::TraceKind::kClientBye, 1, 10, /*a=*/0),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvClientConservation)) << report.summary();
}

TEST(InvariantCheckerTest, VanishedHandoffIsQueueConservationViolation) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientQueued, 1, 10),
      event(200, obs::TraceKind::kQueueHandoffSent, 1, 10, /*a=*/11,
            /*b=*/100),
      // never adopted, deferred, or duplicate-dropped
  };
  InvariantOptions options;
  options.expect_quiesced = true;
  const InvariantReport report = check_trace(events, options);
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvQueueConservation)) << report.summary();
}

TEST(InvariantCheckerTest, AdoptionWithoutHandoffIsQueueConservationViolation) {
  const std::vector<obs::TraceEvent> events = {
      event(200, obs::TraceKind::kQueueHandoff, 1, 5, /*a=*/11, /*b=*/100),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvQueueConservation)) << report.summary();
}

TEST(InvariantCheckerTest, AgeLossAcrossHandoffIsAgeConservationViolation) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientQueued, 1, 10),
      event(200, obs::TraceKind::kQueueHandoffSent, 1, 10, /*a=*/11,
            /*b=*/100),
      // adopted with a reset enqueued_at: the accrued age vanished
      event(300, obs::TraceKind::kQueueHandoff, 1, 5, /*a=*/11, /*b=*/300),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvAgeConservation)) << report.summary();
}

TEST(InvariantCheckerTest, HandoffBurstBeyondCapacityIsChurnViolation) {
  std::vector<obs::TraceEvent> events;
  for (std::uint64_t client = 1; client <= 5; ++client) {
    events.push_back(
        event(100, obs::TraceKind::kClientHello, client, 10));
    events.push_back(
        event(100, obs::TraceKind::kClientQueued, client, 10));
  }
  // One shed extracts five entries in a single same-instant burst...
  for (std::uint64_t client = 1; client <= 5; ++client) {
    events.push_back(event(500, obs::TraceKind::kQueueHandoffSent, client, 10,
                           /*a=*/11, /*b=*/100));
  }
  InvariantOptions options;
  options.max_handoff_burst = 3;  // ...against a waiting room bounded at 3
  const InvariantReport report = check_trace(events, options);
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvHandoffChurn)) << report.summary();
}

TEST(InvariantCheckerTest, AdoptionPingPongIsChurnViolation) {
  // The same client bounces between two waiting rooms four times while the
  // topology never changed once — handoff volume must be bounded by sheds.
  std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientQueued, 1, 10),
  };
  std::uint64_t src = 10;
  std::uint64_t dst = 11;
  for (int hop = 0; hop < 4; ++hop) {
    events.push_back(event(200 + hop * 100,
                           obs::TraceKind::kQueueHandoffSent, 1, src,
                           static_cast<std::int64_t>(dst), /*b=*/100));
    events.push_back(event(250 + hop * 100, obs::TraceKind::kQueueHandoff, 1,
                           5, static_cast<std::int64_t>(dst), /*b=*/100));
    std::swap(src, dst);
  }
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvHandoffChurn)) << report.summary();
}

TEST(InvariantCheckerTest, EndStateMismatchIsConservationViolation) {
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientAdmitted, 1, 10),
  };
  EndState expected;  // the live deployment holds nobody
  const InvariantReport report = check_trace(events, {}, &expected);
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvClientConservation)) << report.summary();
}

TEST(InvariantCheckerTest, ToleratedZombieRaceIsAnomalyNotViolation) {
  // A bye overtakes the client's own redirect: the resume admit lands
  // after the bye.  Legal (the zombie session is reaped by the next bye),
  // counted, not a violation.
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),
      event(100, obs::TraceKind::kClientAdmitted, 1, 10),
      event(200, obs::TraceKind::kClientRedirected, 1, 10, /*a=*/11),
      event(250, obs::TraceKind::kClientBye, 1, 10),
      event(300, obs::TraceKind::kClientAdmitted, 1, 11, /*a=*/7),
      event(400, obs::TraceKind::kClientBye, 1, 11, /*a=*/1),
  };
  const InvariantReport report = check_trace(events, {});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.anomalies, 1u);
}

TEST(InvariantCheckerTest, CleanControlStreamHolds) {
  // Strictly increasing (epoch, seq) per (node, kind) — including an epoch
  // flip that legally resets the seq — plus a full legal failsafe cycle.
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kControlApplied, 10, 2, /*a=*/1, /*b=*/1),
      event(200, obs::TraceKind::kControlApplied, 10, 2, /*a=*/1, /*b=*/2),
      event(300, obs::TraceKind::kControlApplied, 10, 2, /*a=*/2, /*b=*/1),
      event(400, obs::TraceKind::kFailsafeTransition, 10, 0, /*a=*/1,
            /*b=*/0),
      event(500, obs::TraceKind::kFailsafeTransition, 10, 0, /*a=*/2,
            /*b=*/1),
      event(600, obs::TraceKind::kFailsafeTransition, 10, 0, /*a=*/0,
            /*b=*/2),
  };
  const InvariantReport report = check_trace(events, {});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(InvariantCheckerTest, StaleControlReplayIsMonotonicViolation) {
  // A duplicate (epoch, seq) and an epoch regression both mean a stale
  // coordinator message changed state.
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kControlApplied, 10, 2, /*a=*/2, /*b=*/5),
      event(200, obs::TraceKind::kControlApplied, 10, 2, /*a=*/2, /*b=*/5),
      event(300, obs::TraceKind::kControlApplied, 10, 2, /*a=*/1, /*b=*/9),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvControlMonotonic)) << report.summary();
  EXPECT_EQ(report.fired_counts.at(kInvControlMonotonic), 2u);
}

TEST(InvariantCheckerTest, MalformedFailsafeEdgesAreTimelineViolations) {
  const std::vector<obs::TraceEvent> events = {
      // NORMAL→FALLBACK skips HOLD: illegal edge.
      event(100, obs::TraceKind::kFailsafeTransition, 10, 0, /*a=*/2,
            /*b=*/0),
      // FALLBACK→FALLBACK: self-transition.
      event(200, obs::TraceKind::kFailsafeTransition, 10, 0, /*a=*/2,
            /*b=*/2),
      // Claims to leave HOLD while the tracked state is FALLBACK.
      event(300, obs::TraceKind::kFailsafeTransition, 10, 0, /*a=*/0,
            /*b=*/1),
  };
  const InvariantReport report = check_trace(events, {});
  note_fired(report);
  EXPECT_TRUE(report.fired(kInvFailsafeTimeline)) << report.summary();
  EXPECT_EQ(report.fired_counts.at(kInvFailsafeTimeline), 3u);
}

TEST(InvariantCheckerTest, LossyControlLinksKeepStateMachineInvariants) {
  // Under a lossy control link a stranded lifecycle is forgiven (the lost
  // message explains it) but a corrupted state machine never is.
  const std::vector<obs::TraceEvent> events = {
      event(100, obs::TraceKind::kClientHello, 1, 10),  // never resolves
      event(200, obs::TraceKind::kControlApplied, 10, 2, /*a=*/1, /*b=*/3),
      event(300, obs::TraceKind::kControlApplied, 10, 2, /*a=*/1, /*b=*/3),
  };
  InvariantOptions options;
  options.lossy_control_links = true;
  const InvariantReport report = check_trace(events, options);
  EXPECT_FALSE(report.fired(kInvBlackhole)) << report.summary();
  EXPECT_TRUE(report.fired(kInvControlMonotonic)) << report.summary();
}

TEST(InvariantCheckerTest, ReportCapsDetailsButCountsEverything) {
  InvariantReport report;
  for (int i = 0; i < 100; ++i) {
    report.add(kInvBlackhole, "violation " + std::to_string(i));
  }
  EXPECT_EQ(report.fired_counts.at(kInvBlackhole), 100u);
  EXPECT_EQ(report.violations.size(),
            InvariantReport::kMaxDetailsPerInvariant);
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Mutation smoke: every fault knob is caught by its invariant
// ---------------------------------------------------------------------------

TEST(FuzzMutationTest, BaselineExercisesTheMachineryAndHolds) {
  const FuzzResult& baseline = mutation_baseline();
  ASSERT_TRUE(baseline.report.ok()) << baseline.report.summary();
  ASSERT_TRUE(baseline.quiesced);
  // The mutation seed must actually drive the subsystems the faults break;
  // otherwise the tests below would pass vacuously.
  EXPECT_GE(baseline.report.count(obs::TraceKind::kQueueHandoffSent), 10u);
  EXPECT_GE(baseline.report.count(obs::TraceKind::kQueueHandoff), 10u);
  EXPECT_GE(baseline.report.count(obs::TraceKind::kClientQueued), 50u);
  EXPECT_GE(baseline.report.count(obs::TraceKind::kClientDenied), 10u);
  EXPECT_GE(baseline.report.count(obs::TraceKind::kSplitCompleted), 2u);
  EXPECT_GE(baseline.report.count(obs::TraceKind::kClientRedirected), 100u);
}

TEST(FuzzMutationTest, SwallowedGatedJoinIsCaughtAsBlackhole) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    options.config.fault.swallow_gated_join_every = 3;
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvBlackhole))
      << result.report.summary();
}

TEST(FuzzMutationTest, DroppedQueueHandoffIsCaughtAsQueueConservation) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    options.config.fault.drop_queue_handoff = true;
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvQueueConservation))
      << result.report.summary();
}

TEST(FuzzMutationTest, ResetHandoffAgeIsCaughtAsAgeConservation) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    options.config.fault.reset_handoff_age = true;
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvAgeConservation))
      << result.report.summary();
}

TEST(FuzzMutationTest, LeakedSessionOnShedIsCaughtAsClientConservation) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    options.config.fault.leak_session_on_shed = true;
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvClientConservation))
      << result.report.summary();
}

TEST(FuzzMutationTest, SkippedRecoverMinIsCaughtAsAdmissionTimeline) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    // The valve relaxes after dwell alone while the validator judges
    // against the real recover_min — the hysteresis bug the timeline
    // invariant exists for.
    options.config.admission.dwell = SimTime::from_sec(1.0);
    options.config.admission.recover_min = SimTime::from_sec(10.0);
    options.config.fault.skip_recover_min = true;
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvAdmissionTimeline))
      << result.report.summary();
}

TEST(FuzzMutationTest, SpanCapacityOverflowIsCaughtAsSpanAccounting) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    options.config.obs.span_capacity = 1;  // hundreds of concurrent admits
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvSpanAccounting))
      << result.report.summary();
}

TEST(FuzzMutationTest, TruncatedRingIsCaughtAsSetup) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    options.config.obs.ring_capacity = 64;  // far too shallow for the run
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvSetup)) << result.report.summary();
}

TEST(FuzzMutationTest, StaleDirectiveReplayIsCaughtAsControlMonotonic) {
  const FuzzResult result = run_mutated([](DeploymentOptions& options) {
    // The matrix re-applies every coordinator directive a second time,
    // with the control plane's staleness rejection bypassed — the same
    // (epoch, seq) acts twice and the applied stream stops increasing.
    options.config.fault.stale_directive_replay = true;
  });
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvControlMonotonic))
      << result.report.summary();
}

TEST(FuzzMutationTest, NeverExpiredLookupsAreCaughtAsLookupBound) {
  // A chaos seed from the CI sweep band: the coordinator dies at 17.6 s and
  // its standby takes over at 29.8 s, while strays and owner queries keep
  // parking lookups nobody answers.  Expiry keeps the run clean; without
  // it the oldest parked lookup outlives tau1.
  constexpr std::uint64_t kOutageSeed = 9005;
  const FuzzResult clean = run_fuzz_case(kOutageSeed, LoadPolicyKind::kClassic);
  ASSERT_TRUE(clean.report.ok()) << clean.report.summary();
  ASSERT_NE(clean.plan.chaos.kill_at.us(), 0);

  FuzzRunOptions options;
  options.mutate = [](DeploymentOptions& deployment) {
    deployment.config.fault.never_expire_lookups = true;
  };
  const FuzzResult result =
      run_fuzz_case(kOutageSeed, LoadPolicyKind::kClassic, options);
  note_fired(result.report);
  EXPECT_TRUE(result.report.fired(kInvLookupBound))
      << result.report.summary();
  EXPECT_EQ(result.report.fired_counts.size(), 1u)
      << result.report.summary();
}

// ---------------------------------------------------------------------------
// Capstone: full invariant coverage
// ---------------------------------------------------------------------------

// Must run last (gtest runs same-binary tests in declaration order): every
// invariant the harness defines must have fired in at least one test above,
// or the harness carries a check nothing has ever been seen to catch.
TEST(FuzzCoverageTest, EveryInvariantFiredSomewhereInThisBinary) {
  for (const char* invariant :
       {kInvBlackhole, kInvClientConservation, kInvQueueConservation,
        kInvAgeConservation, kInvHandoffChurn, kInvAdmissionTimeline,
        kInvSpanAccounting, kInvSetup, kInvFailsafeTimeline,
        kInvControlMonotonic, kInvLookupBound}) {
    EXPECT_TRUE(fired_registry().count(invariant) == 1)
        << "invariant '" << invariant
        << "' never fired in any synthetic or mutation test";
  }
}

}  // namespace
}  // namespace matrix::fuzz
