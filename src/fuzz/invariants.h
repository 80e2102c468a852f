// Trace-invariants harness — the correctness oracle behind the scenario
// fuzzer (docs/TESTING.md).
//
// PR 6 gave every deployment a flight recorder of typed lifecycle events;
// this harness turns that stream into a set of invariants that must hold
// for ANY run, whatever the workload, topology, or knob settings:
//
//   blackhole             every hello resolves (PLAYING / deny / defer /
//                         bye); after a quiesced run nothing is still
//                         pending, parked, or mid-redirect, and no
//                         admit/queue-wait/handoff span is left open.
//   client-conservation   client counts are conserved across split/merge/
//                         handoff/adopt: the per-client lifecycle grammar
//                         holds (no double sessions, no redirect of a
//                         nonexistent session, no valve action against a
//                         live session), and the trace-derived playing set
//                         equals each game server's actual session table.
//   queue-conservation    every waiting-room entry extracted for a
//                         cross-server handoff is accounted for at the
//                         destination (adopted, deferred back to retry, or
//                         duplicate-dropped) — entries never vanish or
//                         duplicate; trace and registry tallies agree.
//   age-conservation      a handed-off entry keeps its accrued age: the
//                         enqueued_at the destination adopts is the one the
//                         source extracted.
//   handoff-churn         handoff volume is bounded: one shed's burst never
//                         exceeds the waiting-room capacity, and no client
//                         is re-adopted more often than topology changed.
//   admission-timeline    every admission timeline (each server's valve,
//                         the coordinator's directive floor) satisfies the
//                         hysteresis contract — admission_timeline_valid,
//                         machine-checked everywhere.
//   span-accounting       no span was dropped for capacity and, after a
//                         quiesced run, no split/reclaim span leaks open.
//   failsafe-timeline     every control-plane failsafe timeline is legal:
//                         NORMAL→HOLD→FALLBACK→NORMAL transitions only, no
//                         self-loops or skipped states in the trace, the
//                         matrix planes' recorded heartbeat ages respect the
//                         fixed tau1/tau2 (failsafe_timeline_valid), and no
//                         game plane transitions at all.
//   control-monotonic     applied control updates are strictly monotonic
//                         per (node, kind) in (epoch, seq) — a stale or
//                         duplicate coordinator message never changes state.
//   lookup-bound          a matrix server's parked MC point lookups are
//                         bounded for an outage of any length: none is
//                         older than tau1 when the next is parked, and no
//                         reply ever arrives for an expired one.
//   setup                 not an invariant of the system but of the run:
//                         the flight recorder must be deep enough to hold
//                         the whole lifecycle history, else the checks
//                         above would be judging a truncated story.
//
// The checker is two-layered on purpose: check_trace() is a pure function
// over an event vector (so tests can feed synthetic streams and prove each
// rule fires), and check_deployment() wraps it with everything only the
// live deployment knows — actual session tables, open spans, controller
// timelines, the registry snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/sim_time.h"

namespace matrix {
class Deployment;
}  // namespace matrix

namespace matrix::fuzz {

// Invariant names — the `invariant` field of every violation, and the keys
// docs/TESTING.md catalogs.
inline constexpr const char* kInvBlackhole = "blackhole";
inline constexpr const char* kInvClientConservation = "client-conservation";
inline constexpr const char* kInvQueueConservation = "queue-conservation";
inline constexpr const char* kInvAgeConservation = "age-conservation";
inline constexpr const char* kInvHandoffChurn = "handoff-churn";
inline constexpr const char* kInvAdmissionTimeline = "admission-timeline";
inline constexpr const char* kInvSpanAccounting = "span-accounting";
inline constexpr const char* kInvSetup = "setup";
/// Control-plane failsafe (src/control/control_plane.h): every failsafe
/// timeline chains legally in the trace (NORMAL→HOLD→FALLBACK→NORMAL, no
/// self-transitions, no skipped states), and — in check_deployment — every
/// matrix server's transition record satisfies failsafe_timeline_valid
/// against the fixed kFailsafeTau1/kFailsafeTau2, while every game server's
/// plane (a seq gate, no machine) records none.
inline constexpr const char* kInvFailsafeTimeline = "failsafe-timeline";
/// Applied control updates are strictly monotonic per (node, kind): each
/// kControlApplied's (epoch, seq) lexicographically exceeds the previous
/// one.  A duplicate or regression here means a stale coordinator message
/// changed state — the bug class the epoch-stamped ControlUpdate API exists
/// to make impossible.
inline constexpr const char* kInvControlMonotonic = "control-monotonic";
/// Parked MC point lookups stay bounded (core/matrix_server.h): every
/// matrix server's oldest parked lookup, seen whenever it parked another,
/// was younger than tau1 (lookup_age_peak_us), and no reply came back for
/// a lookup that had expired (late_lookup_replies == 0) — so expiry never
/// changed what a server did.
inline constexpr const char* kInvLookupBound = "lookup-bound";

struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

struct InvariantOptions {
  /// Upper bound on one shed's contiguous handoff burst (set it to the
  /// waiting-room capacity); 0 skips the burst check.
  std::uint64_t max_handoff_burst = 0;
  /// The run was quiesced (every bot told to leave, then drained): nothing
  /// may still be pending, parked, mid-redirect, or in-flight, and no
  /// lifecycle span may be open.
  bool expect_quiesced = false;
  /// Compare the trace-derived end state against the live deployment's
  /// session tables and waiting rooms (check_deployment only).
  bool check_end_state = true;
  /// The run degraded control links (drop > 0 on MC↔Matrix): weakened
  /// invariant set.  Conservation stories that assume reliable delivery —
  /// blackhole, client/queue/age conservation — are suppressed, because a
  /// lost control message can legitimately strand a lifecycle mid-flight
  /// (e.g. a directive that never re-opened a frozen waiting room).  The
  /// control-plane invariants (admission-timeline, failsafe-timeline,
  /// control-monotonic, span capacity, handoff churn) still apply in full:
  /// loss may starve state machines, never corrupt them.
  bool lossy_control_links = false;
};

/// Everything recorded about one checked run.  `violations` keeps at most
/// kMaxDetailsPerInvariant entries per invariant; `fired_counts` keeps the
/// full tally so a stream of one bug class cannot drown out another.
struct InvariantReport {
  static constexpr std::size_t kMaxDetailsPerInvariant = 16;

  std::vector<InvariantViolation> violations;
  std::map<std::string, std::uint64_t> fired_counts;
  std::uint64_t events_checked = 0;
  std::uint64_t clients_tracked = 0;
  /// Tolerated zombie races (a bye overtaken by its own handoff or
  /// redirect): legal, rare, worth counting.
  std::uint64_t anomalies = 0;
  /// Event census by TraceKind — what the checker actually saw, so tests
  /// can assert a scenario exercised the machinery they think it did.
  std::uint64_t kind_counts[static_cast<std::size_t>(obs::TraceKind::kCount)] =
      {};

  [[nodiscard]] bool ok() const { return fired_counts.empty(); }
  [[nodiscard]] bool fired(std::string_view invariant) const;
  [[nodiscard]] std::uint64_t count(obs::TraceKind kind) const {
    return kind_counts[static_cast<std::size_t>(kind)];
  }
  /// Multi-line human summary: per-invariant tallies then the retained
  /// violation details.  "all invariants hold" when ok().
  [[nodiscard]] std::string summary() const;

  void add(std::string invariant, std::string detail);
};

/// Trace-derived expected end state, for comparing against the live
/// deployment (or a synthetic expectation in tests): clients playing /
/// parked per game NODE id.
struct EndState {
  std::map<std::uint64_t, std::uint64_t> playing_by_node;
  std::map<std::uint64_t, std::uint64_t> queued_by_node;
};

/// Pure checker: replays the per-client lifecycle state machine over
/// `events` (oldest first, as Tracer::ring_snapshot returns them) and
/// applies every trace-level invariant.  With `expected`, the trace-derived
/// final playing/queued sets must match it exactly.
[[nodiscard]] InvariantReport check_trace(
    const std::vector<obs::TraceEvent>& events,
    const InvariantOptions& options, const EndState* expected = nullptr);

/// Whole-deployment checker: ring snapshot through check_trace (with the
/// actual session tables and waiting rooms as the expected end state), plus
/// the live-only invariants — open spans, span drops, ring depth, every
/// admission-controller timeline, and registry/trace cross-checks.
[[nodiscard]] InvariantReport check_deployment(Deployment& deployment,
                                               InvariantOptions options = {});

/// Drives the deployment to rest so end-of-run invariants are meaningful:
/// tells every bot to leave, then advances time in steps until no
/// client-lifecycle or topology span remains open (splits, reclaims and
/// queue drains in flight get to finish).  Returns true when the
/// deployment went quiet within `max_extra`; false means something is
/// stuck — run check_deployment with expect_quiesced to find out what.
bool quiesce(Deployment& deployment,
             SimTime max_extra = SimTime::from_sec(60.0));

}  // namespace matrix::fuzz
