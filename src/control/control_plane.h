// Control-plane failsafe — one epoch-stamped ingestion path for every
// coordinator-originated state flip, plus the heartbeat-driven NORMAL /
// HOLD / FALLBACK degradation machine (ROADMAP "Control-plane failsafe").
//
// Before this layer, staleness checking was scattered: the matrix server
// compared AdmissionDirective.seq against one counter, McAnnounce.generation
// against another, the game server kept its own seq counters for
// AdmissionUpdate and relayed directives, and PoolPressure was applied
// unconditionally.  A coordinator fail-over had to reset the right subset of
// those counters in the right order or a server would act on a dead brain's
// directives.  ControlPlane replaces all of it with a single entry point:
//
//   ControlVerdict v = plane.admit(now, {kind, epoch, seq});
//   if (v == ControlVerdict::kApply) { ...act on the payload... }
//
// Every rule lives here:
//   * epoch (= MC generation) supersedes seq: a higher epoch flips the
//     plane atomically (all per-kind seq counters reset together, one
//     kControlEpochFlip trace), a lower epoch is dropped;
//   * within an epoch, sequenced kinds must strictly increase;
//   * while the failsafe is degraded (HOLD/FALLBACK), coordinator-originated
//     payloads (directives, pool pressure) are refused outright — a delayed
//     directive from a possibly-dead coordinator is exactly the "stale
//     brain" input the machine exists to fence off.  Only a fresh heartbeat
//     or announce restores trust.
//
// The failsafe machine itself (driven by heartbeat age; only matrix servers
// start and tick it — a game server's plane is just the seq gate for the
// one AdmissionUpdate stream its matrix server numbers):
//
//   NORMAL    fresh MC: obey directives.
//   HOLD      heartbeat silence >= tau1: freeze the current directive and
//             pool view rather than acting on them — the directive stays in
//             force, but no new pool-grant-seeking decisions are derived
//             from coordinator state (the directive need hint drops to 0).
//   FALLBACK  silence >= tau2: deterministic local-only behaviour — the
//             frozen directive is dropped (local valve and local token rate
//             take back over), splits needing pool grants are suppressed,
//             reclaim turns conservative.
//
// Degradation never skips a level (NORMAL→HOLD→FALLBACK); recovery on a
// fresh heartbeat jumps straight back to NORMAL.  The recorded timeline is
// machine-checked by failsafe_timeline_valid(), the same contract shape as
// admission_timeline_valid().
//
// Disabled (Config::failsafe.enabled == false, the default) the machine is
// inert — state() is always NORMAL, no transitions are recorded, admit()
// reproduces the historical ad-hoc accept/reject decisions bit-for-bit, so
// the pinned golden-trace hashes are unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "obs/trace.h"
#include "util/sim_time.h"

namespace matrix {

enum class FailsafeState : std::uint8_t {
  kNormal = 0,
  kHold = 1,
  kFallback = 2,
};

[[nodiscard]] const char* failsafe_state_name(FailsafeState state);

/// Which coordinator-originated control flow an update belongs to.  Each
/// sequenced kind keeps its own seq counter inside the current epoch.
enum class ControlKind : std::uint8_t {
  kAnnounce = 0,    ///< McAnnounce: epoch-stamped, unsequenced
  kHeartbeat,       ///< McHeartbeat: epoch-stamped + sequenced
  kDirective,       ///< AdmissionDirective (MC → matrix only)
  kAdmissionUpdate, ///< AdmissionUpdate (matrix → game; local, never gated)
  kPoolPressure,    ///< PoolPressure: unsequenced, gated while degraded
  kCount,
};

[[nodiscard]] const char* control_kind_name(ControlKind kind);

/// The stamp every control update carries into admit().  `epoch` is the MC
/// generation (0 = not epoch-stamped: an intra-epoch message); `seq` is the
/// per-kind sequence number (0 = unsequenced).
struct ControlUpdate {
  ControlKind kind = ControlKind::kDirective;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

enum class ControlVerdict : std::uint8_t {
  kApply = 0,      ///< act on the payload
  kStaleEpoch,     ///< from a superseded coordinator generation
  kStaleSeq,       ///< replay or reorder within the current epoch
  kHeld,           ///< refused while the failsafe is degraded (HOLD/FALLBACK)
};

/// Heartbeat silence at which a server enters HOLD: the current
/// directive/pool view is frozen — still in force, but no longer a basis
/// for new pool-grant-seeking decisions (the directive need hint drops to
/// zero, proactive splits stop).  Also the deadline for an unanswered MC
/// point lookup, whether or not the failsafe is enabled: a matrix server
/// drops a lookup parked this long when it parks the next one.
inline constexpr SimTime kFailsafeTau1 = SimTime::from_sec(3.0);

/// Heartbeat silence at which a server enters FALLBACK: deterministic
/// local-only behaviour.  The frozen directive is dropped (local valve and
/// local token rate take back over), splits that would need a pool grant
/// are suppressed, and reclaim turns conservative (only an empty child is
/// merged back).
inline constexpr SimTime kFailsafeTau2 = SimTime::from_sec(8.0);
static_assert(kFailsafeTau2 > kFailsafeTau1);

/// Cadence of the local staleness check while enabled.  Bounds how late
/// after tau1/tau2 a transition can fire.
inline constexpr SimTime kFailsafeCheckInterval = SimTime::from_ms(500);

/// One recorded failsafe state change.  `heartbeat_age` is the silence
/// (now − last accepted heartbeat) at the instant of the transition — the
/// quantity the validity check judges tau1/tau2 against, so the check does
/// not depend on tick cadence.
struct FailsafeTransition {
  SimTime at{};
  FailsafeState from = FailsafeState::kNormal;
  FailsafeState to = FailsafeState::kNormal;
  SimTime heartbeat_age{};
};

class ControlPlane {
 public:
  explicit ControlPlane(const FailsafeConfig& config) : config_(config) {}

  /// Wires the trace sink and the owning node's id (trace subject).  The
  /// tracer may be null (unit tests).
  void bind(obs::Tracer* tracer, std::uint64_t subject) {
    tracer_ = tracer;
    subject_ = subject;
  }

  /// Starts the heartbeat clock: silence is measured from here until the
  /// first heartbeat lands.  Call once when the owner begins ticking.
  void start(SimTime now) {
    last_heartbeat_ = now;
    started_ = true;
  }

  /// THE control-update entry point.  Applies the epoch/seq/degradation
  /// rules and mutates plane state (epoch flip, seq counters, heartbeat
  /// clock, recovery) exactly when the verdict is kApply.
  ControlVerdict admit(SimTime now, const ControlUpdate& update);

  /// Advances the failsafe machine against the heartbeat clock.  Returns
  /// true when the state changed.  No-op unless enabled and started.
  bool tick(SimTime now);

  [[nodiscard]] FailsafeState state() const { return state_; }
  /// HOLD or FALLBACK: coordinator state is no longer trusted.
  [[nodiscard]] bool degraded() const {
    return state_ != FailsafeState::kNormal;
  }
  [[nodiscard]] bool fallback() const {
    return state_ == FailsafeState::kFallback;
  }

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t last_seq(ControlKind kind) const {
    return last_seq_[static_cast<std::size_t>(kind)];
  }

  /// Full failsafe transition timeline since construction.
  [[nodiscard]] const std::vector<FailsafeTransition>& transitions() const {
    return transitions_;
  }

  struct Stats {
    std::uint64_t applied = 0;
    std::uint64_t stale_epoch_drops = 0;
    std::uint64_t stale_seq_drops = 0;
    std::uint64_t held_drops = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t epoch_flips = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// TEST-ONLY (Config::fault.stale_directive_replay): accept stale
  /// sequenced updates instead of rejecting them, so the planted
  /// stale-directive bug actually re-applies — and the monotonicity
  /// invariant over kControlApplied traces catches it.
  void set_fault_accept_stale(bool on) { fault_accept_stale_ = on; }

 private:
  void flip_epoch(SimTime now, std::uint64_t epoch);
  void note_heartbeat(SimTime now);
  void transition(SimTime now, FailsafeState to);

  FailsafeConfig config_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t subject_ = 0;

  std::uint64_t epoch_ = 0;
  std::uint64_t last_seq_[static_cast<std::size_t>(ControlKind::kCount)] = {};

  FailsafeState state_ = FailsafeState::kNormal;
  SimTime last_heartbeat_{};
  bool started_ = false;
  bool fault_accept_stale_ = false;

  std::vector<FailsafeTransition> transitions_;
  Stats stats_;
};

/// Checks a recorded failsafe timeline against the degradation contract:
///   * no self-transitions, and consecutive entries chain (from == prev to);
///   * only the legal edges NORMAL→HOLD, HOLD→FALLBACK, HOLD→NORMAL,
///     FALLBACK→NORMAL — degradation never skips a level, recovery never
///     stops half-way;
///   * timestamps are non-decreasing;
///   * HOLD is entered at heartbeat age >= tau1, FALLBACK at age >= tau2,
///     and recovery to NORMAL at age < tau1 (a fresh beat);
///   * across a consecutive HOLD→FALLBACK pair the wall gap equals the age
///     gap (the silence ran uninterrupted — no beat landed in between).
[[nodiscard]] bool failsafe_timeline_valid(
    const std::vector<FailsafeTransition>& timeline);

}  // namespace matrix
