// Admission & overload protection — the boundary valve for pool-exhausted
// deployments.
//
// Matrix absorbs hotspots by splitting partitions onto spare servers, but
// once the resource pool runs dry the middleware itself has no remaining
// move: clients keep connecting into a saturated partition and latency
// collapses unboundedly.  This subsystem makes that regime explicit instead
// of unmodeled, following the control-plane shape of the Continuity design
// (SNIPPETS.md): an enforceable three-state admission machine,
//
//   NORMAL  admit every join;
//   SOFT    admit under a token budget (rate + burst), defer the rest;
//   HARD    deny new joins outright (fast fail);
//
// driven by per-server load signals (reported client count, receive-queue
// depth, consecutive pool denials) plus the deployment-wide pool-occupancy
// signal the coordinator broadcasts.  Sessions already admitted are never
// cut: handoffs/resumes bypass the valve, so protection degrades *new*
// traffic, not live players.
//
// Hysteresis is mandatory, not optional: escalation is immediate (a
// saturated server must close the valve now), relaxation is slow — the
// signals must sit *below* the current state's severity continuously for
// `recover_min`, no transition may follow another within `dwell`, and
// relaxation steps down one level at a time (HARD→SOFT→NORMAL).  Those three
// rules are machine-checkable on the recorded timeline; see
// admission_timeline_valid().  One AdmissionHysteresis machine applies them,
// here and for the coordinator's directive floor (global_admission.h).
//
// Knobs live in AdmissionConfig (core/config.h); the subsystem is disabled
// by default so the paper-faithful benches are untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "policy/load_view.h"
#include "util/sim_time.h"

namespace matrix {

// AdmissionState itself is declared in policy/load_view.h, next to the
// LoadView the valve reads.
[[nodiscard]] const char* admission_state_name(AdmissionState state);

/// Maps a wire byte (AdmissionUpdate.state, AdmissionDirective.floor) back
/// to a state.  Out-of-range values clamp to kHard — a corrupt or
/// future-version frame must fail the valve CLOSED, never open (an
/// unmatched enum in a gate switch would otherwise fall through to
/// "admit").
[[nodiscard]] constexpr AdmissionState admission_state_from_wire(
    std::uint8_t wire) {
  return wire <= static_cast<std::uint8_t>(AdmissionState::kHard)
             ? static_cast<AdmissionState>(wire)
             : AdmissionState::kHard;
}

/// Composition rule for coordinator-led global admission
/// (control/global_admission.h): a server's effective valve state is its
/// local decision composed with the coordinator's directive floor —
/// strictest wins.  The local controller's hysteresis timeline is untouched
/// by composition (the floor is an external clamp, not a local transition).
[[nodiscard]] constexpr AdmissionState compose_admission(
    AdmissionState local, AdmissionState floor) {
  return local > floor ? local : floor;
}

/// One recorded state change, for metrics and invariant checking.
struct AdmissionTransition {
  SimTime at;
  AdmissionState from = AdmissionState::kNormal;
  AdmissionState to = AdmissionState::kNormal;
};

/// Counts of one admission machine's life.
struct AdmissionStats {
  std::uint64_t escalations = 0;
  std::uint64_t relaxations = 0;
};

/// The hysteresis machine behind every admission timeline — each server's
/// valve and the coordinator's directive floor.  It moves toward a target
/// severity: up at once, down one level at a time, and only after the
/// target has sat below the current state continuously for `recover_min`
/// and `dwell` has passed since the last transition.
class AdmissionHysteresis {
 public:
  /// `skip_recover_min` plants FaultConfig::skip_recover_min (tests only):
  /// relaxation waits out the dwell but not the calm window, while the
  /// timeline is still judged against the real recover_min.
  AdmissionHysteresis(SimTime dwell, SimTime recover_min,
                      bool skip_recover_min = false)
      : dwell_(dwell),
        recover_min_(recover_min),
        skip_recover_min_(skip_recover_min) {}

  /// Applies the transition rules toward `target`.  Returns true when the
  /// state changed.
  bool step(SimTime now, AdmissionState target);

  /// Returns to NORMAL with an empty timeline, folding the old timeline's
  /// validity into lifetime_valid() first.
  void reset(SimTime now);

  [[nodiscard]] AdmissionState state() const { return state_; }
  /// Transition timeline since construction or the last reset().
  [[nodiscard]] const std::vector<AdmissionTransition>& transitions() const {
    return transitions_;
  }
  /// Hysteresis-contract check over the machine's WHOLE life, so a
  /// violation can never be laundered by a reset.
  [[nodiscard]] bool lifetime_valid() const;
  /// Transitions up and down since construction (resets included).
  [[nodiscard]] std::uint64_t escalations() const { return escalations_; }
  [[nodiscard]] std::uint64_t relaxations() const { return relaxations_; }

 private:
  void transition(SimTime now, AdmissionState to);

  SimTime dwell_;
  SimTime recover_min_;
  bool skip_recover_min_;

  AdmissionState state_ = AdmissionState::kNormal;
  SimTime last_transition_{};
  /// Start of the current continuous below-state-severity window; only
  /// meaningful while calm_.
  SimTime calm_since_{};
  bool calm_ = false;
  bool ever_transitioned_ = false;
  bool lifetime_valid_ = true;
  std::uint64_t escalations_ = 0;
  std::uint64_t relaxations_ = 0;
  std::vector<AdmissionTransition> transitions_;
};

class AdmissionController {
 public:
  /// `skip_recover_min` plants FaultConfig::skip_recover_min (tests only).
  AdmissionController(const AdmissionConfig& config,
                      std::uint32_t overload_clients,
                      bool skip_recover_min = false);

  /// Feeds one observation and applies the transition rules.  Returns true
  /// when the admission state changed.  The valve reads the view's load
  /// triple, split_denied_streak and pool_idle_fraction.
  bool observe(SimTime now, const LoadView& view);

  [[nodiscard]] AdmissionState state() const { return valve_.state(); }

  /// Severity the given view maps to before hysteresis — the "target"
  /// state of the Continuity mode-selection equation.  Exposed for tests.
  [[nodiscard]] AdmissionState target_for(const LoadView& view) const;

  /// Full transition timeline since construction/reset.
  [[nodiscard]] const std::vector<AdmissionTransition>& transitions() const {
    return valve_.transitions();
  }

  /// Hysteresis-contract check over the controller's WHOLE life: the
  /// current timeline plus every pre-reset one.
  [[nodiscard]] bool lifetime_timeline_valid() const {
    return valve_.lifetime_valid();
  }

  using Stats = AdmissionStats;
  [[nodiscard]] Stats stats() const {
    return {valve_.escalations(), valve_.relaxations()};
  }

  /// Returns to NORMAL with an empty timeline (a pooled server being
  /// re-adopted starts a fresh admission life).
  void reset(SimTime now) { valve_.reset(now); }

 private:
  AdmissionConfig config_;
  std::uint32_t overload_clients_;
  AdmissionHysteresis valve_;
};

/// Checks a recorded timeline against the hysteresis contract:
///   * relaxations step down exactly one level;
///   * a relaxation follows the previous transition by >= dwell and >=
///     recover_min (the stability window cannot predate the last change);
///   * escalations may be immediate but must go strictly up.
[[nodiscard]] bool admission_timeline_valid(
    const std::vector<AdmissionTransition>& timeline, SimTime dwell,
    SimTime recover_min);

}  // namespace matrix
