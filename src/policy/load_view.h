// Consolidated load signals — the one snapshot every load decision reads.
//
//   * LoadSignals      — one server's instantaneous load triple, as observed
//                        by the game server and carried by LoadReport and
//                        LoadDigest;
//   * LoadView         — what a Matrix server knows when it decides: its own
//                        LoadSignals plus range, split hysteresis, pool
//                        occupancy, valve and failsafe state.  Built by
//                        MatrixServer::build_load_view() and read by the
//                        load rules (policy/load_rules.h) and the admission
//                        valve (control/admission.h) alike;
//   * ChildView        — the parent-visible slice of one child (reclaim
//                        decisions);
//   * PressureBreakdown — the global-admission pressure score split into its
//                        weighted terms, so tests can see WHY the deployment
//                        is pressured, not just how much.
//
// AdmissionState is declared here, not in control/admission.h, because the
// valve reads this view: admission.h includes this header.
#pragma once

#include <cstdint>

#include "control/control_plane.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace matrix {

/// The admission valve's three states (control/admission.h).
enum class AdmissionState : std::uint8_t {
  kNormal = 0,
  kSoft = 1,
  kHard = 2,
};

/// One server's instantaneous load, as its game server observes it.  The
/// triple every control-plane consumer reads: the admission valve, the
/// load rules, and the coordinator's global-admission aggregate.
struct LoadSignals {
  std::uint32_t client_count = 0;
  /// Receive-queue depth (messages) — the paper's "system performance
  /// measurements" overload signal.
  std::uint32_t queue_length = 0;
  /// Surge-queue ("waiting room") depth; 0 while the room is disabled.
  std::uint32_t waiting_count = 0;
};

/// The deployment-wide pressure score of coordinator-led global admission
/// (control/global_admission.h), split into its weighted terms.  Weights
/// are fixed by the scoring contract documented in ROADMAP/ARCHITECTURE:
/// 0.4·pool + 0.3·load + 0.2·elevated + 0.1·waiting.
struct PressureBreakdown {
  double pool_term = 0.0;      ///< 1 − idle fraction of the spare pool
  double load_term = 0.0;      ///< mean load fraction vs overload, sat. at 1
  double elevated_term = 0.0;  ///< share of servers SOFT (0.5) / HARD (1.0)
  double waiting_term = 0.0;   ///< aggregate waiting-room depth, saturated

  [[nodiscard]] constexpr double total() const {
    return 0.40 * pool_term + 0.30 * load_term + 0.20 * elevated_term +
           0.10 * waiting_term;
  }
};

/// Everything the load rules and the admission valve consult.  Assembled
/// by MatrixServer::build_load_view() from the latest LoadReport, the
/// directly observed receive queue, the MC's broadcasts, and local
/// hysteresis state.
struct LoadView {
  /// The latest LoadReport's triple; queue_length is the larger of the
  /// reported and the directly observed receive-queue depth.
  LoadSignals load;
  /// Median client coordinate from the latest LoadReport (load-aware cuts).
  Vec2 median_position;
  /// This server's current partition.
  Rect range;
  /// Consecutive overloaded LoadReports (split hysteresis counter).
  std::uint32_t consecutive_overload = 0;
  /// Consecutive PoolDeny answers since the last grant / calm report.
  std::uint32_t split_denied_streak = 0;
  /// Idle fraction of the deployment's spare pool; negative ⇒ never heard.
  double pool_idle_fraction = -1.0;
  /// Local valve composed with the coordinator's directive floor (strictest
  /// wins) — what the join gate enforces.
  AdmissionState effective_valve = AdmissionState::kNormal;
  /// True while a coordinator AdmissionDirective is in force.
  bool directive_active = false;
  /// Control-plane failsafe state.  Non-NORMAL means coordinator-derived
  /// state above is FROZEN: no rule derives a new pool-grant-seeking
  /// decision from it.
  FailsafeState failsafe = FailsafeState::kNormal;
};

/// The parent-visible slice of one child server, for reclaim decisions
/// (fed by the child's PeerLoad heartbeats).
struct ChildView {
  std::uint32_t client_count = 0;
  std::uint32_t child_count = 0;
  /// False until the first heartbeat arrives — an unknown child is never
  /// reclaimed on a default-zero load figure.
  bool load_known = false;
};

}  // namespace matrix
