// Coordinator-led global admission — the deployment-wide valve above the
// per-server ones.
//
// PR 1/PR 2 made overload a first-class regime, but every valve is still
// local: when several partitions saturate at once, each AdmissionController
// reacts only to its own signals, so a flash crowd spanning partitions is
// admitted unevenly — the partition that happened to close its valve last
// soaks up the whole deployment's join pressure while another's waiting
// room starves.  The Matrix Coordinator is the one node that already sees
// everything (PoolStatus from the pool, and now a LoadDigest per server);
// this class turns that vantage point into a directive:
//
//   * a PRESSURE SCORE folding pool occupancy, mean load, the share of
//     servers already elevated, and aggregate waiting-room depth into one
//     deployment-wide number in [0, 1];
//   * a FLOOR state (NORMAL/SOFT/HARD) derived from the score by the same
//     AdmissionHysteresis machine as the local valve — escalation
//     immediate, relaxation one level at a time after dwell + recover_min
//     of calm, machine-checked by admission_timeline_valid;
//   * per-server TOKEN-BUDGET SHARES: the deployment-wide SOFT budget is
//     divided in proportion to each server's waiting-room depth (plus a
//     floor share), so the most starved partitions drain first.
//
// The coordinator broadcasts the result as AdmissionDirective messages;
// each Matrix server composes the floor with its local decision (strictest
// wins — compose_admission in admission.h) and its game server swaps the
// directive share into its join bucket.  Like everything in src/control/,
// the subsystem is off by default (Config::admission.global.enabled).
#pragma once

#include <cstdint>
#include <vector>

#include "control/admission.h"
#include "core/config.h"
#include "policy/load_view.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace matrix {

class GlobalAdmission {
 public:
  GlobalAdmission(const GlobalAdmissionConfig& config,
                  std::uint32_t overload_clients);

  /// One server's digest, as carried by the LoadDigest wire message: the
  /// shared LoadSignals triple (policy/load_view.h) plus the server's LOCAL
  /// valve state.
  struct ServerDigest {
    LoadSignals load;
    AdmissionState state = AdmissionState::kNormal;
  };

  /// Feeds one server digest / the pool's occupancy, then re-evaluates the
  /// floor.  Returns true when the floor CHANGED (the caller should
  /// broadcast immediately; share drift alone is rebroadcast on the
  /// directive_interval cadence — see broadcast_due()).
  bool observe_server(SimTime now, ServerId server, const ServerDigest& digest);
  bool observe_pool(SimTime now, std::uint32_t idle, std::uint32_t total);

  /// Drops a server from the aggregate (unregistered/reclaimed).  Returns
  /// true when the re-evaluation changed the floor — losing a calm server
  /// can push the mean terms over a threshold, and that clamp must
  /// broadcast as immediately as any other escalation.
  bool forget_server(SimTime now, ServerId server);

  // ---- directive contents ---------------------------------------------------

  [[nodiscard]] AdmissionState floor() const { return floor_.state(); }
  /// A directive is in force while the floor is elevated.
  [[nodiscard]] bool active() const {
    return floor() != AdmissionState::kNormal;
  }
  /// Deployment pressure score in [0, 1] at the last evaluation.
  [[nodiscard]] double pressure() const { return breakdown_.total(); }
  /// The score split into its weighted terms (policy/load_view.h) — the
  /// "why" behind the floor, consumable by policies, benches, and tests.
  [[nodiscard]] const PressureBreakdown& breakdown() const {
    return breakdown_;
  }
  /// Aggregate surge-queue depth across all digests.
  [[nodiscard]] std::uint32_t waiting_total() const;
  /// `server`'s share of the deployment-wide SOFT token budget: its
  /// token_rate_floor plus a waiting-room-depth-weighted slice of the
  /// remainder, so shares across tracked servers sum to exactly
  /// token_rate_total.  Only meaningful while active().
  [[nodiscard]] double share_for(ServerId server) const;

  /// True when an unchanged-floor share refresh is due (directive_interval
  /// since the last broadcast).  The caller stamps broadcasts with
  /// mark_broadcast().
  [[nodiscard]] bool broadcast_due(SimTime now) const;
  void mark_broadcast(SimTime now) {
    last_broadcast_ = now;
    ever_broadcast_ = true;
  }

  // ---- observability / invariants -------------------------------------------

  /// Floor transitions, under the exact contract of the per-server valve.
  [[nodiscard]] const std::vector<AdmissionTransition>& transitions() const {
    return floor_.transitions();
  }
  /// Hysteresis-contract check on the floor timeline
  /// (admission_timeline_valid with this config's dwell/recover_min).
  [[nodiscard]] bool timeline_valid() const { return floor_.lifetime_valid(); }

  using Stats = AdmissionStats;
  [[nodiscard]] Stats stats() const {
    return {floor_.escalations(), floor_.relaxations()};
  }
  [[nodiscard]] std::size_t tracked_servers() const { return digests_.size(); }

  /// Severity the current aggregate maps to before hysteresis (exposed for
  /// tests, mirroring AdmissionController::target_for).
  [[nodiscard]] AdmissionState target() const;

 private:
  struct Tracked {
    ServerId server;
    ServerDigest digest;
  };

  /// Re-evaluates pressure and applies the floor transition rules; true on
  /// a floor change.
  bool evaluate(SimTime now);
  [[nodiscard]] PressureBreakdown compute_pressure() const;

  GlobalAdmissionConfig config_;
  std::uint32_t overload_clients_;

  std::vector<Tracked> digests_;
  std::uint32_t pool_idle_ = 0;
  std::uint32_t pool_total_ = 0;  ///< 0 ⇒ pool occupancy unknown

  AdmissionHysteresis floor_;
  PressureBreakdown breakdown_;
  SimTime last_broadcast_{};
  bool ever_broadcast_ = false;
};

}  // namespace matrix
