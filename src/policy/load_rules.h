// Load rules — the decisions that move load around a Matrix deployment
// (paper §3.2.3): WHEN a partition splits, WHERE the cut lands, WHEN a child
// is reclaimed, and WHO wins a spare server when the pool is contested.
//
// Plain functions over one LoadView (policy/load_view.h).  The mechanism
// that carries a decision out — message handshakes, state transfer,
// cooldowns, pending flags, the denial-episode backoff — stays in core/.
//
// Config::policy.kind selects the rule set:
//
//   * kClassic — split on sustained overload above the min-partition-extent
//     floor, cut per Config::split_policy (halve, or the reported median),
//     reclaim under underload + headroom + a composed-NORMAL valve, FCFS
//     pool grants (need 0, never held).
//
//   * kDirective — kClassic plus two extensions that act only while a
//     coordinator AdmissionDirective is in force, the directive being the
//     deployment-wide "we are past capacity" signal:
//       - NEED-WEIGHTED POOL GRANTS.  PoolAcquire carries a need hint scored
//         from load fraction plus waiting-room depth; the pool holds
//         need-tagged requests for policy.grant_window and grants the
//         contested spare to the highest need.
//       - PROACTIVE LOAD-AWARE SPLITS.  Once reported clients reach
//         policy.proactive_load_fraction × overload_clients, the waiting
//         room holds enough parked joins and the pool has known idle
//         spares, the partition splits at once — before its valve reaches
//         HARD — and every directive-era cut is the median.
//
// A degraded control plane (control/control_plane.h) narrows both sets:
// under HOLD or FALLBACK no proactive split and a need hint of 0 (the pool
// answers at once); under FALLBACK no split at all — a split's child must
// register with the presumed-dead MC — and only an empty leaf child is
// reclaimed, since a populated merge mid-outage would concentrate load with
// no MC to re-split it afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.h"
#include "policy/load_view.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace matrix {

/// Split now, or defer?  The Matrix server turns a positive decision into a
/// PoolAcquire.
struct SplitDecision {
  bool split = false;
  /// True when the split fired below the ordinary overload threshold on the
  /// strength of an active coordinator directive (kDirective only).
  bool proactive = false;
};

/// One pool request awaiting arbitration (resource-pool side).
struct PoolRequest {
  ServerId requester;
  NodeId reply_to;
  /// The requester's need hint as carried by PoolAcquire; 0 means "no bias"
  /// and is never held.
  double need = 0.0;
  /// Arrival order within the window (FCFS tie-break).
  std::uint64_t arrival = 0;
};

// ---- Matrix-server side -----------------------------------------------------

/// Should this server split now?  Consulted on every LoadReport once the
/// mechanical gates (active, nothing pending, cooldown elapsed) pass.
[[nodiscard]] SplitDecision decide_split(const Config& config,
                                         const LoadView& view);

/// Where the cut lands: {give_away, keep}, the first piece handed to the
/// newly granted child (the paper's split-to-left contract).
[[nodiscard]] std::pair<Rect, Rect> split_ranges(const Config& config,
                                                 const LoadView& view);

/// Should this server reclaim its most recent child?
[[nodiscard]] bool decide_reclaim(const Config& config, const LoadView& view,
                                  const ChildView& child);

/// The need hint stamped onto PoolAcquire.  0 ⇒ FCFS handling at the pool;
/// > 0 ⇒ the request may be held and arbitrated against competitors.
[[nodiscard]] double pool_need(const Config& config, const LoadView& view);

// ---- resource-pool side -----------------------------------------------------

/// How long the pool holds `request` before arbitrating; 0 ⇒ grant/deny
/// immediately.
[[nodiscard]] SimTime grant_hold(const Config& config,
                                 const PoolRequest& request);

/// The held requests' grant order, as indices into `requests`, best first:
/// highest need, ties by arrival.  kClassic ranks every need as 0, so the
/// order is arrival order (FCFS).
[[nodiscard]] std::vector<std::size_t> arbitrate(
    const Config& config, const std::vector<PoolRequest>& requests);

}  // namespace matrix
