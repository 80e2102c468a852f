#include "policy/load_rules.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace matrix {

LoadPolicyKind default_load_policy_kind() {
  static const LoadPolicyKind kind = [] {
    const char* env = std::getenv("MATRIX_LOAD_POLICY");
    if (env != nullptr && std::string_view(env) == "directive") {
      return LoadPolicyKind::kDirective;
    }
    return LoadPolicyKind::kClassic;
  }();
  return kind;
}

const char* load_policy_kind_name(LoadPolicyKind kind) {
  switch (kind) {
    case LoadPolicyKind::kClassic: return "classic";
    case LoadPolicyKind::kDirective: return "directive";
  }
  return "?";
}

namespace {

/// Reclaim requires parent + child combined load to fit within this
/// fraction of the overload threshold (prevents reclaim→overload→split
/// oscillation).
constexpr double kReclaimHeadroomFraction = 0.8;

/// Weight of the waiting-room depth in the need score, relative to the
/// load fraction (the MC's pressure score weights starvation the same way:
/// the deepest line is the most starved partition).
constexpr double kNeedWaitingWeight = 2.0;

/// A proactive split also requires this many parked joins: an empty
/// waiting room means the valve is coping and the split can wait for the
/// ordinary thresholds.
constexpr std::uint32_t kProactiveMinWaiting = 8;

bool directive(const Config& config) {
  return config.policy.kind == LoadPolicyKind::kDirective;
}

/// True when halving the range would drop below min_partition_extent (a
/// point hotspot would recurse forever otherwise).
bool below_min_extent(const Config& config, const Rect& range) {
  return std::max(range.width(), range.height()) / 2.0 <
         config.min_partition_extent;
}

/// The proactive trigger (kDirective): only under an active directive on a
/// NORMAL control plane, only with real starvation evidence (a populated
/// waiting room), and never below the minimum extent.  The ordinary
/// cooldown and pending-topology gates stay with the caller, so a directive
/// cannot stampede a server into back-to-back splits.
bool proactive_split(const Config& config, const LoadView& view) {
  if (!directive(config) || !view.directive_active) return false;
  // Under a degraded control plane the directive is a frozen snapshot of a
  // coordinator we may never hear from again — don't volunteer for splits
  // on its say-so (reactive splits remain available).
  if (view.failsafe != FailsafeState::kNormal) return false;
  // A proactive ask against a dry (or unknown) pool cannot be granted, but
  // the PoolDeny it provokes still feeds the denial-streak admission signal
  // and can slam the valve to HARD — freezing the very waiting room the
  // split was meant to drain.  Only volunteer when spares are known idle.
  if (view.pool_idle_fraction <= 0.0) return false;
  const auto threshold = static_cast<std::uint32_t>(
      std::llround(config.policy.proactive_load_fraction *
                   static_cast<double>(config.overload_clients)));
  return view.load.client_count >= threshold &&
         view.load.waiting_count >= kProactiveMinWaiting &&
         !below_min_extent(config, view.range);
}

}  // namespace

SplitDecision decide_split(const Config& config, const LoadView& view) {
  if (!config.allow_split) return {};
  if (view.failsafe == FailsafeState::kFallback) return {};
  // Sustained overload: consecutive_overload resets to 0 on every calm
  // report, so requiring at least one report keeps a sustain knob of 0
  // equivalent to 1 (the historical "split on the first overloaded report").
  if (view.consecutive_overload > 0 &&
      view.consecutive_overload >= config.sustain_reports_to_split &&
      !below_min_extent(config, view.range)) {
    return {.split = true, .proactive = false};
  }
  if (proactive_split(config, view)) return {.split = true, .proactive = true};
  return {};
}

std::pair<Rect, Rect> split_ranges(const Config& config,
                                   const LoadView& view) {
  // Under a directive every split is about shedding a hotspot, so the cut
  // is load-aware whatever split_policy says.
  const bool load_aware = config.split_policy == SplitPolicy::kLoadAware ||
                          (directive(config) && view.directive_active);
  if (!load_aware || view.load.client_count == 0) {
    // Paper default: halve the partition, hand off the left piece.
    return view.range.split_half();
  }
  // Cut at the reported median client coordinate along the longer axis so
  // each side inherits roughly half the load.  Rect::split_at clamps the
  // fraction, so a degenerate median (all clients at one point, or a stale
  // median outside the range) still yields two non-degenerate pieces.
  const Rect& range = view.range;
  const bool wide = range.width() >= range.height();
  const double lo = wide ? range.x0() : range.y0();
  const double extent = wide ? range.width() : range.height();
  const double median =
      wide ? view.median_position.x : view.median_position.y;
  return range.split_at((median - lo) / extent);
}

bool decide_reclaim(const Config& config, const LoadView& view,
                    const ChildView& child) {
  if (!config.allow_reclaim) return false;
  if (!config.underloaded(view.load.client_count)) return false;
  // Admission gate: reclaiming hands this server the child's entire
  // population.  Under SOFT/HARD — local valve or the coordinator's
  // directive floor — the valve is closed to *new* load; do not voluntarily
  // accept a bulk handoff either.
  if (config.admission.enabled &&
      view.effective_valve != AdmissionState::kNormal) {
    return false;
  }
  if (!child.load_known) return false;
  if (child.child_count != 0) return false;  // its subtree must collapse first
  // FALLBACK merges back only a provably EMPTY child.
  if (view.failsafe == FailsafeState::kFallback && child.client_count != 0) {
    return false;
  }
  if (!config.underloaded(child.client_count)) return false;
  const double combined = static_cast<double>(view.load.client_count) +
                          static_cast<double>(child.client_count);
  return combined <= kReclaimHeadroomFraction *
                         static_cast<double>(config.overload_clients);
}

double pool_need(const Config& config, const LoadView& view) {
  // No bias without a directive; and under a degraded failsafe the
  // directive (and the pool view) are stale — bid FCFS instead of leaning
  // on a dead coordinator's score.
  if (!directive(config) || !view.directive_active ||
      view.failsafe != FailsafeState::kNormal) {
    return 0.0;
  }
  const auto overload =
      static_cast<double>(std::max(1u, config.overload_clients));
  // The per-partition slice of the MC's pressure score: load fraction plus
  // depth-weighted starvation.  The +1 keeps every directive-era request
  // strictly positive so it enters arbitration even at zero load.
  return 1.0 + static_cast<double>(view.load.client_count) / overload +
         kNeedWaitingWeight * static_cast<double>(view.load.waiting_count) /
             overload;
}

SimTime grant_hold(const Config& config, const PoolRequest& request) {
  return directive(config) && request.need > 0.0 ? config.policy.grant_window
                                                 : SimTime{};
}

std::vector<std::size_t> arbitrate(const Config& config,
                                   const std::vector<PoolRequest>& requests) {
  const auto need = [&](std::size_t i) {
    return directive(config) ? requests[i].need : 0.0;
  };
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (need(a) != need(b)) return need(a) > need(b);
    return requests[a].arrival < requests[b].arrival;  // FCFS tie
  });
  return order;
}

}  // namespace matrix
