#include "policy/classic_policy.h"

#include <algorithm>

namespace matrix {

namespace {

/// Reclaim requires parent + child combined load to fit within this
/// fraction of the overload threshold (prevents reclaim→overload→split
/// oscillation).
constexpr double kReclaimHeadroomFraction = 0.8;

}  // namespace

bool ClassicPolicy::below_min_extent(const Rect& range) const {
  return std::max(range.width(), range.height()) / 2.0 <
         config_.min_partition_extent;
}

SplitDecision ClassicPolicy::decide_split(const LoadView& view) const {
  if (!config_.allow_split) return {};
  // Sustained overload only: consecutive_overload resets to 0 on every calm
  // report, so requiring at least one report keeps a sustain knob of 0
  // equivalent to 1 (the historical "split on the first overloaded report").
  if (view.consecutive_overload == 0 ||
      view.consecutive_overload < config_.sustain_reports_to_split) {
    return {};
  }
  if (below_min_extent(view.range)) return {};
  return {.split = true, .proactive = false};
}

std::pair<Rect, Rect> ClassicPolicy::load_aware_cut(const LoadView& view) const {
  // Cut at the reported median client coordinate along the longer axis so
  // each side inherits roughly half the load.
  const Rect& range = view.range;
  const bool wide = range.width() >= range.height();
  const double lo = wide ? range.x0() : range.y0();
  const double extent = wide ? range.width() : range.height();
  const double median =
      wide ? view.median_position.x : view.median_position.y;
  return range.split_at((median - lo) / extent);
}

std::pair<Rect, Rect> ClassicPolicy::split_ranges(const LoadView& view) const {
  if (config_.split_policy == SplitPolicy::kLoadAware &&
      view.load.client_count > 0) {
    return load_aware_cut(view);
  }
  // Paper default: halve the partition, hand off the left piece.
  return view.range.split_half();
}

ReclaimDecision ClassicPolicy::decide_reclaim(const LoadView& view,
                                              const ChildView& child) const {
  if (!config_.allow_reclaim) return {};
  if (!config_.underloaded(view.load.client_count)) return {};
  // Admission gate: reclaiming hands this server the child's entire
  // population.  Under SOFT/HARD — local valve or the coordinator's
  // directive floor — the valve is closed to *new* load; do not voluntarily
  // accept a bulk handoff either.
  if (config_.admission.enabled && view.effective_valve != kValveNormal) {
    return {};
  }
  if (!child.load_known) return {};
  if (child.child_count != 0) return {};  // its subtree must collapse first
  if (!config_.underloaded(child.client_count)) return {};
  const double combined = static_cast<double>(view.load.client_count) +
                          static_cast<double>(child.client_count);
  if (combined > kReclaimHeadroomFraction *
                     static_cast<double>(config_.overload_clients)) {
    return {};
  }
  return {.reclaim = true};
}

double ClassicPolicy::pool_need(const LoadView&) const {
  return 0.0;  // FCFS: no bias, the pool answers in arrival order
}

SimTime ClassicPolicy::grant_hold(const PoolRequest&) const {
  return SimTime{};  // immediate grant/deny, the historical pool behavior
}

PoolGrantDecision ClassicPolicy::arbitrate(
    const std::vector<PoolRequest>& requests) const {
  PoolGrantDecision decision;
  decision.order.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) decision.order[i] = i;
  std::sort(decision.order.begin(), decision.order.end(),
            [&](std::size_t a, std::size_t b) {
              return requests[a].arrival < requests[b].arrival;
            });
  return decision;
}

}  // namespace matrix
