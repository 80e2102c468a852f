#include "control/admission.h"

#include <algorithm>
#include <cmath>

namespace matrix {

const char* admission_state_name(AdmissionState state) {
  switch (state) {
    case AdmissionState::kNormal: return "NORMAL";
    case AdmissionState::kSoft: return "SOFT";
    case AdmissionState::kHard: return "HARD";
  }
  return "?";
}

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         std::uint32_t overload_clients,
                                         bool skip_recover_min)
    : config_(config),
      overload_clients_(overload_clients),
      valve_(config.dwell, config.recover_min, skip_recover_min) {}

AdmissionState AdmissionController::target_for(const LoadView& view) const {
  // Round to nearest so 0.29 × 100 = 28.999... still means 29 ("reach this
  // fraction"), not a silent truncation to 28.
  const auto load_at = [this](double fraction) {
    return static_cast<std::uint32_t>(std::llround(
        fraction * static_cast<double>(overload_clients_)));
  };

  if (view.load.client_count >= load_at(config_.hard_load_fraction) ||
      view.load.queue_length >= config_.hard_queue_length ||
      (config_.hard_denied_streak > 0 &&
       view.split_denied_streak >= config_.hard_denied_streak) ||
      (config_.hard_waiting_count > 0 &&
       view.load.waiting_count >= config_.hard_waiting_count)) {
    return AdmissionState::kHard;
  }

  const bool pool_pressure =
      view.pool_idle_fraction >= 0.0 &&
      view.pool_idle_fraction <= config_.soft_pool_idle_fraction &&
      view.load.client_count >= load_at(config_.pool_pressure_load_fraction);
  if (view.load.client_count >= load_at(config_.soft_load_fraction) ||
      view.load.queue_length >= config_.soft_queue_length ||
      (config_.soft_denied_streak > 0 &&
       view.split_denied_streak >= config_.soft_denied_streak) ||
      (config_.soft_waiting_count > 0 &&
       view.load.waiting_count >= config_.soft_waiting_count) ||
      pool_pressure) {
    return AdmissionState::kSoft;
  }

  return AdmissionState::kNormal;
}

bool AdmissionController::observe(SimTime now, const LoadView& view) {
  if (!config_.enabled) return false;
  return valve_.step(now, target_for(view));
}

void AdmissionHysteresis::transition(SimTime now, AdmissionState to) {
  transitions_.push_back({now, state_, to});
  if (to > state_) {
    ++escalations_;
  } else {
    ++relaxations_;
  }
  state_ = to;
  last_transition_ = now;
  ever_transitioned_ = true;
  calm_ = false;  // any change re-arms the stability window
}

bool AdmissionHysteresis::step(SimTime now, AdmissionState target) {
  if (target > state_) {
    // Escalation is immediate: a saturated server (or deployment) must
    // close the valve now, regardless of dwell — oscillation is prevented
    // on the way down.
    transition(now, target);
    return true;
  }

  if (target == state_) {
    // The signals still justify the current state: not calm.
    calm_ = false;
    return false;
  }

  // target < state_: candidate relaxation.  Track the continuous window in
  // which the signals sit below the current state's severity...
  if (!calm_) {
    calm_ = true;
    calm_since_ = now;
  }
  // ...and only step down (one level at a time) once that window reaches
  // recover_min and the dwell time since the last change has passed.
  const bool dwell_ok = !ever_transitioned_ || now - last_transition_ >= dwell_;
  const bool recovered =
      skip_recover_min_ || now - calm_since_ >= recover_min_;
  if (dwell_ok && recovered) {
    transition(now, static_cast<AdmissionState>(
                        static_cast<std::uint8_t>(state_) - 1));
    return true;
  }
  return false;
}

bool AdmissionHysteresis::lifetime_valid() const {
  return lifetime_valid_ &&
         admission_timeline_valid(transitions_, dwell_, recover_min_);
}

void AdmissionHysteresis::reset(SimTime now) {
  lifetime_valid_ = lifetime_valid();
  state_ = AdmissionState::kNormal;
  last_transition_ = now;
  calm_ = false;
  ever_transitioned_ = false;
  transitions_.clear();
}

bool admission_timeline_valid(const std::vector<AdmissionTransition>& timeline,
                              SimTime dwell, SimTime recover_min) {
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const AdmissionTransition& t = timeline[i];
    if (t.to == t.from) return false;  // self-transitions are forbidden
    if (i > 0 && timeline[i - 1].to != t.from) return false;  // broken chain
    if (i > 0 && t.at < timeline[i - 1].at) return false;     // time warp
    if (t.to < t.from) {
      // Relaxation: one level at a time, after dwell AND recover_min since
      // the previous transition (the stability window cannot predate it).
      if (static_cast<std::uint8_t>(t.from) -
              static_cast<std::uint8_t>(t.to) != 1) {
        return false;
      }
      if (i > 0) {
        const SimTime gap = t.at - timeline[i - 1].at;
        if (gap < dwell || gap < recover_min) return false;
      }
    }
  }
  return true;
}

}  // namespace matrix
