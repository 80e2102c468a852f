#include "control/global_admission.h"

#include <algorithm>

namespace matrix {

GlobalAdmission::GlobalAdmission(const GlobalAdmissionConfig& config,
                                 std::uint32_t overload_clients)
    : config_(config),
      overload_clients_(overload_clients),
      floor_(config.dwell, config.recover_min) {}

bool GlobalAdmission::observe_server(SimTime now, ServerId server,
                                     const ServerDigest& digest) {
  if (!config_.enabled) return false;
  auto it = std::find_if(digests_.begin(), digests_.end(),
                         [&](const Tracked& t) { return t.server == server; });
  if (it == digests_.end()) {
    digests_.push_back({server, digest});
  } else {
    it->digest = digest;
  }
  return evaluate(now);
}

bool GlobalAdmission::observe_pool(SimTime now, std::uint32_t idle,
                                   std::uint32_t total) {
  if (!config_.enabled) return false;
  pool_idle_ = idle;
  pool_total_ = total;
  return evaluate(now);
}

bool GlobalAdmission::forget_server(SimTime now, ServerId server) {
  const auto it = std::remove_if(
      digests_.begin(), digests_.end(),
      [&](const Tracked& t) { return t.server == server; });
  if (it == digests_.end()) return false;
  digests_.erase(it, digests_.end());
  return config_.enabled && evaluate(now);
}

std::uint32_t GlobalAdmission::waiting_total() const {
  std::uint32_t total = 0;
  for (const Tracked& t : digests_) total += t.digest.load.waiting_count;
  return total;
}

PressureBreakdown GlobalAdmission::compute_pressure() const {
  if (digests_.empty()) return {};
  const auto n = static_cast<double>(digests_.size());
  const auto overload = static_cast<double>(std::max(1u, overload_clients_));

  PressureBreakdown breakdown;
  // Pool: 1.0 when the spare pool is dry (a split can no longer save a
  // saturated partition), 0 when fully idle or never heard from.
  breakdown.pool_term =
      pool_total_ > 0 ? 1.0 - static_cast<double>(pool_idle_) /
                                  static_cast<double>(pool_total_)
                      : 0.0;

  // Mean load fraction vs the overload threshold, saturating at 1.
  double load_sum = 0.0;
  double elevated_sum = 0.0;
  double waiting_sum = 0.0;
  for (const Tracked& t : digests_) {
    load_sum += std::min(
        1.0, static_cast<double>(t.digest.load.client_count) / overload);
    switch (t.digest.state) {
      case AdmissionState::kNormal: break;
      case AdmissionState::kSoft: elevated_sum += 0.5; break;
      case AdmissionState::kHard: elevated_sum += 1.0; break;
    }
    waiting_sum += static_cast<double>(t.digest.load.waiting_count);
  }
  breakdown.load_term = load_sum / n;
  breakdown.elevated_term = elevated_sum / n;
  // Waiting rooms holding half an overload-threshold's worth of joins per
  // server saturate this term.
  breakdown.waiting_term = std::min(1.0, waiting_sum / (n * overload * 0.5));
  return breakdown;
}

AdmissionState GlobalAdmission::target() const {
  const double pressure = breakdown_.total();
  if (pressure >= config_.hard_pressure) return AdmissionState::kHard;
  if (pressure >= config_.soft_pressure) return AdmissionState::kSoft;
  return AdmissionState::kNormal;
}

bool GlobalAdmission::evaluate(SimTime now) {
  breakdown_ = compute_pressure();
  return floor_.step(now, target());
}

double GlobalAdmission::share_for(ServerId server) const {
  // Weight each server by 1 + waiting-room depth: a starved partition's
  // deep line earns it proportionally more of the deployment-wide budget.
  // Every server is paid its token_rate_floor FIRST and only the remainder
  // is divided by weight, so the granted shares sum to exactly
  // token_rate_total (clamping up after a plain division would overspend
  // the budget by up to N×floor).
  double weight_sum = 0.0;
  double weight = 0.0;
  for (const Tracked& t : digests_) {
    const double w = 1.0 + static_cast<double>(t.digest.load.waiting_count);
    weight_sum += w;
    if (t.server == server) weight = w;
  }
  if (weight_sum <= 0.0 || weight <= 0.0) return config_.token_rate_floor;
  const double distributable = std::max(
      0.0, config_.token_rate_total -
               config_.token_rate_floor * static_cast<double>(digests_.size()));
  return config_.token_rate_floor + distributable * weight / weight_sum;
}

bool GlobalAdmission::broadcast_due(SimTime now) const {
  if (!active()) return false;
  if (!ever_broadcast_) return true;
  return now - last_broadcast_ >= config_.directive_interval;
}

}  // namespace matrix
