// Surviving a dead coordinator: the control-plane failsafe
// (src/control/control_plane.h) under a 60-second MC outage mid flash
// crowd, failsafe on vs off.
//
// The Matrix coordinator is a single point of CONTROL, not of data — the
// paper's login path reads the partition map, game traffic never touches
// the MC.  But with coordinator-led global admission (ISSUE 3) the MC's
// AdmissionDirectives steer every valve: floors and token-budget shares
// arrive once a second, and each server obeys the latest one it saw.  Kill
// the MC mid-surge and that last directive becomes a ghost: a clamped
// floor and a scarce token share, frozen at crest-time values, steering
// the deployment forever while the crowd it was sized for churns away.
//
// The failsafe gives every server a heartbeat-driven escape hatch:
//
//   NORMAL    fresh MC: obey directives.
//   HOLD      tau1 of silence: freeze the directive view, stop deriving
//             new pool decisions from coordinator state.
//   FALLBACK  tau2 of silence: drop the frozen directive — the local valve
//             and local token rate take back over.
//
// The bench drives one flash crowd (~1.7x capacity) into a small
// deployment, kills the MC at 20s with the directive floor clamped, lets
// half of the crowd churn out THROUGH the 60s outage (so the freed slots
// are re-contested while nobody is steering), and revives a standby at
// 80s.  Identical load, identical seed; the only difference is
// Config::failsafe.enabled.
//
// Claims under test (ISSUE 8 acceptance criteria):
//   * goodput under the outage is materially higher with the failsafe on
//     (the stale share throttles the off-run's refill);
//   * admitted-client p99 stays bounded — local valves must not melt
//     service while they steer alone;
//   * every failsafe timeline is machine-valid (failsafe_timeline_valid),
//     servers reached FALLBACK and recovered to NORMAL after the revival;
//   * with the failsafe off, nothing transitions (the machine is inert);
//   * the machine runs once per co-located pair, on the matrix server: no
//     game server's plane ever holds an update or transitions, on or off —
//     the game obeys its matrix server's one AdmissionUpdate stream, the
//     FALLBACK rescind included.
//
// Each label also reports pending_lookup_peak_bytes: the most the matrix
// servers' parked MC point lookups held (core/matrix_server.h), a ceiling
// in bench/baselines/mc_outage_baseline.json.  Lookups expire after
// tau1 (kFailsafeTau1) whether or not the failsafe is on, so the outage's
// 60 s must not grow it.
#include "bench_common.h"
#include "control/control_plane.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

constexpr std::size_t kRoots = 2;
constexpr std::size_t kPoolSize = 2;
constexpr std::uint32_t kOverload = 60;  // 4 slots x 60 = 240 capacity
constexpr std::size_t kBackground = 40;
constexpr std::size_t kFlash = 360;  // first crest: offered 400 vs cap 240
constexpr std::size_t kSecondFlash = 150;  // lands mid-outage
/// What a server spends when it steers itself — the rate FALLBACK restores.
constexpr double kLocalTokenRate = 5.0;
/// The MC's deployment-wide budget is deliberately scarcer than the local
/// aggregate (it is solving a fairness problem, not a throughput one), so
/// the share a server holds when the MC dies is a real throttle: under
/// live steering the MC re-points the budget wherever the line is, but a
/// dead MC's last share drains a re-contested deployment at ~1.5 joins/s
/// TOTAL for the rest of time.
constexpr double kGlobalTokenRate = 1.5;
constexpr SimTime kKillAt = 20_sec;
constexpr SimTime kReviveAt = 80_sec;  // 60s of outage
constexpr SimTime kDuration = 120_sec;
constexpr Vec2 kCenter{300.0, 300.0};

DeploymentOptions deployment_options(bool failsafe_on) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 600, 600);
  options.config.overload_clients = kOverload;
  options.config.underload_clients = kOverload / 2;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.config.pool_backoff_initial = 1_sec;
  options.config.pool_backoff_max = 8_sec;

  // Valve + waiting room + coordinator directives in BOTH runs — the
  // directive is what goes stale when the MC dies.
  options.config.admission.enabled = true;
  options.config.admission.soft_denied_streak = 1;
  options.config.admission.hard_denied_streak = 3;
  options.config.admission.soft_waiting_count = 25;
  options.config.admission.soft_load_fraction = 0.75;
  options.config.admission.hard_load_fraction = 0.95;
  options.config.admission.token_rate_per_sec = kLocalTokenRate;
  options.config.admission.token_burst = 10.0;
  options.config.admission.dwell = 1_sec;
  options.config.admission.recover_min = 4_sec;
  options.config.admission.defer_retry = 2_sec;
  options.config.admission.priority.queue_enabled = true;
  options.config.admission.priority.queue_capacity = 1024;
  options.config.admission.priority.age_step = 20_sec;
  options.config.admission.priority.update_interval = 500_ms;
  options.config.admission.global.enabled = true;
  options.config.admission.global.token_rate_total = kGlobalTokenRate;
  options.config.admission.global.token_rate_floor = 0.25;
  options.config.admission.global.dwell = 1_sec;
  options.config.admission.global.recover_min = 4_sec;
  options.config.admission.global.directive_interval = 1_sec;

  // The knob under test.  Fixed timing: 1s beats, tau1 3s, tau2 8s — a dead
  // MC is survived in under ten seconds.
  options.config.failsafe.enabled = failsafe_on;

  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = kRoots;
  options.pool_size = kPoolSize;
  options.map_objects = 60;
  options.seed = 2005;
  return options;
}

void schedule_load(Deployment& deployment) {
  ScenarioSpec()
      .background(100_ms, kBackground)
      .ramp(5_sec, kFlash, /*batch=*/60, /*interval=*/1_sec, kCenter,
            /*spread=*/120.0)
      // Half the crowd churns out through the outage: the freed slots are
      // re-contested while the directive steering them is a ghost.
      .departures(30_sec, kFlash / 2, /*batch=*/20, /*interval=*/3_sec,
                  kCenter)
      // A second wave lands mid-outage — the refill demand peaks while the
      // only steering signal is the dead MC's last share.
      .ramp(45_sec, kSecondFlash, /*batch=*/50, /*interval=*/1_sec, kCenter,
            /*spread=*/120.0)
      .kill_mc(kKillAt)
      .revive_mc(kReviveAt)
      .run_for(kDuration)
      .schedule(deployment);
}

struct RunResult {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  double goodput = 0.0;  ///< acks delivered / acks a full run would earn
  double p99_ms = 0.0;
  double mean_censored_tta_ms = 0.0;  ///< admitted: tta; never admitted: wait
  std::uint64_t failsafe_transitions = 0;
  std::uint64_t fallback_entries = 0;
  std::uint64_t held_drops = 0;
  bool timelines_valid = true;
  bool all_normal_at_end = true;
  /// Game-server planes (seq gates only): both must stay 0.
  std::uint64_t game_transitions = 0;
  std::uint64_t game_held_drops = 0;
  AdmissionSummary admission;
  std::uint64_t lookups_expired = 0;
  std::uint64_t late_lookup_replies = 0;
  std::size_t pending_lookup_peak_bytes = 0;
};

RunResult run_one(bool failsafe_on, const char* label, JsonReport& report) {
  Deployment deployment(deployment_options(failsafe_on));
  schedule_load(deployment);
  deployment.run_until(kDuration);

  const double expected_per_client =
      kDuration.sec() / deployment.options().spec.action_interval.sec();

  RunResult result;
  Histogram self_ms;
  std::uint64_t acks_total = 0;
  double censored_sum = 0.0;
  for (const BotClient* bot : deployment.bots()) {
    ++result.offered;
    acks_total += bot->metrics().self_latency_ms.count();
    if (!bot->ever_connected()) {
      censored_sum += (kDuration - bot->first_join_at()).ms();
      continue;
    }
    ++result.admitted;
    censored_sum += bot->metrics().time_to_admit_ms;
    self_ms.merge(bot->metrics().self_latency_ms);
  }
  result.goodput = static_cast<double>(acks_total) /
                   (static_cast<double>(result.offered) * expected_per_client);
  result.p99_ms = self_ms.percentile(99.0);
  result.mean_censored_tta_ms =
      result.offered > 0 ? censored_sum / static_cast<double>(result.offered)
                         : 0.0;
  result.admission = collect_admission(deployment);

  for (const MatrixServer* server : deployment.matrix_servers()) {
    const ControlPlane& plane = server->control_plane();
    result.failsafe_transitions += plane.transitions().size();
    for (const FailsafeTransition& t : plane.transitions()) {
      if (t.to == FailsafeState::kFallback) ++result.fallback_entries;
    }
    result.held_drops += plane.stats().held_drops;
    if (!failsafe_timeline_valid(plane.transitions())) {
      result.timelines_valid = false;
    }
    if (plane.state() != FailsafeState::kNormal) {
      result.all_normal_at_end = false;
    }
    result.lookups_expired += server->stats().lookups_expired;
    result.late_lookup_replies += server->stats().late_lookup_replies;
    result.pending_lookup_peak_bytes += server->parked_lookup_peak_bytes();
  }
  for (const GameServer* game : deployment.game_servers()) {
    result.game_transitions += game->control_plane().transitions().size();
    result.game_held_drops += game->control_plane().stats().held_drops;
  }

  std::printf(
      "  %-4s offered=%4zu admitted=%4zu goodput=%5.1f%% p99=%7.1fms "
      "censored-tta=%7.0fms\n",
      label, result.offered, result.admitted, result.goodput * 100.0,
      result.p99_ms, result.mean_censored_tta_ms);
  std::printf(
      "       transitions=%llu fallback-entries=%llu held-drops=%llu "
      "directives: sent=%llu applied=%llu queue: parked=%llu drained=%llu\n",
      static_cast<unsigned long long>(result.failsafe_transitions),
      static_cast<unsigned long long>(result.fallback_entries),
      static_cast<unsigned long long>(result.held_drops),
      static_cast<unsigned long long>(result.admission.directives_broadcast),
      static_cast<unsigned long long>(result.admission.directives_applied),
      static_cast<unsigned long long>(result.admission.joins_queued),
      static_cast<unsigned long long>(result.admission.queue_admitted));
  std::printf(
      "       lookups: expired=%llu late-replies=%llu peak-parked=%zu B\n",
      static_cast<unsigned long long>(result.lookups_expired),
      static_cast<unsigned long long>(result.late_lookup_replies),
      result.pending_lookup_peak_bytes);
  std::printf("       game planes: transitions=%llu held-drops=%llu\n",
              static_cast<unsigned long long>(result.game_transitions),
              static_cast<unsigned long long>(result.game_held_drops));

  report.add(label, "goodput", result.goodput, "fraction");
  report.add(label, "p99", result.p99_ms, "ms");
  report.add(label, "admitted", static_cast<double>(result.admitted),
             "clients");
  report.add(label, "censored_tta", result.mean_censored_tta_ms, "ms");
  report.add(label, "failsafe_transitions",
             static_cast<double>(result.failsafe_transitions), "");
  report.add(label, "fallback_entries",
             static_cast<double>(result.fallback_entries), "");
  report.add(label, "pending_lookup_peak_bytes",
             static_cast<double>(result.pending_lookup_peak_bytes), "bytes");
  add_registry(report, label, deployment);
  return result;
}

void verdict(const char* what, bool pass) {
  std::printf("  %-56s: %s\n", what, pass ? "PASS" : "FAIL");
}

int run(const char* json_path) {
  header("McOutage",
         "60s coordinator outage under a flash crowd — control-plane "
         "failsafe on vs off");
  std::printf(
      "  capacity = %zu slots x %u clients = %zu; offered = %zu + %zu + %zu "
      "background\n  MC killed at %.0fs mid-clamp, standby revived at %.0fs; "
      "half the first crowd churns\n  out through the outage and a second "
      "wave of %zu lands mid-outage\n\n",
      kRoots + kPoolSize, kOverload, (kRoots + kPoolSize) * kOverload, kFlash,
      kSecondFlash, kBackground, kKillAt.sec(), kReviveAt.sec(),
      kSecondFlash);

  JsonReport report("mc_outage");
  const RunResult off = run_one(false, "off", report);
  const RunResult on = run_one(true, "on", report);

  std::printf("\n[criteria]\n");
  const bool goodput_ok = on.goodput >= 1.1 * off.goodput;
  const bool admitted_ok = on.admitted > off.admitted;
  const bool p99_ok = on.p99_ms <= std::max(2.0 * off.p99_ms, 150.0);
  const bool on_machine_ok = on.timelines_valid && on.fallback_entries >= 2 &&
                             on.all_normal_at_end;
  const bool off_inert_ok = off.failsafe_transitions == 0;
  const bool games_obey_ok = on.game_transitions == 0 &&
                             on.game_held_drops == 0 &&
                             off.game_transitions == 0 &&
                             off.game_held_drops == 0;
  verdict("goodput through the outage: on >= 1.1x off", goodput_ok);
  verdict("admitted clients: on > off", admitted_ok);
  verdict("admitted p99 bounded (<= max(2x off, 150ms))", p99_ok);
  verdict("failsafe timelines valid, FALLBACK reached, all recovered",
          on_machine_ok);
  verdict("failsafe off: machine inert (zero transitions)", off_inert_ok);
  verdict("game planes never hold an update or transition", games_obey_ok);
  std::printf("  goodput       : %5.1f%% -> %5.1f%%\n", off.goodput * 100.0,
              on.goodput * 100.0);
  std::printf("  admitted      : %zu -> %zu (of %zu)\n", off.admitted,
              on.admitted, on.offered);
  std::printf("  censored tta  : %6.0f ms -> %6.0f ms\n",
              off.mean_censored_tta_ms, on.mean_censored_tta_ms);

  report.write(json_path);

  return goodput_ok && admitted_ok && p99_ok && on_machine_ok &&
                 off_inert_ok && games_obey_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  return matrix::bench::run(matrix::bench::json_report_path(argc, argv));
}
