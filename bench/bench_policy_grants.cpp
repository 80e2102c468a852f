// Need-weighted pool grants + proactive splits (the directive load rules) vs
// FCFS (the classic rules) when more partitions overload than the pool holds
// spares.
//
// The load rules (policy/load_rules.h) make WHO WINS A CONTESTED POOL SERVER
// a decision of its own.  Under the classic rules the pool answers
// PoolAcquire in strict arrival order: when four partitions saturate over
// one spare, the grant goes to whichever server's retry timer happened to
// fire first — frequently a lightly-crowded partition whose split relieves
// little, while the deepest waiting room keeps starving.  The directive rules
// routes the same decision through the coordinator's vantage point: while
// an AdmissionDirective is active, PoolAcquire carries a need hint scored
// from the signals the MC's pressure score weights (load fraction +
// waiting-room depth), the pool holds requests for a short arbitration
// window, and the contested spare lands on the most starved partition.
// Proactive splits compound it: while spares are known idle, a
// directive-era partition splits below the overload threshold — before its
// valve ever reaches HARD — with a load-aware (median) cut, so the spare's
// head start is not wasted waiting out the full overload + sustain
// hysteresis.
//
// The bench drives a ContestedPoolScenario — four crowds of deliberately
// unequal size (70/90/130/240, lightest partition surging FIRST so FCFS
// provably hands it the spare) into a 4-root, 1-spare deployment at ~2.4×
// capacity, with half of each crowd churning out mid-run — and compares:
//
//   classic   : admission + waiting room + global directives, FCFS grants
//   directive : the same, plus need-weighted arbitration + proactive splits
//
// Both runs enable coordinator directives: the comparison isolates the
// POLICY (who gets the spare, when the split fires), not the directive
// machinery benchmarked in bench_global_admission.
//
// Claims under test (ISSUE 4 acceptance criteria):
//   * worst-partition censored time-to-admit improves under the directive
//     rules;
//   * cross-partition goodput spread (max−min over surge centers) shrinks;
//   * crowd-wide goodput is preserved and admitted-client p99 is unharmed;
//   * hysteresis timelines stay valid (servers + directive floor);
//   * the directive run actually arbitrated/proactively split; the classic
//     run never did (the policies are what they claim to be).
#include <cstdlib>

#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

constexpr std::size_t kRoots = 4;
constexpr std::size_t kPoolSize = 1;  // fewer spares than saturating crowds
constexpr std::uint32_t kOverload = 60;  // 5 slots × 60 = 300 capacity
constexpr double kLocalTokenRate = 1.0;
constexpr SimTime kDuration = 120_sec;

ContestedPoolScenarioOptions contested_scenario() {
  ContestedPoolScenarioOptions scenario;
  scenario.background_bots = 160;  // 40/partition: directives arm pre-surge
  // SMALL crowds first (both in surge order and in server/report order —
  // the lightest crowd lands on the grid's first partition): under FCFS
  // the lightest partition overloads and asks first, and ties in the
  // synchronized report cadence resolve in node order, so arrival order
  // hands the spare to the SMALLEST crowd; need-weighted arbitration must
  // overcome exactly this.
  scenario.flash_bots = {70, 90, 130, 240};
  scenario.centers = {
      {150.0, 150.0}, {850.0, 150.0}, {150.0, 850.0}, {850.0, 850.0}};
  scenario.join_batch = 0;  // each crowd lands in one wave
  scenario.flash_at = 5_sec;
  scenario.flash_stagger = 500_ms;
  scenario.spread = 80.0;
  scenario.vip_fraction = 0.10;
  scenario.leave_fraction = 0.5;
  scenario.leave_batch = 20;
  scenario.leave_at = 40_sec;
  scenario.leave_interval = 4_sec;
  scenario.duration = kDuration;
  return scenario;
}

DeploymentOptions deployment_options(LoadPolicyKind kind) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = kOverload;
  options.config.underload_clients = kOverload / 2;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.config.pool_backoff_initial = 1_sec;
  options.config.pool_backoff_max = 8_sec;

  // Identical admission + waiting room + directive machinery in BOTH runs
  // (same shape as bench_global_admission's "global" arm): the comparison
  // isolates the load policy.
  options.config.admission.enabled = true;
  options.config.admission.soft_denied_streak = 1;
  options.config.admission.hard_denied_streak = 3;
  options.config.admission.soft_waiting_count = 25;
  options.config.admission.soft_load_fraction = 0.75;
  options.config.admission.token_rate_per_sec = kLocalTokenRate;
  options.config.admission.token_burst = 2.0;
  options.config.admission.dwell = 1_sec;
  options.config.admission.recover_min = 4_sec;
  options.config.admission.defer_retry = 2_sec;
  options.config.admission.priority.queue_enabled = true;
  options.config.admission.priority.queue_capacity = 1024;
  options.config.admission.priority.age_step = 20_sec;
  options.config.admission.priority.update_interval = 500_ms;
  options.config.admission.global.enabled = true;
  // A hair-trigger directive floor: the 40-bots/partition background keeps
  // deployment pressure above it from the first digests, so the whole surge
  // plays out under an active directive in BOTH runs (classic simply
  // ignores the need machinery) — the comparison isolates the policy, not
  // the directive's activation timing.
  options.config.admission.global.soft_pressure = 0.15;
  options.config.admission.global.hard_pressure = 0.9;
  // A GENEROUS drain budget: the token machinery must not be the
  // bottleneck, or topology would be irrelevant — what this bench contests
  // is which partition gets the extra SERVER (≈ one overload threshold's
  // worth of session capacity), so admissions are capacity-bound and the
  // grant decision is what shows up in the per-center metrics.
  options.config.admission.global.token_rate_total = 40.0;
  options.config.admission.global.token_rate_floor = 1.0;
  options.config.admission.global.dwell = 1_sec;
  options.config.admission.global.recover_min = 4_sec;
  options.config.admission.global.directive_interval = 1_sec;

  // The knobs under test.  The grant window spans the surge stagger: the
  // staggered asks (lightest partition first) all land inside one
  // arbitration round, which is exactly the contest FCFS resolves by
  // arrival order instead.
  options.config.policy.kind = kind;
  options.config.policy.grant_window = 2500_ms;
  options.config.policy.proactive_load_fraction = 0.70;

  options.spec = quake_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(350);
  options.initial_servers = kRoots;
  options.pool_size = kPoolSize;
  options.map_objects = 120;
  options.seed = 2005;
  return options;
}

struct CenterStats {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::uint64_t acks = 0;
  double censored_ms_sum = 0.0;  ///< admitted: tta; never admitted: full wait

  [[nodiscard]] double goodput(double expected_per_client) const {
    return offered > 0 ? static_cast<double>(acks) /
                             (static_cast<double>(offered) * expected_per_client)
                       : 0.0;
  }
  [[nodiscard]] double mean_censored_ms() const {
    return offered > 0 ? censored_ms_sum / static_cast<double>(offered) : 0.0;
  }
};

struct RunResult {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  double p99_ms = 0.0;
  double goodput = 0.0;          ///< crowd-wide, all bots
  double goodput_spread = 0.0;   ///< max−min over surge centers
  double worst_censored_ms = 0.0;
  std::uint64_t proactive_splits = 0;
  std::uint64_t arbitrated = 0;
  std::uint64_t contested_rounds = 0;
  std::vector<CenterStats> centers;
  AdmissionSummary admission;
};

RunResult run_one(LoadPolicyKind kind, const char* label) {
  Deployment deployment(deployment_options(kind));
  const ContestedPoolScenarioOptions scenario = contested_scenario();
  schedule_contested_pool_scenario(deployment, scenario);
  deployment.run_until(scenario.duration);

  const double expected_per_client =
      kDuration.sec() / deployment.options().spec.action_interval.sec();

  RunResult result;
  result.centers.resize(scenario.centers.size());
  Histogram self_ms;
  std::uint64_t acks_total = 0;
  for (const BotClient* bot : deployment.bots()) {
    ++result.offered;
    CenterStats* center = nullptr;
    if (bot->attraction()) {
      for (std::size_t c = 0; c < scenario.centers.size(); ++c) {
        if (*bot->attraction() == scenario.centers[c]) {
          center = &result.centers[c];
          break;
        }
      }
    }
    if (center != nullptr) ++center->offered;
    const std::uint64_t acks = bot->metrics().self_latency_ms.count();
    acks_total += acks;
    if (!bot->ever_connected()) {
      const double censored = (kDuration - bot->first_join_at()).ms();
      if (center != nullptr) center->censored_ms_sum += censored;
      continue;
    }
    ++result.admitted;
    self_ms.merge(bot->metrics().self_latency_ms);
    if (center != nullptr) {
      ++center->admitted;
      center->acks += acks;
      center->censored_ms_sum += bot->metrics().time_to_admit_ms;
    }
  }
  result.p99_ms = self_ms.percentile(99.0);
  result.goodput = static_cast<double>(acks_total) /
                   (static_cast<double>(result.offered) * expected_per_client);

  double best = 0.0, worst = 1.0;
  for (const CenterStats& center : result.centers) {
    const double goodput = center.goodput(expected_per_client);
    best = std::max(best, goodput);
    worst = std::min(worst, goodput);
    result.worst_censored_ms =
        std::max(result.worst_censored_ms, center.mean_censored_ms());
  }
  result.goodput_spread = best - worst;
  result.admission = collect_admission(deployment);
  for (const MatrixServer* server : deployment.matrix_servers()) {
    result.proactive_splits += server->stats().proactive_splits;
  }
  result.arbitrated = deployment.pool().arbitrated_requests();
  result.contested_rounds = deployment.pool().contested_rounds();

  std::printf(
      "  %-9s offered=%4zu admitted=%4zu p99=%7.1fms goodput=%5.1f%% "
      "spread=%5.1f%%\n",
      label, result.offered, result.admitted, result.p99_ms,
      result.goodput * 100.0, result.goodput_spread * 100.0);
  for (std::size_t c = 0; c < result.centers.size(); ++c) {
    const CenterStats& center = result.centers[c];
    std::printf(
        "            center%zu offered=%4zu admitted=%4zu goodput=%5.1f%% "
        "censored-tta=%7.0fms\n",
        c + 1, center.offered, center.admitted,
        center.goodput(expected_per_client) * 100.0,
        center.mean_censored_ms());
  }
  if (std::getenv("POLICY_BENCH_DEBUG") != nullptr) {
    for (std::size_t i = 0; i < deployment.matrix_servers().size(); ++i) {
      const MatrixServer* ms = deployment.matrix_servers()[i];
      const GameServer* gs = deployment.game_servers()[i];
      std::printf(
          "      S%zu active=%d range=[%.0f,%.0f..%.0f,%.0f] clients=%zu "
          "splits=%llu/%llu denied=%llu reclaims=%llu queued=%llu "
          "qadmit=%llu waiting=%zu\n",
          i + 1, ms->active() ? 1 : 0, ms->range().x0(), ms->range().y0(),
          ms->range().x1(), ms->range().y1(), gs->client_count(),
          static_cast<unsigned long long>(ms->stats().splits_completed),
          static_cast<unsigned long long>(ms->stats().splits_initiated),
          static_cast<unsigned long long>(ms->stats().split_denied_no_server),
          static_cast<unsigned long long>(ms->stats().reclaims_completed),
          static_cast<unsigned long long>(gs->surge_queue().stats().enqueued),
          static_cast<unsigned long long>(gs->surge_queue().stats().admitted),
          gs->surge_queue().size());
    }
    std::printf("      pool grants=%llu releases=%llu denies=%llu\n",
                static_cast<unsigned long long>(deployment.pool().grants()),
                static_cast<unsigned long long>(deployment.pool().releases()),
                static_cast<unsigned long long>(deployment.pool().denies()));
  }
  std::printf(
      "            arbitrated=%llu contested-rounds=%llu proactive-splits=%llu "
      "directives=%llu\n",
      static_cast<unsigned long long>(result.arbitrated),
      static_cast<unsigned long long>(result.contested_rounds),
      static_cast<unsigned long long>(result.proactive_splits),
      static_cast<unsigned long long>(result.admission.directives_broadcast));
  return result;
}

void verdict(const char* what, bool pass) {
  std::printf("  %-56s: %s\n", what, pass ? "PASS" : "FAIL");
}

int run(const char* json_path) {
  header("PolicyGrants",
         "need-weighted pool grants + proactive splits (DirectivePolicy) vs "
         "FCFS (ClassicPolicy) on a contested pool");
  std::printf(
      "  capacity = %zu slots x %u clients = %zu; crowds = 70/90/130/240 "
      "(small first, 500 ms stagger) + 160 background (~2.4x); %zu spare(s) "
      "for %zu saturating partitions; half churn out mid-run\n\n",
      kRoots + kPoolSize, kOverload, (kRoots + kPoolSize) * kOverload,
      kPoolSize, static_cast<std::size_t>(4));

  const RunResult classic = run_one(LoadPolicyKind::kClassic, "classic");
  const RunResult directive = run_one(LoadPolicyKind::kDirective, "directive");

  std::printf("\n[criteria]\n");
  const bool worst_ok =
      directive.worst_censored_ms < classic.worst_censored_ms;
  const bool spread_ok = directive.goodput_spread < classic.goodput_spread;
  const bool goodput_ok = directive.goodput >= 0.9 * classic.goodput;
  const bool p99_ok = directive.p99_ms <= 2.0 * classic.p99_ms;
  const bool timelines_ok = classic.admission.timelines_valid &&
                            directive.admission.timelines_valid &&
                            classic.admission.global_timeline_valid &&
                            directive.admission.global_timeline_valid;
  const bool policy_ok =
      (directive.arbitrated > 0 || directive.proactive_splits > 0) &&
      classic.arbitrated == 0 && classic.proactive_splits == 0;
  verdict("worst-partition censored time-to-admit: directive < classic",
          worst_ok);
  verdict("cross-partition goodput spread: directive < classic", spread_ok);
  verdict("crowd-wide goodput preserved (>= 0.9x classic)", goodput_ok);
  verdict("admitted p99 within 2x of classic", p99_ok);
  verdict("hysteresis timelines valid (servers + directive floor)",
          timelines_ok);
  verdict("arbitration/proactive splits fired iff DirectivePolicy",
          policy_ok);
  std::printf("  worst censored tta  : %6.0f ms -> %6.0f ms\n",
              classic.worst_censored_ms, directive.worst_censored_ms);
  std::printf("  goodput spread      : %5.1f%% -> %5.1f%%\n",
              classic.goodput_spread * 100.0,
              directive.goodput_spread * 100.0);
  std::printf("  crowd-wide goodput  : %5.1f%% -> %5.1f%%\n",
              classic.goodput * 100.0, directive.goodput * 100.0);

  JsonReport report("policy_grants");
  const char* labels[2] = {"classic", "directive"};
  const RunResult* runs[2] = {&classic, &directive};
  for (int i = 0; i < 2; ++i) {
    report.add(labels[i], "goodput", runs[i]->goodput, "fraction");
    report.add(labels[i], "goodput_spread", runs[i]->goodput_spread,
               "fraction");
    report.add(labels[i], "worst_censored_tta", runs[i]->worst_censored_ms,
               "ms");
    report.add(labels[i], "p99", runs[i]->p99_ms, "ms");
    report.add(labels[i], "admitted",
               static_cast<double>(runs[i]->admitted), "clients");
  }
  report.add("directive", "arbitrated_requests",
             static_cast<double>(directive.arbitrated), "");
  report.add("directive", "contested_rounds",
             static_cast<double>(directive.contested_rounds), "");
  report.add("directive", "proactive_splits",
             static_cast<double>(directive.proactive_splits), "");
  report.write(json_path);

  return worst_ok && spread_ok && goodput_ok && p99_ok && timelines_ok &&
                 policy_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  return matrix::bench::run(matrix::bench::json_report_path(argc, argv));
}
