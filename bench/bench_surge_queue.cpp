// Surge queue vs defer-retry: who should own the overload control loop?
//
// PR 1's admission valve bounced gated joins back to the client (JoinDefer
// with a retry hint).  That leaves service capacity on the floor: while the
// deferred cohort sleeps its jittered 2-3 s, the SOFT token bucket refills
// to its small burst cap and then *overflows* — admission slots exist but
// nobody is at the door.  The surge queue (src/control/surge_queue.h) parks
// gated joins server-side and drains on every 500 ms tick, so no refilled
// token is ever wasted, and the drain order is chosen (RESUME > VIP >
// NORMAL with aging) instead of being a retry race.
//
// The deeper difference shows in HARD: defer-retry answers HARD with
// JoinDeny and the client gives up — when capacity frees later, those
// players are simply gone.  The waiting room parks them instead, and the
// recovery drains the whole line in class order.
//
// This bench drives a beyond-capacity flash crowd (a SurgeScenario with a
// 15% VIP share) into a valve that goes HARD at the crest, then frees
// capacity with a departure wave, and compares the two control loops:
//
//   defer : admission on, waiting room off  (PR 1 behaviour)
//   queue : admission on, waiting room on   (this PR)
//
// Claims under test (ISSUE 2 acceptance criteria):
//   * the waiting room admits strictly more of the crowd into play and
//     delivers a strictly higher goodput (delivered action fraction across
//     the whole offered crowd);
//   * mean time-to-admit (first join attempt → Welcome) is lower for the
//     VIP class — and no worse for NORMAL — than under defer-retry;
//   * admitted-client p99 latency stays in the same regime (the room must
//     not buy admission speed with a melted server);
//   * hysteresis timelines stay valid, and RESUME/VIP/NORMAL drain in
//     class order (per-class queue waits are reported).
#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

constexpr std::size_t kPoolSize = 3;        // 1 root + 3 spares...
constexpr std::uint32_t kOverload = 60;     // ...at 60 clients each = 240
constexpr std::size_t kCrowd = 700;         // ~3× capacity
constexpr SimTime kDuration = 90_sec;

DeploymentOptions surge_options(bool waiting_room) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 800, 800);
  options.config.visibility_radius = 50.0;
  options.config.overload_clients = kOverload;
  options.config.underload_clients = kOverload / 2;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.config.pool_backoff_initial = 1_sec;
  options.config.pool_backoff_max = 8_sec;

  options.config.admission.enabled = true;
  // Same valve tuning as bench_overload_admission: SOFT on the first pool
  // denial, HARD after three — at the crest of a 3× crowd the valve WILL
  // close fully, which is where the two control loops diverge (deny-and-
  // give-up vs park-and-wait).
  options.config.admission.soft_denied_streak = 1;
  options.config.admission.hard_denied_streak = 3;
  // Small burst: an unattended bucket overflows after 1 s — exactly the
  // capacity defer-retry wastes while its cohort sleeps between retries.
  options.config.admission.token_rate_per_sec = 8.0;
  options.config.admission.token_burst = 8.0;
  options.config.admission.dwell = 1_sec;
  options.config.admission.recover_min = 4_sec;
  options.config.admission.defer_retry = 2_sec;

  options.config.admission.priority.queue_enabled = waiting_room;
  options.config.admission.priority.queue_capacity = 1024;
  options.config.admission.priority.age_step = 20_sec;
  options.config.admission.priority.update_interval = 500_ms;

  options.spec = quake_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(400);
  options.initial_servers = 1;
  options.pool_size = kPoolSize;
  options.map_objects = 100;
  options.seed = 2005;
  return options;
}

struct ClassStats {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  double tta_ms_sum = 0.0;  ///< over admitted bots
  /// Censored sum over the WHOLE class: admitted bots contribute their
  /// time-to-admit, never-admitted bots the full span from first join to
  /// run end.  This is the fair cross-mode metric — defer-retry's outright
  /// denials must not vanish from its average.
  double censored_ms_sum = 0.0;

  [[nodiscard]] double mean_tta_ms() const {
    return admitted > 0 ? tta_ms_sum / static_cast<double>(admitted) : 0.0;
  }
  [[nodiscard]] double mean_censored_ms() const {
    return offered > 0 ? censored_ms_sum / static_cast<double>(offered) : 0.0;
  }
};

struct RunResult {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t final_clients = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double delivery = 0.0;  ///< acks / actions over admitted clients
  double goodput = 0.0;   ///< acks / (offered × expected actions) — crowd-wide
  ClassStats vip;
  ClassStats normal;
  AdmissionSummary admission;
};

RunResult run_one(bool waiting_room, const char* label) {
  Deployment deployment(surge_options(waiting_room));
  MetricsSampler metrics(deployment, 1_sec);

  SurgeScenarioOptions scenario;
  scenario.background_bots = 50;
  scenario.flash_bots = kCrowd - scenario.background_bots;
  scenario.join_batch = 130;
  scenario.join_interval = 2_sec;
  scenario.flash_at = 5_sec;
  scenario.center = {400.0, 400.0};
  scenario.spread = 150.0;
  scenario.vip_fraction = 0.15;
  // Recovery: most of the admitted crowd drifts away from t=45 s, freeing
  // capacity.  The waiting room drains its line into the freed slots; the
  // defer-retry deployment can only re-admit clients that never gave up.
  scenario.leave_bots = 200;
  scenario.leave_batch = 100;
  scenario.leave_at = 45_sec;
  scenario.leave_interval = 5_sec;
  scenario.duration = kDuration;
  schedule_surge_scenario(deployment, scenario);
  deployment.run_until(scenario.duration);

  RunResult result;
  Histogram self_ms;
  std::uint64_t actions = 0;
  std::uint64_t acks = 0;
  for (const BotClient* bot : deployment.bots()) {
    ++result.offered;
    ClassStats& cls = bot->vip() ? result.vip : result.normal;
    ++cls.offered;
    if (!bot->ever_connected()) {
      // Never admitted: censored at run end — it waited (or was turned
      // away) for the rest of the run.
      cls.censored_ms_sum += (kDuration - bot->first_join_at()).ms();
      continue;
    }
    ++result.admitted;
    ++cls.admitted;
    cls.tta_ms_sum += bot->metrics().time_to_admit_ms;
    cls.censored_ms_sum += bot->metrics().time_to_admit_ms;
    self_ms.merge(bot->metrics().self_latency_ms);
    actions += bot->metrics().actions_sent;
    acks += bot->metrics().self_latency_ms.count();
  }
  result.p50_ms = self_ms.median();
  result.p99_ms = self_ms.percentile(99.0);
  result.delivery =
      actions > 0 ? static_cast<double>(acks) / static_cast<double>(actions)
                  : 0.0;
  // Crowd-wide goodput: delivered actions normalised by what the WHOLE
  // offered crowd would have sent had everyone been admitted at t=0 and
  // acted at the model rate for the full run.  Penalises both waiting at
  // the door and melted service.
  const double expected_per_client =
      kDuration.sec() / surge_options(false).spec.action_interval.sec();
  result.goodput = static_cast<double>(acks) /
                   (static_cast<double>(result.offered) * expected_per_client);
  result.final_clients = deployment.total_clients();
  result.admission = collect_admission(deployment);

  std::printf(
      "  %-6s offered=%4zu admitted=%4zu final=%4zu p50=%6.1fms p99=%7.1fms "
      "delivered=%5.1f%% goodput=%5.1f%%\n"
      "         admitted tta  VIP=%7.0fms (n=%zu)  NORMAL=%7.0fms (n=%zu)\n"
      "         censored tta  VIP=%7.0fms          NORMAL=%7.0fms  "
      "queued=%llu deferred=%llu denied=%llu\n",
      label, result.offered, result.admitted, result.final_clients,
      result.p50_ms, result.p99_ms, result.delivery * 100.0,
      result.goodput * 100.0, result.vip.mean_tta_ms(), result.vip.admitted,
      result.normal.mean_tta_ms(), result.normal.admitted,
      result.vip.mean_censored_ms(), result.normal.mean_censored_ms(),
      static_cast<unsigned long long>(result.admission.joins_queued),
      static_cast<unsigned long long>(result.admission.joins_deferred),
      static_cast<unsigned long long>(result.admission.joins_denied));
  if (waiting_room) {
    std::printf(
        "         queue waits: RESUME=%6.0fms (n=%llu)  VIP=%6.0fms (n=%llu)  "
        "NORMAL=%6.0fms (n=%llu)  maxDepth=%llu overflow=%llu\n",
        result.admission.mean_queue_wait_ms(0),
        static_cast<unsigned long long>(
            result.admission.queue_admitted_by_class[0]),
        result.admission.mean_queue_wait_ms(1),
        static_cast<unsigned long long>(
            result.admission.queue_admitted_by_class[1]),
        result.admission.mean_queue_wait_ms(2),
        static_cast<unsigned long long>(
            result.admission.queue_admitted_by_class[2]),
        static_cast<unsigned long long>(result.admission.max_queue_depth),
        static_cast<unsigned long long>(result.admission.queue_overflow));
  }
  return result;
}

/// Prints one criterion and folds it into `all_pass`.
void verdict(const char* what, bool pass, bool& all_pass) {
  std::printf("  %-44s: %s\n", what, pass ? "PASS" : "FAIL");
  all_pass = all_pass && pass;
}

int run(const char* json_path) {
  header("SurgeQueue",
         "waiting-room drain vs PR-1 defer-retry under a 3x flash crowd");
  std::printf("  capacity = %zu servers x %u clients = %zu; crowd = %zu "
              "(15%% VIP); SOFT token rate = 8/s, burst 8\n\n",
              1 + kPoolSize, kOverload, (1 + kPoolSize) * kOverload, kCrowd);

  const RunResult defer = run_one(false, "defer");
  const RunResult queue = run_one(true, "queue");

  std::printf("\n[criteria]\n");
  bool all_pass = true;
  verdict("goodput: queue > defer (strict)",
          queue.goodput > defer.goodput, all_pass);
  verdict("admitted into play: queue >= defer",
          queue.admitted >= defer.admitted, all_pass);
  // Time-to-admit uses the CENSORED mean (never-admitted bots count their
  // whole wait): defer-retry's JoinDeny give-ups must not be dropped from
  // its average just because they never got in.
  verdict("mean time-to-admit VIP: queue < defer",
          queue.vip.mean_censored_ms() < defer.vip.mean_censored_ms(),
          all_pass);
  verdict("mean time-to-admit NORMAL: queue < defer",
          queue.normal.mean_censored_ms() < defer.normal.mean_censored_ms(),
          all_pass);
  verdict("VIP drains ahead of NORMAL (queue waits)",
          queue.admission.mean_queue_wait_ms(1) <=
              queue.admission.mean_queue_wait_ms(2),
          all_pass);
  verdict("admitted p99 within 2x of defer-retry",
          queue.p99_ms <= 2.0 * defer.p99_ms, all_pass);
  verdict("hysteresis timelines valid (both runs)",
          defer.admission.timelines_valid && queue.admission.timelines_valid,
          all_pass);
  std::printf("  time-to-admit VIP   : %6.0f ms -> %6.0f ms  (censored mean)\n",
              defer.vip.mean_censored_ms(), queue.vip.mean_censored_ms());
  std::printf("  time-to-admit NORMAL: %6.0f ms -> %6.0f ms  (censored mean)\n",
              defer.normal.mean_censored_ms(),
              queue.normal.mean_censored_ms());
  std::printf("  goodput             : %5.1f%% -> %5.1f%%\n",
              defer.goodput * 100.0, queue.goodput * 100.0);

  JsonReport report("surge_queue");
  const char* labels[2] = {"defer", "queue"};
  const RunResult* runs[2] = {&defer, &queue};
  for (int i = 0; i < 2; ++i) {
    report.add(labels[i], "goodput", runs[i]->goodput, "fraction");
    report.add(labels[i], "p99", runs[i]->p99_ms, "ms");
    report.add(labels[i], "admitted", static_cast<double>(runs[i]->admitted),
               "clients");
    report.add(labels[i], "censored_tta_vip", runs[i]->vip.mean_censored_ms(),
               "ms");
    report.add(labels[i], "censored_tta_normal",
               runs[i]->normal.mean_censored_ms(), "ms");
  }
  report.write(json_path);

  return all_pass ? 0 : 1;
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  return matrix::bench::run(matrix::bench::json_report_path(argc, argv));
}
