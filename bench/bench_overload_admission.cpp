// Overload admission: what happens when the pool runs dry?
//
// The paper's evaluation stops at "Matrix absorbed the hotspot with the
// spare pool".  This bench drives the regime the paper never models — a
// flash crowd offering ~4× the deployment's TOTAL capacity (every root
// plus every spare at the overload threshold) — and compares three runs:
//
//   baseline : at-capacity crowd, admission off  (the reference latency)
//   off      : beyond-capacity crowd, admission off  (unprotected collapse)
//   on       : beyond-capacity crowd, admission on   (src/control/ valve)
//
// Claim under test: with admission ON, the p99 response latency of the
// ADMITTED clients stays within 2× the at-capacity baseline while excess
// joins are deferred/denied at the valve; with admission OFF it does not.
// The hysteresis invariants of every recorded admission timeline are also
// checked (the same contract tests/admission_test.cpp asserts).
#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

constexpr std::size_t kPoolSize = 3;        // 1 root + 3 spares...
constexpr std::uint32_t kOverload = 60;     // ...at 60 clients each = 240
constexpr std::size_t kBaselineBots = 200;  // ~83% of capacity
constexpr std::size_t kOverloadBots = 1000; // ~4× capacity
constexpr SimTime kDuration = 60_sec;

DeploymentOptions overload_options(bool admission_on) {
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

  options.config.admission.enabled = admission_on;
  options.config.admission.soft_denied_streak = 1;
  options.config.admission.hard_denied_streak = 3;
  options.config.admission.token_rate_per_sec = 10.0;
  options.config.admission.token_burst = 20.0;
  options.config.admission.dwell = 1_sec;
  options.config.admission.recover_min = 4_sec;
  options.config.admission.defer_retry = 2_sec;

  // Quake-like 20 Hz actions against a deliberately modest server (400 µs
  // per message ⇒ ~2.5k msg/s): 60 clients is ~50% utilisation, so a stuck
  // 250-client partition runs at ~200% and its queue grows without bound —
  // the collapse the valve exists to prevent.
  options.spec = quake_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(400);
  options.initial_servers = 1;
  options.pool_size = kPoolSize;
  options.map_objects = 100;
  options.seed = 2005;
  return options;
}

struct RunResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double delivery = 0.0;  ///< acks / actions over admitted clients
  std::size_t admitted = 0;
  std::size_t final_clients = 0;
  double peak_servers = 0.0;
  double max_queue = 0.0;
  AdmissionSummary admission;
};

RunResult run_one(bool admission_on, std::size_t crowd, const char* label) {
  Deployment deployment(overload_options(admission_on));
  MetricsSampler metrics(deployment, 1_sec);

  OverloadScenarioOptions scenario;
  scenario.background_bots = 50;
  scenario.flash_bots = crowd - scenario.background_bots;
  scenario.join_batch = 100;
  scenario.join_interval = 2_sec;
  scenario.flash_at = 5_sec;
  scenario.center = {400.0, 400.0};
  scenario.spread = 150.0;
  scenario.duration = kDuration;
  schedule_overload_scenario(deployment, scenario);
  deployment.run_until(scenario.duration);

  RunResult result;
  Histogram self_ms;
  std::uint64_t actions = 0;
  std::uint64_t acks = 0;
  for (const BotClient* bot : deployment.bots()) {
    if (!bot->ever_connected()) continue;
    ++result.admitted;
    self_ms.merge(bot->metrics().self_latency_ms);
    actions += bot->metrics().actions_sent;
    acks += bot->metrics().self_latency_ms.count();
  }
  result.p50_ms = self_ms.median();
  result.p99_ms = self_ms.percentile(99.0);
  result.delivery =
      actions > 0 ? static_cast<double>(acks) / static_cast<double>(actions)
                  : 0.0;
  result.final_clients = deployment.total_clients();
  result.peak_servers = metrics.max_active_servers();
  result.max_queue = metrics.max_queue();
  result.admission = collect_admission(deployment);

  std::printf(
      "  %-10s offered=%4zu admitted=%4zu final=%4zu servers=%.0f "
      "p50=%7.1fms p99=%8.1fms delivered=%5.1f%% deferred=%llu denied=%llu "
      "maxQ=%.0f\n",
      label, crowd, result.admitted, result.final_clients,
      result.peak_servers, result.p50_ms, result.p99_ms,
      result.delivery * 100.0,
      static_cast<unsigned long long>(result.admission.joins_deferred),
      static_cast<unsigned long long>(result.admission.joins_denied),
      result.max_queue);
  return result;
}

int run(const char* json_path) {
  header("OverloadAdmission",
         "beyond-capacity flash crowd: admission on vs off");
  std::printf("  capacity = %zu servers x %u clients = %zu; crowd = %zu\n\n",
              1 + kPoolSize, kOverload, (1 + kPoolSize) * kOverload,
              kOverloadBots);

  const RunResult baseline = run_one(false, kBaselineBots, "baseline");
  const RunResult off = run_one(false, kOverloadBots, "off");
  const RunResult on = run_one(true, kOverloadBots, "on");

  std::printf("\n[criteria]\n");
  const double bound = 2.0 * baseline.p99_ms;
  const bool held = on.p99_ms <= bound;
  const bool collapsed = off.p99_ms > bound;
  const bool shed =
      on.admission.joins_deferred + on.admission.joins_denied > 0;
  const bool timelines_ok = on.admission.timelines_valid;
  std::printf("  admitted-client p99 bound (2x baseline) : %.1f ms\n", bound);
  std::printf("  admission ON  p99 %8.1f ms  -> %s\n", on.p99_ms,
              held ? "PASS (held)" : "FAIL");
  std::printf("  admission OFF p99 %8.1f ms  -> %s\n", off.p99_ms,
              collapsed ? "PASS (collapsed, as predicted)"
                        : "FAIL (did not collapse)");
  std::printf("  excess shed at the valve (ON)           : %s\n",
              shed ? "PASS" : "FAIL");
  std::printf("  hysteresis timelines valid (ON)         : %s\n",
              timelines_ok ? "PASS" : "FAIL");
  std::printf("  goodput ON vs OFF (delivered fraction)  : %.1f%% vs %.1f%%\n",
              on.delivery * 100.0, off.delivery * 100.0);

  JsonReport report("overload_admission");
  const char* labels[3] = {"baseline", "off", "on"};
  const RunResult* runs[3] = {&baseline, &off, &on};
  for (int i = 0; i < 3; ++i) {
    report.add(labels[i], "p50", runs[i]->p50_ms, "ms");
    report.add(labels[i], "p99", runs[i]->p99_ms, "ms");
    report.add(labels[i], "delivery", runs[i]->delivery, "fraction");
    report.add(labels[i], "admitted", static_cast<double>(runs[i]->admitted),
               "clients");
  }
  report.write(json_path);

  return held && collapsed && shed && timelines_ok ? 0 : 1;
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  return matrix::bench::run(matrix::bench::json_report_path(argc, argv));
}
