// Quickstart: the smallest complete Matrix deployment.
//
//   * one game server + Matrix server pair, a coordinator, and a pool of
//     three spares;
//   * a handful of bot players wandering a 1000×1000 world;
//   * a flash crowd that forces Matrix to split — then leaves, and Matrix
//     reclaims the extra server.
//
// Run:  ./build/examples/quickstart
//
// Everything here goes through the public API surface a game developer
// would touch: DeploymentOptions (ops knobs), Deployment (wiring),
// ScenarioSpec (workload), MetricsSampler / collect_latency (observability).
// The game logic itself lives behind GameModelSpec — swap bzflag_like()
// for your own spec and nothing else changes.
//
// With MATRIX_TRACE=1 (or options.config.obs.trace_enabled = true) the run
// also drops its observability artifacts — quickstart_trace.jsonl (the
// flight recorder) and quickstart_registry.{jsonl,csv} (the unified metrics
// registry) — the files CI uploads from its obs-gate job.
#include <cstdio>

#include "obs/collect.h"
#include "obs/registry.h"
#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

using namespace matrix;
using namespace matrix::time_literals;

int main() {
  // 1. Describe the deployment.  Thresholds are scaled down so the demo
  //    splits with a small crowd (the paper's production numbers are 300 /
  //    150 clients).
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 30;
  options.config.underload_clients = 15;
  options.config.topology_cooldown = 2_sec;
  options.spec = bzflag_like();  // tank-shooter traffic model, R = 60
  options.initial_servers = 1;
  options.pool_size = 3;
  options.seed = 7;

  // 2. Boot it: coordinator, pool, one active server owning the world.
  Deployment deployment(options);
  std::printf("booted: %zu active server(s), %zu spare(s) in the pool\n",
              deployment.active_server_count(), deployment.pool().idle_count());

  // 3. A few players wander in.
  for (int i = 0; i < 10; ++i) {
    deployment.add_bot({100.0 + 80.0 * i, 500.0});
  }
  deployment.run_until(5_sec);
  std::printf("t=5s   : %zu clients on %zu server(s)\n",
              deployment.total_clients(), deployment.active_server_count());

  // 4. A flash crowd shows up around (300, 300) — more than one server's
  //    overload threshold.
  ScenarioSpec()
      .flash(5_sec, 60, {300, 300}, /*spread=*/90.0)
      .schedule(deployment);
  deployment.run_until(25_sec);
  std::printf("t=25s  : %zu clients on %zu server(s)  <- Matrix split\n",
              deployment.total_clients(), deployment.active_server_count());

  // 5. The crowd leaves; Matrix consolidates back.
  deployment.remove_bots(60, Vec2{300, 300});
  deployment.run_until(70_sec);
  std::printf("t=70s  : %zu clients on %zu server(s)  <- Matrix reclaimed\n",
              deployment.total_clients(), deployment.active_server_count());

  // 6. What did the players experience?
  const LatencySummary latency = collect_latency(deployment);
  std::printf("\nplayer experience (action -> observed reaction):\n");
  std::printf("  actions: %llu   p50: %.1f ms   p99: %.1f ms   over 150 ms: %.2f%%\n",
              static_cast<unsigned long long>(latency.actions),
              latency.self_ms.median(), latency.self_ms.percentile(99),
              100.0 * latency.self_ms.fraction_above(150.0));
  std::printf("  server switches: %llu   median switch latency: %.1f ms\n",
              static_cast<unsigned long long>(latency.switches),
              latency.switch_ms.median());

  const TrafficBreakdown traffic = collect_traffic(deployment);
  std::printf("\ntraffic: client<->server %llu B, game<->matrix %llu B, "
              "matrix<->matrix %llu B, control %llu B\n",
              static_cast<unsigned long long>(traffic.client_to_server),
              static_cast<unsigned long long>(traffic.game_to_matrix),
              static_cast<unsigned long long>(traffic.matrix_to_matrix),
              static_cast<unsigned long long>(traffic.matrix_to_mc));

  // 7. Observability artifacts (src/obs/).  When tracing ran (MATRIX_TRACE=1
  //    turns it on without a recompile), dump the flight recorder and the
  //    unified metrics registry for offline digestion — e.g.
  //    scripts/trace_summary.py quickstart_trace.jsonl.
  if (deployment.network().tracer().enabled()) {
    const obs::Tracer& tracer = deployment.network().tracer();
    const obs::Registry registry = obs::collect_registry(deployment);
    const bool wrote = tracer.dump_jsonl("quickstart_trace.jsonl") &&
                       registry.write_jsonl("quickstart_registry.jsonl") &&
                       registry.write_csv("quickstart_registry.csv");
    std::printf("\ntracing: %llu events recorded, admit p99 %.1f ms — %s\n",
                static_cast<unsigned long long>(tracer.events_recorded()),
                tracer.histogram(obs::SpanKind::kAdmit).percentile_ms(99.0),
                wrote ? "wrote quickstart_trace.jsonl, "
                        "quickstart_registry.{jsonl,csv}"
                      : "artifact write FAILED");
    if (!wrote) return 1;
  }
  return 0;
}
