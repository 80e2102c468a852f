// hotspot_tour: a narrated, annotated walk through the paper's Fig. 2
// scenario at 1/5 scale, printing the topology as it evolves.
//
// Run:  ./build/examples/hotspot_tour
//
// Watch for the three phases the paper describes (§4.1):
//   1. the hotspot joins and the overloaded server splits recursively,
//      even when the first split doesn't relieve it ("this did not ease
//      the load as the hotspot was on the map portion retained by
//      server 1 ... hence server 1 spawned another server");
//   2. the load stabilizes across several servers;
//   3. clients leave and parents reclaim their children back to the pool.
#include <cstdio>
#include <string>

#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

using namespace matrix;
using namespace matrix::time_literals;

namespace {

void print_topology(Deployment& deployment, double t) {
  std::printf("t=%5.1fs  servers:", t);
  const auto& matrices = deployment.matrix_servers();
  const auto& games = deployment.game_servers();
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    if (!matrices[i]->active()) continue;
    const Rect& r = matrices[i]->range();
    std::printf("  S%zu[%g,%g..%g,%g]=%zuc/q%zu", i + 1, r.x0(), r.y0(),
                r.x1(), r.y1(), games[i]->client_count(),
                deployment.network().queue_length(games[i]->node_id()));
  }
  std::printf("   (pool: %zu idle)\n", deployment.pool().idle_count());
}

}  // namespace

int main() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 60;   // 1/5 of the paper's 300
  options.config.underload_clients = 30;  // 1/5 of the paper's 150
  options.config.topology_cooldown = 3_sec;
  options.spec = bzflag_like();
  options.initial_servers = 1;
  options.pool_size = 8;
  options.map_objects = 100;
  options.seed = 2005;

  Deployment deployment(options);
  std::printf("== phase 0: quiet world, one server ==\n");
  ScenarioSpec().background(100_ms, 20).schedule(deployment);
  deployment.run_until(5_sec);
  print_topology(deployment, 5.0);

  std::printf("\n== phase 1: 120-client hotspot at (350,350) joins at t=10 ==\n");
  ScenarioSpec().flash(10_sec, 120, {350, 350}, 120.0).schedule(deployment);
  for (double t : {12.0, 16.0, 20.0, 26.0, 34.0, 45.0}) {
    deployment.run_until(SimTime::from_sec(t));
    print_topology(deployment, t);
  }

  std::printf("\n== phase 2: steady state under load ==\n");
  deployment.run_until(70_sec);
  print_topology(deployment, 70.0);

  std::printf("\n== phase 3: the crowd leaves in waves; Matrix reclaims ==\n");
  ScenarioSpec()
      .departures(72_sec, 120, 40, 15_sec, Vec2{350, 350})
      .schedule(deployment);
  for (double t : {80.0, 95.0, 110.0, 140.0, 170.0}) {
    deployment.run_until(SimTime::from_sec(t));
    print_topology(deployment, t);
  }

  const LatencySummary latency = collect_latency(deployment);
  std::uint64_t splits = 0, reclaims = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    splits += server->stats().splits_completed;
    reclaims += server->stats().reclaims_completed;
  }
  std::printf("\n== wrap-up ==\n");
  std::printf("splits: %llu, reclaims: %llu\n",
              static_cast<unsigned long long>(splits),
              static_cast<unsigned long long>(reclaims));
  std::printf("switch latency (redirect->welcome): median %.1f ms over %llu switches\n",
              latency.switch_ms.median(),
              static_cast<unsigned long long>(latency.switches));
  std::printf("self latency: p50 %.1f ms, p99 %.1f ms, over-150ms %.2f%%\n",
              latency.self_ms.median(), latency.self_ms.percentile(99),
              100.0 * latency.self_ms.fraction_above(150.0));
  return 0;
}
