// rpg_world: a Daimonin-like RPG on Matrix — the paper's third test game.
//
// Demonstrates the two Matrix features the shooter examples don't touch:
//
//   * NON-PROXIMAL INTERACTIONS (paper §3.2.4): town-portal teleports whose
//     target lies far outside the caster's visibility radius.  Matrix
//     resolves the owner of the distant point through the MC — the only
//     time the coordinator appears on the data path.
//
//   * EXCEPTIONAL VISIBILITY RADII (paper §3.1): a minority of "seers"
//     (scrying spell) have a doubled radius.  Matrix maintains a second set
//     of overlap regions for them, so their events propagate further.
//
// Run:  ./build/examples/rpg_world
#include <cstdio>

#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

using namespace matrix;
using namespace matrix::time_literals;

int main() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1200, 1200);
  options.config.overload_clients = 80;
  options.config.underload_clients = 40;
  options.spec = daimonin_like();  // R=120, seers at R=240, 1% teleports
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = 4;  // a statically provisioned RPG shard...
  options.pool_size = 4;        // ...plus spares for the festival crowd
  options.map_objects = 400;
  options.seed = 13;

  Deployment deployment(options);
  std::printf("RPG shard up: %zu servers, world 1200x1200, R=%.0f (seers %.0f)\n",
              deployment.active_server_count(),
              options.spec.visibility_radius, options.spec.extra_radii[0]);

  // A settled population across the four provinces.
  ScenarioSpec().background(100_ms, 120).schedule(deployment);
  deployment.run_until(20_sec);

  std::uint64_t lookups = 0, fanned = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    lookups += server->stats().nonproximal_lookups;
    fanned += server->stats().packets_fanned_out;
  }
  std::printf("t=20s: %zu players settled; %llu cross-border events, "
              "%llu teleport/owner lookups via the MC\n",
              deployment.total_clients(),
              static_cast<unsigned long long>(fanned),
              static_cast<unsigned long long>(lookups));

  // Festival in the north-east province: the crowd triples there.
  std::printf("\na festival draws a crowd to (900, 900)...\n");
  ScenarioSpec().flash(20_sec, 160, {900, 900}, 140.0).schedule(deployment);
  deployment.run_until(80_sec);
  std::printf("t=80s: %zu players on %zu servers (pool: %zu idle)\n",
              deployment.total_clients(), deployment.active_server_count(),
              deployment.pool().idle_count());

  // Festival ends.
  deployment.remove_bots(160, Vec2{900, 900});
  deployment.run_until(160_sec);
  std::printf("t=160s: festival over — back to %zu servers\n",
              deployment.active_server_count());

  // The coordinator's data-path involvement stayed marginal even for an
  // RPG with teleports — the paper's centralization argument.
  lookups = 0;
  std::uint64_t data_packets = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    lookups += server->stats().nonproximal_lookups;
    data_packets += server->stats().packets_from_game;
  }
  std::printf("\ncoordinator involvement: %llu lookups for %llu data packets"
              " (%.3f%%)\n",
              static_cast<unsigned long long>(lookups),
              static_cast<unsigned long long>(data_packets),
              data_packets ? 100.0 * static_cast<double>(lookups) /
                                 static_cast<double>(data_packets)
                           : 0.0);

  const LatencySummary latency = collect_latency(deployment);
  std::printf("latency: p50 %.1f ms, p99 %.1f ms (budget 150 ms), "
              "switches %llu\n",
              latency.self_ms.median(), latency.self_ms.percentile(99),
              static_cast<unsigned long long>(latency.switches));
  return 0;
}
