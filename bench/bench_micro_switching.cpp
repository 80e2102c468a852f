// T-micro-switch (§4.2 ¶2): switching latency and split cost.
//
// "We also conducted microbenchmarks that showed that Matrix's overheads,
//  in terms of switching latency and bandwidth usage, were acceptable."
//
// Three measurements:
//   1. client switch latency (Redirect received → Welcome from the new
//      server) as seen by the switching players themselves;
//   2. split latency (overload decision → all state/clients handed off);
//   3. the state actually moved per split (clients redirected, map objects
//      shipped, bytes over the matrix relay) — showing that the paper's
//      "the amount of state associated with switching game clients is
//      minimal" holds because static content moves as cached pointers.
#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

void run(JsonReport& json) {
  header("T-micro-switch", "client switching latency and split cost");

  auto options = paper_options();
  options.config.topology_cooldown = 2_sec;
  Deployment deployment(options);
  // Dissipate to force reclaims too (each reclaim also switches clients).
  ScenarioSpec()
      .background(100_ms, 80)
      .flash(5_sec, 500, {350, 350}, 130.0)
      .departures(60_sec, 500, 250, 15_sec, Vec2{350, 350})
      .schedule(deployment);
  deployment.run_until(120_sec);

  const LatencySummary latency = collect_latency(deployment);
  std::printf("\n[client switch latency] (redirect -> welcome, over WAN RTT %.0f ms)\n",
              2 * deployment.options().wan.latency.ms());
  std::printf("  switches: %llu\n",
              static_cast<unsigned long long>(latency.switches));
  std::printf("  p50: %.2f ms   p90: %.2f ms   p99: %.2f ms   max: %.2f ms\n",
              latency.switch_ms.median(), latency.switch_ms.percentile(90),
              latency.switch_ms.percentile(99), latency.switch_ms.max());
  std::printf("  over 150 ms interactivity budget: %.2f%%\n",
              100.0 * latency.switch_ms.fraction_above(150.0));

  std::printf("\n[split / reclaim latency] (decision -> handoff complete)\n");
  std::uint64_t splits = 0, reclaims = 0, split_us = 0, reclaim_us = 0;
  std::uint64_t redirected = 0, objects_moved = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    splits += server->stats().splits_completed;
    reclaims += server->stats().reclaims_completed;
    split_us += server->stats().split_latency_us_sum;
    reclaim_us += server->stats().reclaim_latency_us_sum;
  }
  for (const GameServer* game : deployment.game_servers()) {
    redirected += game->stats().clients_redirected;
    objects_moved += game->stats().state_objects_sent;
  }
  std::printf("  splits  : %llu, mean %.1f ms each\n",
              static_cast<unsigned long long>(splits),
              splits ? static_cast<double>(split_us) / (1000.0 * static_cast<double>(splits)) : 0.0);
  std::printf("  reclaims: %llu, mean %.1f ms each\n",
              static_cast<unsigned long long>(reclaims),
              reclaims ? static_cast<double>(reclaim_us) / (1000.0 * static_cast<double>(reclaims)) : 0.0);

  std::printf("\n[state moved across all topology changes]\n");
  std::printf("  clients redirected : %llu\n",
              static_cast<unsigned long long>(redirected));
  std::printf("  map objects shipped: %llu (dynamic state only)\n",
              static_cast<unsigned long long>(objects_moved));
  std::printf("  static content     : moved as %zu cache POINTERS per adopt, 0 bytes of bulk data\n",
              std::size_t{3});
  const TrafficBreakdown traffic = collect_traffic(deployment);
  std::printf("  matrix-relay bytes : %llu (includes all state transfer)\n",
              static_cast<unsigned long long>(traffic.matrix_to_matrix));
  std::printf("  control-plane bytes: %llu (MC tables + lookups)\n",
              static_cast<unsigned long long>(traffic.matrix_to_mc));

  json.add("switch", "switches", static_cast<double>(latency.switches));
  json.add("switch", "p50_ms", latency.switch_ms.median(), "ms");
  json.add("switch", "p99_ms", latency.switch_ms.percentile(99), "ms");
  json.add("switch", "over_budget_fraction",
           latency.switch_ms.fraction_above(150.0));
  json.add("topology", "splits", static_cast<double>(splits));
  json.add("topology", "split_mean_ms",
           splits ? static_cast<double>(split_us) /
                        (1000.0 * static_cast<double>(splits))
                  : 0.0,
           "ms");
  json.add("topology", "reclaims", static_cast<double>(reclaims));
  json.add("topology", "clients_redirected", static_cast<double>(redirected));
  json.add("topology", "mm_bytes",
           static_cast<double>(traffic.matrix_to_matrix), "bytes");
  add_registry(json, "switch", deployment);
  std::printf("\nReading: the median switch costs one WAN round trip — players\n"
              "can't perceive it (the tail comes from switches issued while the\n"
              "overloaded server is still draining).  A full split settles in a\n"
              "few hundred ms because only dynamic state moves; reclaims of\n"
              "near-empty children are millisecond-scale LAN handshakes.\n");
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  matrix::bench::JsonReport json("micro_switching");
  matrix::bench::run(json);
  return json.write(matrix::bench::json_report_path(argc, argv)) ? 0 : 1;
}
