// Figure 2 (a) and (b): Matrix absorbing a 600-client hotspot.
//
// Paper timeline (Fig. 2 caption + §4.1): a hotspot of 600 BzFlag clients
// appears at t≈10 s and holds for ~75 s, then dissipates as 200 clients
// leave at fixed intervals; a second hotspot appears elsewhere at t=170 s
// for ~50 s and is then gradually removed.  A server is overloaded at 300+
// clients and underloaded below 150.
//
// Output: Fig2a = clients per server over time; Fig2b = receive-queue
// length per server over time; plus the topology summary (peak servers,
// splits, reclamation points) the paper narrates.
#include "bench_common.h"
#include "sim/report.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

void run(JsonReport& json) {
  header("Fig2", "600-client hotspot: clients/server and queue length vs time");

  auto options = paper_options();
  Deployment deployment(options);
  MetricsSampler metrics(deployment, 1_sec);

  // The paper's timeline: 100 background players; 600 hotspot clients at
  // t=10 s, held 75 s, then leaving 200 every 15 s; a second 600-client
  // hotspot elsewhere at t=170 s, held 50 s.  The canned HotspotScenario
  // places its crowds with σ=20; this one is town-square-sized, σ=120 on
  // the 1000-unit map.  The paper reports "up to four servers" absorbed the
  // 600 clients, which matches this footprint under recursive split-to-left.
  constexpr double kSpread = 120.0;
  ScenarioSpec scenario;
  scenario.background(100_ms, 100)
      .flash(10_sec, 600, {350, 350}, kSpread)
      .departures(85_sec, 600, 200, 15_sec, Vec2{350, 350})
      .flash(170_sec, 600, {800, 800}, kSpread)
      .departures(220_sec, 600, 200, 15_sec, Vec2{800, 800})
      .run_for(280_sec)
      .schedule(deployment);

  deployment.run_until(scenario.duration());

  // ---- Fig 2a: clients per server ------------------------------------------
  std::printf("\n[Fig 2a] clients per server (rows every 5 s)\n");
  std::printf("%6s %8s", "t(s)", "total");
  const std::size_t slots = deployment.game_servers().size();
  for (std::size_t i = 0; i < slots; ++i) std::printf(" %6s", ("S" + std::to_string(i + 1)).c_str());
  std::printf(" %8s\n", "active");
  for (double ts = 0.0; ts <= scenario.duration().sec(); ts += 5.0) {
    std::printf("%6.0f %8.0f", ts, metrics.total_clients().value_at(ts));
    for (std::size_t i = 0; i < slots; ++i) {
      std::printf(" %6.0f", metrics.clients_per_server()[i].value_at(ts));
    }
    std::printf(" %8.0f\n", metrics.active_servers().value_at(ts));
  }

  // ---- Fig 2b: receive queue length per server ------------------------------
  std::printf("\n[Fig 2b] game-server receive-queue length (rows every 5 s)\n");
  std::printf("%6s", "t(s)");
  for (std::size_t i = 0; i < slots; ++i) std::printf(" %7s", ("S" + std::to_string(i + 1)).c_str());
  std::printf("\n");
  for (double ts = 0.0; ts <= scenario.duration().sec(); ts += 5.0) {
    std::printf("%6.0f", ts);
    for (std::size_t i = 0; i < slots; ++i) {
      std::printf(" %7.0f", metrics.queue_per_server()[i].value_at(ts));
    }
    std::printf("\n");
  }

  // ---- Narrative summary (matches the paper's §4.1 description) -------------
  const TopologyTotals totals = topology_totals(deployment);
  std::printf("\n[summary]\n");
  std::printf("  peak active servers      : %.0f  (paper: up to 4 per hotspot)\n",
              metrics.max_active_servers());
  std::printf("  splits completed         : %llu\n",
              static_cast<unsigned long long>(totals.splits));
  std::printf("  reclaims completed       : %llu  (paper: reclamation points on Fig 2a)\n",
              static_cast<unsigned long long>(totals.reclaims));
  std::printf("  peak receive queue       : %.0f messages\n", metrics.max_queue());
  std::printf("  final active servers     : %zu\n",
              deployment.active_server_count());
  std::printf("  final total clients      : %zu\n", deployment.total_clients());

  const LatencySummary latency = collect_latency(deployment);
  std::printf("  self-latency p50/p99 (ms): %.1f / %.1f\n",
              latency.self_ms.median(), latency.self_ms.percentile(99));

  json.add("hotspot", "peak_active_servers", metrics.max_active_servers());
  json.add("hotspot", "splits", static_cast<double>(totals.splits));
  json.add("hotspot", "reclaims", static_cast<double>(totals.reclaims));
  json.add("hotspot", "peak_queue", metrics.max_queue(), "msgs");
  json.add("hotspot", "self_p50_ms", latency.self_ms.median(), "ms");
  json.add("hotspot", "self_p99_ms", latency.self_ms.percentile(99), "ms");
  add_registry(json, "hotspot", deployment);

  // CSV artifacts for plotting.
  std::vector<const TimeSeries*> client_series, queue_series;
  for (const auto& s : metrics.clients_per_server()) client_series.push_back(&s);
  for (const auto& s : metrics.queue_per_server()) queue_series.push_back(&s);
  client_series.push_back(&metrics.active_servers());
  // Drop plottable artifacts next to the working directory (results/ when
  // run from the repository root, else alongside the binary).
  const bool wrote =
      write_timeseries_csv("results/fig2a_clients.csv", client_series,
                           scenario.duration().sec()) &&
      write_timeseries_csv("results/fig2b_queues.csv", queue_series,
                           scenario.duration().sec());
  if (wrote) {
    std::printf("  wrote results/fig2a_clients.csv, results/fig2b_queues.csv\n");
  } else if (write_timeseries_csv("fig2a_clients.csv", client_series,
                                  scenario.duration().sec()) &&
             write_timeseries_csv("fig2b_queues.csv", queue_series,
                                  scenario.duration().sec())) {
    std::printf("  wrote fig2a_clients.csv, fig2b_queues.csv\n");
  }
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  matrix::bench::JsonReport json("fig2_hotspot");
  matrix::bench::run(json);
  return json.write(matrix::bench::json_report_path(argc, argv)) ? 0 : 1;
}
