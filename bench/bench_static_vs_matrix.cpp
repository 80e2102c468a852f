// T-games (§4.2 ¶1): Matrix vs static partitioning across the three games.
//
// "For these three games, we showed that Matrix is able to outperform
//  static partitioning schemes when unexpected loads or hotspots occur.
//  In particular, Matrix is able to automatically use extra servers to
//  handle the load while the static partitioning schemes just fail."
//
// Per game (BzFlag-like, Quake2-like, Daimonin-like) we run the same
// hotspot workload against: static 2-server, static 4-server, and Matrix
// (1 initial + spares).  "Failure" shows up as a diverging receive queue
// and collapsing response latency on the hotspot server; Matrix sheds the
// load onto extra servers instead.  Hotspot sizes are scaled per game so
// the offered load clearly exceeds one server's capacity, mirroring the
// paper's "loads far higher than a static partitioning could handle".
#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

struct RunResult {
  std::size_t servers_used = 0;
  double end_queue = 0.0;
  double peak_queue = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double over_budget = 0.0;  // fraction of actions > 150 ms
  std::uint64_t splits = 0;
};

RunResult run_one(const GameModelSpec& spec, std::size_t hotspot_bots,
                  bool adaptive, std::size_t static_servers) {
  auto options = paper_options();
  options.spec = spec;
  options.config.visibility_radius = spec.visibility_radius;
  if (adaptive) {
    options.initial_servers = 1;
    options.pool_size = 11;
  } else {
    options.config.allow_split = false;
    options.config.allow_reclaim = false;
    options.initial_servers = static_servers;
    options.pool_size = 0;
  }

  Deployment deployment(options);
  MetricsSampler metrics(deployment, 1_sec);
  ScenarioSpec()
      .background(100_ms, 60)
      .flash(5_sec, hotspot_bots, {350, 350}, 120.0)
      .schedule(deployment);
  deployment.run_until(75_sec);

  RunResult result;
  result.servers_used = static_cast<std::size_t>(metrics.max_active_servers());
  result.peak_queue = metrics.max_queue();
  for (const auto& series : metrics.queue_per_server()) {
    result.end_queue = std::max(result.end_queue, series.value_at(74.0));
  }
  const LatencySummary latency = collect_latency(deployment);
  result.p50_ms = latency.self_ms.median();
  result.p99_ms = latency.self_ms.percentile(99);
  result.over_budget = latency.self_ms.fraction_above(150.0);
  result.splits = topology_totals(deployment).splits;
  return result;
}

void report(JsonReport& json, const std::string& run, const RunResult& r) {
  json.add(run, "servers_used", static_cast<double>(r.servers_used));
  json.add(run, "peak_queue", r.peak_queue, "msgs");
  json.add(run, "end_queue", r.end_queue, "msgs");
  json.add(run, "self_p50_ms", r.p50_ms, "ms");
  json.add(run, "self_p99_ms", r.p99_ms, "ms");
  json.add(run, "over_budget_fraction", r.over_budget);
  json.add(run, "splits", static_cast<double>(r.splits));
}

void run_game(JsonReport& json, const GameModelSpec& spec,
              std::size_t hotspot_bots) {
  std::printf("\n--- %s: %zu-client hotspot (rate %.0f Hz, R=%.0f) ---\n",
              spec.name.c_str(), hotspot_bots,
              1000.0 / spec.action_interval.ms(), spec.visibility_radius);
  std::printf("%-12s %8s %10s %10s %9s %9s %10s %7s\n", "scheme", "servers",
              "peakQ", "endQ", "p50(ms)", "p99(ms)", ">150ms(%)", "splits");
  struct Row {
    const char* label;
    RunResult r;
  };
  const Row rows[] = {
      {"static-2", run_one(spec, hotspot_bots, false, 2)},
      {"static-4", run_one(spec, hotspot_bots, false, 4)},
      {"matrix", run_one(spec, hotspot_bots, true, 0)},
  };
  for (const Row& row : rows) {
    std::printf("%-12s %8zu %10.0f %10.0f %9.1f %9.1f %10.2f %7llu\n",
                row.label, row.r.servers_used, row.r.peak_queue,
                row.r.end_queue, row.r.p50_ms, row.r.p99_ms,
                100.0 * row.r.over_budget,
                static_cast<unsigned long long>(row.r.splits));
    report(json, spec.name + "/" + row.label, row.r);
  }
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  using namespace matrix;
  using namespace matrix::bench;
  header("T-games", "Matrix vs static partitioning under hotspots (3 games)");
  JsonReport json("static_vs_matrix");
  // Hotspot sizes chosen so the offered message rate clearly exceeds one
  // server's ~5k msg/s capacity: clients × rate ≳ 1.2× capacity.
  run_game(json, bzflag_like(), 600);    // 600 × 10 Hz = 6k msg/s
  run_game(json, quake_like(), 400);     // 400 × 20 Hz = 8k msg/s
  run_game(json, daimonin_like(), 1500); // 1500 × 4 Hz = 6k msg/s
  std::printf(
      "\nReading: static schemes pin the hotspot to one server — its queue\n"
      "diverges (endQ) and latency collapses; Matrix recruits servers\n"
      "(splits column) and ends with drained queues and playable latency.\n");
  return json.write(json_report_path(argc, argv)) ? 0 : 1;
}
