// T-micro-bw (§4.2 ¶2): inter-Matrix-server traffic tracks overlap size.
//
// "...the amount of traffic sent between Matrix servers corresponded
//  directly to the size of the overlap regions."
//
// We fix a 4-server static grid and a uniform wandering population, then
// sweep the radius of visibility R.  Larger R ⇒ larger overlap regions ⇒
// more of the population's events fall into non-empty consistency sets ⇒
// proportionally more matrix↔matrix bytes.  The expected fraction of
// events forwarded equals the population-weighted overlap area fraction,
// which the table shows side by side with the measured traffic.
#include "bench_common.h"
#include "core/overlap.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

void run(JsonReport& json) {
  header("T-micro-bw", "matrix<->matrix traffic vs overlap-region size (sweep R)");

  std::printf("\n%8s %18s %16s %18s %20s\n", "R", "overlap area frac",
              "mm bytes", "mm bytes/action", "fwd per action");
  for (double radius : {15.0, 30.0, 60.0, 120.0, 240.0}) {
    auto options = paper_options();
    options.config.allow_split = false;
    options.config.allow_reclaim = false;
    options.initial_servers = 4;
    options.pool_size = 0;
    options.spec.visibility_radius = radius;
    options.config.visibility_radius = radius;
    options.seed = 31 + static_cast<std::uint64_t>(radius);

    Deployment deployment(options);
    ScenarioSpec().background(100_ms, 200).schedule(deployment);
    deployment.run_until(40_sec);

    // Mean overlap area fraction over the four partitions.
    double fraction = 0.0;
    const auto& map = deployment.coordinator().partition_map();
    for (const auto& entry : map.entries()) {
      fraction += overlap_area_fraction(
          build_overlap_regions(map, entry.server, radius,
                                options.config.metric),
          entry.range);
    }
    fraction /= static_cast<double>(map.size());

    const TrafficBreakdown traffic = collect_traffic(deployment);
    std::uint64_t actions = 0, fanned = 0;
    for (const GameServer* game : deployment.game_servers()) {
      actions += game->stats().actions;
    }
    for (const MatrixServer* server : deployment.matrix_servers()) {
      fanned += server->stats().packets_fanned_out;
    }
    const double bytes_per_action =
        actions ? static_cast<double>(traffic.matrix_to_matrix) /
                      static_cast<double>(actions)
                : 0.0;
    const double fwd_per_action =
        actions ? static_cast<double>(fanned) / static_cast<double>(actions)
                : 0.0;
    std::printf("%8.0f %18.3f %16llu %18.1f %20.3f\n", radius, fraction,
                static_cast<unsigned long long>(traffic.matrix_to_matrix),
                bytes_per_action, fwd_per_action);
    const std::string run_name = "r" + std::to_string(static_cast<int>(radius));
    json.add(run_name, "overlap_area_fraction", fraction);
    json.add(run_name, "mm_bytes",
             static_cast<double>(traffic.matrix_to_matrix), "bytes");
    json.add(run_name, "mm_bytes_per_action", bytes_per_action, "bytes");
    json.add(run_name, "forwards_per_action", fwd_per_action);
  }
  std::printf(
      "\nReading: bytes per action rises with the overlap area fraction —\n"
      "the uniform population's chance of standing in an overlap region.\n"
      "(It exceeds strict proportionality at large R because points deep in\n"
      "an overlap region have multi-peer consistency sets: one action then\n"
      "fans out to 2-3 servers.)\n");
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  matrix::bench::JsonReport json("micro_bandwidth");
  matrix::bench::run(json);
  return json.write(matrix::bench::json_report_path(argc, argv)) ? 0 : 1;
}
