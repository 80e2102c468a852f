// A-split: split-to-left vs load-aware splitting (bench index: README.md).
//
// The paper (§3.2.3) uses "a simple 'split-to-left' splitting technique
// where each map is split into two equal pieces ... though simple, this
// algorithm still provides good performance", and §5 notes smarter
// partitioning algorithms [14,15] could be plugged in.  This ablation
// quantifies the trade on two hotspot shapes:
//
//   * a CENTRAL hotspot, which an equal-halves cut divides quickly
//     (split-to-left's best case, and the paper's Fig. 2 shape);
//   * a CORNER hotspot, where equal halving must recurse all the way down
//     to the crowd's footprint, burning servers on empty partitions —
//     the load-aware median cut divides the crowd on the first split.
#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

struct Result {
  std::size_t peak_servers = 0;
  std::uint64_t splits = 0;
  std::uint64_t denied = 0;
  double peak_queue = 0.0;
  double end_queue = 0.0;
  double p99_ms = 0.0;
};

Result run_one(SplitPolicy policy, Vec2 hotspot, double spread) {
  auto options = paper_options();
  options.config.split_policy = policy;
  options.config.topology_cooldown = 2_sec;
  options.pool_size = 11;
  Deployment deployment(options);
  MetricsSampler metrics(deployment, 1_sec);
  ScenarioSpec()
      .background(100_ms, 60)
      .flash(5_sec, 500, hotspot, spread)
      .schedule(deployment);
  deployment.run_until(80_sec);

  Result result;
  result.peak_servers = static_cast<std::size_t>(metrics.max_active_servers());
  const TopologyTotals totals = topology_totals(deployment);
  result.splits = totals.splits;
  result.denied = totals.denied;
  result.peak_queue = metrics.max_queue();
  for (const auto& series : metrics.queue_per_server()) {
    result.end_queue = std::max(result.end_queue, series.value_at(79.0));
  }
  result.p99_ms = collect_latency(deployment).self_ms.percentile(99);
  return result;
}

void report(JsonReport& json, const std::string& run, const Result& r) {
  json.add(run, "peak_servers", static_cast<double>(r.peak_servers));
  json.add(run, "splits", static_cast<double>(r.splits));
  json.add(run, "splits_denied", static_cast<double>(r.denied));
  json.add(run, "peak_queue", r.peak_queue, "msgs");
  json.add(run, "end_queue", r.end_queue, "msgs");
  json.add(run, "self_p99_ms", r.p99_ms, "ms");
}

void print_rows(const char* shape, const Result& left, const Result& aware) {
  std::printf("\n--- %s ---\n", shape);
  std::printf("%-14s %9s %7s %7s %10s %10s %9s\n", "policy", "servers",
              "splits", "denied", "peakQ", "endQ", "p99(ms)");
  std::printf("%-14s %9zu %7llu %7llu %10.0f %10.0f %9.1f\n", "split-to-left",
              left.peak_servers, static_cast<unsigned long long>(left.splits),
              static_cast<unsigned long long>(left.denied), left.peak_queue,
              left.end_queue, left.p99_ms);
  std::printf("%-14s %9zu %7llu %7llu %10.0f %10.0f %9.1f\n", "load-aware",
              aware.peak_servers,
              static_cast<unsigned long long>(aware.splits),
              static_cast<unsigned long long>(aware.denied), aware.peak_queue,
              aware.end_queue, aware.p99_ms);
}

void run(JsonReport& json) {
  header("A-split", "ablation: split-to-left (paper) vs load-aware median splits");

  const Result central_left = run_one(SplitPolicy::kSplitToLeft, {350, 350}, 120.0);
  const Result central_aware = run_one(SplitPolicy::kLoadAware, {350, 350}, 120.0);
  print_rows("central hotspot (350,350), footprint 120", central_left,
             central_aware);
  report(json, "central/split_to_left", central_left);
  report(json, "central/load_aware", central_aware);

  const Result corner_left = run_one(SplitPolicy::kSplitToLeft, {120, 120}, 60.0);
  const Result corner_aware = run_one(SplitPolicy::kLoadAware, {120, 120}, 60.0);
  print_rows("corner hotspot (120,120), footprint 60", corner_left,
             corner_aware);
  report(json, "corner/split_to_left", corner_left);
  report(json, "corner/load_aware", corner_aware);

  std::printf(
      "\nReading: both policies relieve the hotspot (endQ drains), which is\n"
      "the paper's justification for shipping the simple one.  The median\n"
      "cut reaches relief with about half the splits and half the servers —\n"
      "the resource-efficiency win the paper's refs [14,15] anticipate —\n"
      "while split-to-left burns extra splits recursing toward the crowd\n"
      "(its surplus servers do buy it a somewhat lower peak queue on the\n"
      "tight corner hotspot, at double the hardware).\n");
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  matrix::bench::JsonReport json("ablation_split");
  matrix::bench::run(json);
  return json.write(matrix::bench::json_report_path(argc, argv)) ? 0 : 1;
}
