// T-replica (paper §5): Matrix vs the commercial replicated-static model.
//
// "To handle hotspots, they allocate multiple tightly-coupled (completely
//  consistent) servers to handle the same partition, an approach that is
//  neither efficient nor very scalable.  Instead, Matrix techniques can be
//  used by these systems..."
//
// Same population, same game, comparable server counts: a replicated
// deployment (K=2 partitions × M replicas) vs Matrix growing on demand.
// The replicated scheme pays O(M) router fan-out for EVERY event; Matrix
// pays only for overlap-region events.  We report routing bytes per
// client action — the efficiency gap the paper asserts.
#include <set>

#include "baseline/replicated_static.h"
#include "bench_common.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

std::uint64_t total_actions_rep(const ReplicatedDeployment& deployment) {
  std::uint64_t actions = 0;
  for (const GameServer* game : deployment.game_servers()) {
    actions += game->stats().actions;
  }
  return actions;
}

void run(JsonReport& json) {
  header("T-replica", "routing cost: Matrix vs tightly-coupled replicas (§5)");

  const std::size_t population = 300;
  std::printf("\n%-18s %8s %14s %18s %18s\n", "scheme", "servers",
              "actions", "routing bytes", "bytes/action");

  // Replicated static at M = 1, 2, 4.
  for (std::size_t m : {1u, 2u, 4u}) {
    ReplicatedDeployment::Options options;
    options.config.world = Rect(0, 0, 1000, 1000);
    options.spec = bzflag_like();
    options.config.visibility_radius = options.spec.visibility_radius;
    options.partitions = 2;
    options.replicas = m;
    options.seed = 99;
    ReplicatedDeployment deployment(options);
    Rng rng(7);
    for (std::size_t i = 0; i < population; ++i) {
      deployment.add_bot({rng.next_double_in(0, 1000),
                          rng.next_double_in(0, 1000)});
    }
    deployment.run_until(40_sec);
    const std::uint64_t actions = total_actions_rep(deployment);
    const std::uint64_t bytes = deployment.routing_bytes();
    const double per_action =
        actions ? static_cast<double>(bytes) / static_cast<double>(actions)
                : 0.0;
    std::printf("%-18s %8zu %14llu %18llu %18.1f\n",
                ("replicated 2x" + std::to_string(m)).c_str(), 2 * m,
                static_cast<unsigned long long>(actions),
                static_cast<unsigned long long>(bytes), per_action);
    json.add("replicated_2x" + std::to_string(m), "routing_bytes_per_action",
             per_action, "bytes");
    json.add("replicated_2x" + std::to_string(m), "servers",
             static_cast<double>(2 * m));
  }

  // Matrix with the same population (uniform load → few servers needed).
  {
    auto options = paper_options();
    Deployment deployment(options);
    ScenarioSpec().background(100_ms, population).schedule(deployment);
    deployment.run_until(40_sec);
    std::uint64_t actions = 0;
    for (const GameServer* game : deployment.game_servers()) {
      actions += game->stats().actions;
    }
    // Same accounting as ReplicatedDeployment::routing_bytes: bytes
    // LEAVING routers toward game servers or other routers.
    std::set<NodeId> matrix_nodes, game_nodes;
    for (const MatrixServer* server : deployment.matrix_servers()) {
      matrix_nodes.insert(server->node_id());
    }
    for (const GameServer* game : deployment.game_servers()) {
      game_nodes.insert(game->node_id());
    }
    const std::uint64_t bytes =
        deployment.network().bytes_matching([&](NodeId src, NodeId dst) {
          return matrix_nodes.count(src) != 0 &&
                 (matrix_nodes.count(dst) != 0 || game_nodes.count(dst) != 0);
        });
    const double per_action =
        actions ? static_cast<double>(bytes) / static_cast<double>(actions)
                : 0.0;
    std::printf("%-18s %8zu %14llu %18llu %18.1f\n", "matrix",
                deployment.active_server_count(),
                static_cast<unsigned long long>(actions),
                static_cast<unsigned long long>(bytes), per_action);
    json.add("matrix", "routing_bytes_per_action", per_action, "bytes");
    json.add("matrix", "servers",
             static_cast<double>(deployment.active_server_count()));
  }

  std::printf(
      "\nReading: replicated-static routing cost grows linearly with the\n"
      "replica count M (every event reaches every replica); Matrix's cost\n"
      "is set by overlap geometry alone and stays flat as servers are\n"
      "added — the efficiency argument of the paper's related-work §5.\n");
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  matrix::bench::JsonReport json("replication");
  matrix::bench::run(json);
  return json.write(matrix::bench::json_report_path(argc, argv)) ? 0 : 1;
}
