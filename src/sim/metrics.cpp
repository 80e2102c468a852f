#include "sim/metrics.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace matrix {

MetricsSampler::MetricsSampler(Deployment& deployment, SimTime interval)
    : deployment_(deployment), interval_(interval) {
  const std::size_t n = deployment_.game_servers().size();
  clients_.reserve(n);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::ostringstream cname, qname;
    cname << "server" << (i + 1) << "_clients";
    qname << "server" << (i + 1) << "_queue";
    clients_.emplace_back(cname.str());
    queues_.emplace_back(qname.str());
  }
  schedule();
}

void MetricsSampler::schedule() {
  deployment_.network().events().schedule_after(interval_, [this] {
    if (!running_) return;
    sample();
    schedule();
  });
}

void MetricsSampler::sample() {
  const double t = deployment_.network().now().sec();
  const auto& games = deployment_.game_servers();
  for (std::size_t i = 0; i < games.size(); ++i) {
    const bool active = deployment_.server_is_active(i);
    clients_[i].record(t, active ? static_cast<double>(games[i]->client_count())
                                 : 0.0);
    queues_[i].record(
        t, active ? static_cast<double>(
                        deployment_.network().queue_length(games[i]->node_id()))
                  : 0.0);
  }
  active_.record(t, static_cast<double>(deployment_.active_server_count()));
  total_.record(t, static_cast<double>(deployment_.total_clients()));
  pool_idle_.record(t, static_cast<double>(deployment_.pool().idle_count()));
}

double MetricsSampler::max_queue() const {
  double v = 0.0;
  for (const auto& series : queues_) v = std::max(v, series.max_value());
  return v;
}

double MetricsSampler::max_active_servers() const {
  return active_.max_value();
}

LatencySummary collect_latency(const Deployment& deployment) {
  LatencySummary summary;
  // Exact-size the merged histograms first: at 100k bots, doubling growth
  // would briefly hold both the old and new buffers at run end.
  std::size_t self = 0, observer = 0, switches = 0;
  for (const BotClient* bot : deployment.bots()) {
    const auto& m = bot->metrics();
    self += m.self_latency_ms.count();
    observer += m.observer_latency_ms.count();
    switches += m.switch_latency_ms.count();
  }
  summary.self_ms.reserve(self);
  summary.observer_ms.reserve(observer);
  summary.switch_ms.reserve(switches);
  for (const BotClient* bot : deployment.bots()) {
    const auto& m = bot->metrics();
    summary.actions += m.actions_sent;
    summary.switches += m.switches;
    summary.self_ms.merge(m.self_latency_ms);
    summary.observer_ms.merge(m.observer_latency_ms);
    summary.switch_ms.merge(m.switch_latency_ms);
  }
  return summary;
}

GameMemory collect_game_memory(const Deployment& deployment) {
  GameMemory memory;
  memory.bot_bytes = deployment.bot_table_bytes();
  for (const BotClient* bot : deployment.bots()) {
    memory.bot_bytes += sizeof(BotClient) + bot->heap_bytes();
  }
  for (const GameServer* game : deployment.game_servers()) {
    const GameServer::MemoryBytes bytes = game->memory_bytes();
    memory.session_bytes += bytes.sessions;
    memory.ghost_bytes += bytes.ghosts;
    memory.grid_bytes += bytes.grid;
  }
  return memory;
}

TrafficBreakdown collect_traffic(Deployment& deployment) {
  TrafficBreakdown breakdown;
  std::set<NodeId> game_nodes, matrix_nodes, client_nodes;
  for (const GameServer* g : deployment.game_servers()) {
    game_nodes.insert(g->node_id());
  }
  for (const MatrixServer* m : deployment.matrix_servers()) {
    matrix_nodes.insert(m->node_id());
  }
  for (const BotClient* b : deployment.bots()) {
    client_nodes.insert(b->node_id());
  }
  const NodeId mc = deployment.coordinator().node_id();

  Network& net = deployment.network();
  breakdown.client_to_server = net.bytes_matching([&](NodeId a, NodeId b) {
    return (client_nodes.count(a) && game_nodes.count(b)) ||
           (game_nodes.count(a) && client_nodes.count(b));
  });
  breakdown.game_to_matrix = net.bytes_matching([&](NodeId a, NodeId b) {
    return (game_nodes.count(a) && matrix_nodes.count(b)) ||
           (matrix_nodes.count(a) && game_nodes.count(b));
  });
  breakdown.matrix_to_matrix = net.bytes_matching([&](NodeId a, NodeId b) {
    return matrix_nodes.count(a) && matrix_nodes.count(b);
  });
  breakdown.matrix_to_mc = net.bytes_matching([&](NodeId a, NodeId b) {
    return (matrix_nodes.count(a) && b == mc) ||
           (a == mc && matrix_nodes.count(b));
  });
  breakdown.total = net.total_bytes();
  return breakdown;
}

AdmissionSummary collect_admission(const Deployment& deployment) {
  AdmissionSummary summary;
  for (const GameServer* game : deployment.game_servers()) {
    summary.joins_denied += game->stats().joins_denied;
    summary.joins_deferred += game->stats().joins_deferred;
    summary.resumes_admitted += game->stats().resumes_admitted;
    const SurgeQueue::Stats& queue = game->surge_queue().stats();
    summary.joins_queued += queue.enqueued;
    summary.queue_admitted += queue.admitted;
    summary.queue_overflow += queue.overflow;
    summary.queue_flushed += queue.flushed;
    summary.queue_handed_off += queue.handed_off;
    summary.queue_adopted += queue.adopted;
    summary.queue_vip_capped += queue.vip_capped;
    summary.max_queue_depth = std::max(summary.max_queue_depth,
                                       queue.max_depth);
    for (std::size_t cls = 0; cls < 3; ++cls) {
      summary.queue_admitted_by_class[cls] += queue.admitted_by_class[cls];
      summary.queue_wait_us_by_class[cls] += queue.wait_us_sum_by_class[cls];
    }
  }
  for (const BotClient* bot : deployment.bots()) {
    summary.bots_denied += bot->metrics().joins_denied;
  }
  for (const MatrixServer* server : deployment.matrix_servers()) {
    const AdmissionController& admission = server->admission();
    summary.escalations += admission.stats().escalations;
    summary.relaxations += admission.stats().relaxations;
    summary.directives_applied += server->stats().directives_applied;
    // Lifetime tallies: transitions() is cleared when a pooled server is
    // re-adopted, so count from the stats and use the reset-proof
    // validity check rather than only the current timeline.
    summary.transitions +=
        admission.stats().escalations + admission.stats().relaxations;
    if (!admission.lifetime_timeline_valid()) {
      summary.timelines_valid = false;
    }
  }
  const Coordinator& mc = deployment.coordinator();
  summary.directives_broadcast = mc.directives_broadcast();
  summary.global_escalations = mc.global_admission().stats().escalations;
  summary.global_relaxations = mc.global_admission().stats().relaxations;
  summary.global_timeline_valid = mc.global_admission().timeline_valid();
  return summary;
}

}  // namespace matrix
