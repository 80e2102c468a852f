// Run-time metrics collection.
//
// MetricsSampler polls the deployment on a fixed cadence and produces the
// exact series the paper's Figure 2 plots: clients per server over time
// (2a) and receive-queue length per server over time (2b), plus the active
// server count, pool occupancy, and traffic-by-category totals used by the
// other benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/deployment.h"
#include "util/stats.h"

namespace matrix {

class MetricsSampler {
 public:
  /// Starts sampling `deployment` every `interval` until stop() or the
  /// deployment's event queue stops being pumped.
  MetricsSampler(Deployment& deployment, SimTime interval);

  void stop() { running_ = false; }

  /// One clients-per-server series per server slot (index = ServerId - 1).
  [[nodiscard]] const std::vector<TimeSeries>& clients_per_server() const {
    return clients_;
  }
  /// One queue-length series per server slot (game-server receive queue).
  [[nodiscard]] const std::vector<TimeSeries>& queue_per_server() const {
    return queues_;
  }
  [[nodiscard]] const TimeSeries& active_servers() const { return active_; }
  [[nodiscard]] const TimeSeries& total_clients() const { return total_; }
  [[nodiscard]] const TimeSeries& pool_idle() const { return pool_idle_; }

  /// Peak queue length seen on any server.
  [[nodiscard]] double max_queue() const;
  /// Peak simultaneous active servers.
  [[nodiscard]] double max_active_servers() const;

 private:
  void sample();
  void schedule();

  Deployment& deployment_;
  SimTime interval_;
  bool running_ = true;
  std::vector<TimeSeries> clients_;
  std::vector<TimeSeries> queues_;
  TimeSeries active_{"active_servers"};
  TimeSeries total_{"total_clients"};
  TimeSeries pool_idle_{"pool_idle"};
};

/// Aggregates bot-side latency metrics across a deployment, optionally
/// restricted to a time window recorded by the caller.
struct LatencySummary {
  Histogram self_ms;
  Histogram observer_ms;
  Histogram switch_ms;
  std::uint64_t actions = 0;
  std::uint64_t switches = 0;
};

[[nodiscard]] LatencySummary collect_latency(const Deployment& deployment);

/// Allocated bytes of the game-side state that scales with clients (the
/// game.mem.* registry gauges).  Deterministic for a seed and Config.
struct GameMemory {
  /// sizeof(BotClient) plus each bot's heap (spilled ack ring, latency
  /// histogram capacity) plus the deployment's per-bot pointer tables.
  std::size_t bot_bytes = 0;
  std::size_t session_bytes = 0;  ///< game-server session tables
  std::size_t ghost_bytes = 0;    ///< game-server ghost tables
  std::size_t grid_bytes = 0;     ///< update-tick visibility grids
};

[[nodiscard]] GameMemory collect_game_memory(const Deployment& deployment);

/// Traffic split by component category, derived from link stats.
struct TrafficBreakdown {
  std::uint64_t client_to_server = 0;  ///< bot↔game bytes (both directions)
  std::uint64_t game_to_matrix = 0;    ///< co-located forwarding
  std::uint64_t matrix_to_matrix = 0;  ///< peer consistency traffic
  std::uint64_t matrix_to_mc = 0;      ///< control plane (tables, lookups)
  std::uint64_t total = 0;
};

[[nodiscard]] TrafficBreakdown collect_traffic(Deployment& deployment);

/// Deployment-wide admission tallies (src/control/), aggregated from the
/// game servers (enforcement), bots (experience), and Matrix servers
/// (control plane).
struct AdmissionSummary {
  std::uint64_t joins_denied = 0;     ///< JoinDeny sent by game servers
  std::uint64_t joins_deferred = 0;   ///< JoinDefer sent by game servers
  std::uint64_t resumes_admitted = 0; ///< live sessions passed a closed valve
  std::uint64_t bots_denied = 0;      ///< bots that gave up after JoinDeny
  std::uint64_t transitions = 0;      ///< state changes across all servers
  std::uint64_t escalations = 0;
  std::uint64_t relaxations = 0;
  /// True when every Matrix server's recorded timeline satisfies the
  /// dwell/recover hysteresis contract (admission_timeline_valid).
  bool timelines_valid = true;

  // Surge queue ("waiting room", src/control/surge_queue.h), aggregated
  // over every game server's queue:
  std::uint64_t joins_queued = 0;     ///< parked instead of bounced
  std::uint64_t queue_admitted = 0;   ///< drained into live sessions
  std::uint64_t queue_overflow = 0;   ///< refused at queue capacity
  std::uint64_t queue_flushed = 0;    ///< returned to client retry (reclaim)
  std::uint64_t queue_handed_off = 0; ///< extracted for cross-server handoff
  std::uint64_t queue_adopted = 0;    ///< re-parked here from another server
  std::uint64_t queue_vip_capped = 0; ///< drains where the fairness cap bound
  std::uint64_t max_queue_depth = 0;  ///< deepest waiting room seen

  // Coordinator-led global admission (src/control/global_admission.h):
  std::uint64_t directives_broadcast = 0;  ///< sent by the MC
  std::uint64_t directives_applied = 0;    ///< applied by active servers
  std::uint64_t global_escalations = 0;    ///< directive floor escalations
  std::uint64_t global_relaxations = 0;
  /// True when the MC's directive-floor timeline satisfies the same
  /// dwell/recover hysteresis contract as the per-server valves.
  bool global_timeline_valid = true;
  /// Per-class admit counts and wait sums (index = PriorityClass:
  /// 0 RESUME, 1 VIP, 2 NORMAL).
  std::uint64_t queue_admitted_by_class[3] = {0, 0, 0};
  std::uint64_t queue_wait_us_by_class[3] = {0, 0, 0};

  /// Mean queue wait of admitted entries in `cls`, ms; 0 when none.
  [[nodiscard]] double mean_queue_wait_ms(std::size_t cls) const {
    if (cls >= 3 || queue_admitted_by_class[cls] == 0) return 0.0;
    return static_cast<double>(queue_wait_us_by_class[cls]) / 1000.0 /
           static_cast<double>(queue_admitted_by_class[cls]);
  }
};

[[nodiscard]] AdmissionSummary collect_admission(const Deployment& deployment);

}  // namespace matrix
