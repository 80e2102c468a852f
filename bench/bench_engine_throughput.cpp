// Engine hot-path throughput: events/sec and messages/sec on macro workloads.
//
// The simulation engine is the instrument every other bench measures with —
// its constant factors bound the scenarios the reproduction can afford.  The
// hot-path overhaul (allocation-free event scheduling, pooled message
// buffers, dense-id routing) is judged here on two macro workloads:
//
//   fig2_macro : the paper's Fig. 2 hotspot timeline (300 s, ~700 peak
//                clients, ~9.4M messages) — the message-heavy macro workload
//                every figure regenerates from.  The pre-overhaul engine ran
//                this at ~0.50M events/s; the acceptance bar is ≥3×.
//   mega_surge : MegaSurgeScenario — ≥10k concurrent clients across a 36-root
//                grid, the scale the old engine could not reach in a usable
//                wall-time budget.
//   giga_shards_K : GigaSurgeScenario (≥100k offered clients, 64 roots) on
//                the sharded conservative engine at K ∈ {1, 2, 4} — the
//                shard-scaling curve.  K=1 is the serial engine; speedup at
//                K>1 requires free cores (a single-core runner reports the
//                synchronization overhead honestly instead).
//
// A second hold model replays the pending-event mix of the 100k-client
// workload at its peak depth, as the engine schedules it: typed records.
//
// Alongside throughput it reports the engine counters (events processed,
// peak event-heap depth, payload-buffer reuse rate) and the memory gauges
// (the engine.mem.* and game.mem.* byte counts of docs/OBSERVABILITY.md,
// plus bytes per offered client on mega_surge and giga_shards_1) so a perf
// or memory regression can be localized from the JSON artifact alone.  CI
// gates on events/sec and giga bytes per client via
// scripts/check_bench_regression.py against
// bench/baselines/engine_baseline.json.
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "game/bot_client.h"
#include "net/envelope_slab.h"
#include "net/event_queue.h"
#include "util/rng.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

// ---- scheduler microbench ---------------------------------------------------
// Steady-state schedule+pop churn on a raw EventQueue at a fixed pending
// depth — the classic calendar-queue "hold model".  Run for both priority
// structures so the ladder's claimed win over the heap is measured, not
// assumed, at every depth the macro workloads visit (fig2 idles near 1k
// pending; giga peaks past 100k).
double scheduler_churn_ops_per_sec(EventQueue::Scheduler scheduler,
                                   std::size_t depth, std::uint64_t ops) {
  EventQueue queue;
  queue.set_scheduler(scheduler);
  Rng rng(0xB16B00B5ULL + depth);
  // Uniform horizons out to 10 sim-seconds: events land across the whole
  // ring, forcing bucket folds and periodic reseeds rather than a hot front.
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule_at(SimTime::from_us(rng.next_in(0, 10'000'000)), [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    queue.step();
    queue.schedule_at(queue.now() + SimTime::from_us(rng.next_in(0, 10'000'000)),
                      [] {});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  // One pop + one push per iteration.
  return 2.0 * static_cast<double>(ops) / wall;
}

void run_scheduler_microbench(JsonReport& json) {
  std::printf("\n[scheduler churn: pop+push ops/sec by pending depth]\n");
  std::printf("  %-12s %14s %14s %9s\n", "depth", "heap", "ladder", "speedup");
  for (const std::size_t depth :
       {std::size_t{1'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
    const std::uint64_t ops = 1'000'000;
    const double heap =
        scheduler_churn_ops_per_sec(EventQueue::Scheduler::kHeap, depth, ops);
    const double ladder =
        scheduler_churn_ops_per_sec(EventQueue::Scheduler::kLadder, depth, ops);
    std::printf("  %-12zu %14.0f %14.0f %8.2fx\n", depth, heap, ladder,
                ladder / heap);
    char run[32];
    std::snprintf(run, sizeof run, "sched_depth_%zuk", depth / 1'000);
    json.add(run, "heap_ops_per_sec", heap, "ops/s");
    json.add(run, "ladder_ops_per_sec", ladder, "ops/s");
    json.add(run, "ladder_speedup", ladder / heap, "x");
  }
}

// ---- realistic hold model ---------------------------------------------------
// The churn above holds empty closures with horizons uniform over 10 s.  The
// engine's real pending set at the 100k-client workload's peak (~111k events
// per shard at K=2) is 55% message deliveries, each carrying a 56-B
// Envelope, and 45% node timers, landing ~50 ms out.  This model holds that
// mix at that depth as the engine schedules it: 16-B typed records inside
// the 32-B scheduler entries, envelopes parked in an EnvelopeSlab.
constexpr std::size_t kGigaMixDepth = 111'000;
volatile std::uint64_t g_hold_checksum = 0;

struct HoldSink final : EventQueue::Target {
  EnvelopeSlab inflight;
  std::uint64_t sum = 0;
  void run_delivery(std::uint32_t envelope) override {
    sum += inflight.take(envelope).src.value();
  }
  void run_service(NodeId, std::uint64_t) override {}
  void run_timer(NodeId node, std::uint8_t, std::uint64_t epoch) override {
    sum += node.value() ^ epoch;
  }
};

double giga_mix_ns_per_op(std::uint64_t ops) {
  EventQueue queue;
  HoldSink sink;
  queue.set_target(&sink);
  Rng rng(0x61A7ULL);
  auto schedule_one = [&] {
    const SimTime when =
        queue.now() + SimTime::from_us(rng.next_in(25'000, 75'000));
    const NodeId node(1 + rng.next_below(100'000));
    if (rng.next_below(100) < 55) {
      Envelope env;
      env.src = node;
      env.dst = node;
      env.sent_at = queue.now();
      queue.schedule_record(
          when, EventQueue::Record::delivery(
                    node, sink.inflight.park(std::move(env))));
    } else {
      queue.schedule_record(
          when, EventQueue::Record::timer_tick(node, 0, rng.next_below(4)));
    }
  };
  for (std::size_t i = 0; i < kGigaMixDepth; ++i) schedule_one();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    queue.step();
    schedule_one();
  }
  const auto t1 = std::chrono::steady_clock::now();
  g_hold_checksum = sink.sum;  // keeps the handlers observable
  // One pop + one push per iteration.
  return std::chrono::duration<double>(t1 - t0).count() * 1e9 /
         (2.0 * static_cast<double>(ops));
}

void run_giga_mix_microbench(JsonReport& json) {
  const std::uint64_t ops = 2'000'000;
  const double typed = giga_mix_ns_per_op(ops);
  std::printf("\n[giga event mix at %zu pending: ns per pop or push]\n",
              kGigaMixDepth);
  std::printf("  %-26s %12.1f\n", "typed records", typed);
  json.add("sched_giga_mix", "typed_ns_per_op", typed, "ns");
}

/// The giga crowd with every hotspot confined to the TOP HALF of the world.
/// The deployment's shard plan hands each shard a contiguous slab of the
/// row-major root grid — i.e. a horizontal band of the world — so a top-half
/// crowd loads the first bands' shards while the bottom bands see only
/// background bots.  This is the workload the static grid-locality plan
/// cannot fix, so it measures how much a skewed load costs the sharded run.
void schedule_skewed_giga_scenario(Deployment& deployment,
                                   const GigaSurgeScenarioOptions& options) {
  ScenarioSpec spec;
  spec.background(SimTime::from_ms(100), options.background_bots);
  const Rect& world = deployment.options().config.world;
  const double cell_w =
      (world.x1() - world.x0()) / static_cast<double>(options.hotspots_x);
  const double cell_h = (world.y1() - world.y0()) / 2.0 /
                        static_cast<double>(options.hotspots_y);
  for (std::size_t ix = 0; ix < options.hotspots_x; ++ix) {
    for (std::size_t iy = 0; iy < options.hotspots_y; ++iy) {
      const Vec2 center{world.x0() + (static_cast<double>(ix) + 0.5) * cell_w,
                        world.y0() + (static_cast<double>(iy) + 0.5) * cell_h};
      spec.ramp(options.flash_at, options.bots_per_hotspot, options.join_batch,
                options.join_interval, center, options.spread);
    }
  }
  spec.schedule(deployment);
}

/// Busiest-shard events over the per-shard mean — 1.0 is a perfectly level
/// engine; the gap above 1.0 is wall-time the busiest core spends while the
/// others wait at the barrier.
double balance_ratio(const Network::EngineStats& engine) {
  if (engine.shard_events.size() < 2) return 1.0;
  std::uint64_t busiest = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t events : engine.shard_events) {
    busiest = std::max(busiest, events);
    total += events;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(engine.shard_events.size());
  return mean > 0.0 ? static_cast<double>(busiest) / mean : 1.0;
}

/// Where a threaded sharded run's barrier time went: the stall (dispatch
/// wall × K − Σ active), its imbalance part, and the handoff left over,
/// per window.
void report_barrier(JsonReport& json, const char* run,
                    const Network::EngineStats& engine) {
  const std::uint64_t handoff =
      engine.window_stall_us - engine.window_imbalance_us;
  const double per_window =
      engine.windows > 0 ? static_cast<double>(handoff) /
                               static_cast<double>(engine.windows)
                         : 0.0;
  std::printf("  %-26s %12llu\n", "barrier stall us",
              static_cast<unsigned long long>(engine.window_stall_us));
  std::printf("  %-26s %12llu\n", "  of which imbalance us",
              static_cast<unsigned long long>(engine.window_imbalance_us));
  std::printf("  %-26s %12.1f\n", "  handoff us per window", per_window);
  json.add(run, "window_stall_us", static_cast<double>(engine.window_stall_us),
           "us");
  json.add(run, "window_imbalance_us",
           static_cast<double>(engine.window_imbalance_us), "us");
  json.add(run, "handoff_us_per_window", per_window, "us");
}

DeploymentOptions fig2_options() {
  DeploymentOptions options = paper_options();
  options.seed = 2005;
  return options;
}

DeploymentOptions mega_options() {
  // Shared with tests/mega_surge_test.cpp — see mega_surge_deployment_options.
  return mega_surge_deployment_options();
}

struct RunResult {
  double wall_sec = 0.0;
  double sim_sec = 0.0;
  std::uint64_t messages = 0;
  std::size_t peak_clients = 0;
  Network::EngineStats engine;
  GameMemory game_memory;
};

template <typename Schedule>
RunResult run_workload(DeploymentOptions options, SimTime duration,
                       Schedule&& schedule) {
  Deployment deployment(std::move(options));
  schedule(deployment);
  const auto t0 = std::chrono::steady_clock::now();
  deployment.run_until(duration);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult result;
  result.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  result.sim_sec = duration.sec();
  result.messages = deployment.network().total_messages();
  result.peak_clients = deployment.total_clients();
  result.engine = deployment.network().engine_stats();
  result.game_memory = collect_game_memory(deployment);
  return result;
}

void report(JsonReport& json, const char* run, const RunResult& r) {
  const double events_per_sec =
      static_cast<double>(r.engine.events_processed) / r.wall_sec;
  const double messages_per_sec =
      static_cast<double>(r.messages) / r.wall_sec;
  const double reuse = r.engine.buffers_acquired > 0
                           ? static_cast<double>(r.engine.buffers_reused) /
                                 static_cast<double>(r.engine.buffers_acquired)
                           : 0.0;
  std::printf("\n[%s]\n", run);
  std::printf("  %-26s %12.3f\n", "wall seconds", r.wall_sec);
  std::printf("  %-26s %12.1f\n", "sim seconds", r.sim_sec);
  std::printf("  %-26s %12llu\n", "events processed",
              static_cast<unsigned long long>(r.engine.events_processed));
  std::printf("  %-26s %12llu\n", "messages",
              static_cast<unsigned long long>(r.messages));
  std::printf("  %-26s %12.0f\n", "events/sec", events_per_sec);
  std::printf("  %-26s %12.0f\n", "messages/sec", messages_per_sec);
  std::printf("  %-26s %12zu\n", "peak event-heap depth",
              r.engine.event_peak_pending);
  std::printf("  %-26s %11.1f%%\n", "payload-buffer reuse",
              100.0 * reuse);
  std::printf("  %-26s %12zu\n", "final clients", r.peak_clients);

  json.add(run, "events_per_sec", events_per_sec, "events/s");
  json.add(run, "messages_per_sec", messages_per_sec, "msgs/s");
  json.add(run, "events_processed",
           static_cast<double>(r.engine.events_processed), "events");
  json.add(run, "messages", static_cast<double>(r.messages), "msgs");
  json.add(run, "peak_event_heap", static_cast<double>(r.engine.event_peak_pending),
           "events");
  json.add(run, "buffer_reuse_fraction", reuse, "");
  json.add(run, "wall_seconds", r.wall_sec, "s");

  const std::pair<const char*, std::size_t> memory[] = {
      {"node_table_bytes", r.engine.node_table_bytes},
      {"link_table_bytes", r.engine.link_table_bytes},
      {"receive_slab_bytes", r.engine.receive_slab_bytes},
      {"inflight_envelope_bytes", r.engine.inflight_envelope_bytes},
      {"event_slab_bytes", r.engine.event_slab_bytes},
      {"sched_tier_bytes", r.engine.sched_tier_bytes},
      {"buffer_pool_idle_bytes", r.engine.buffer_pool_idle_bytes},
      {"payload_inflight_bytes", r.engine.payload_inflight_bytes},
      {"bot_bytes", r.game_memory.bot_bytes},
      {"session_bytes", r.game_memory.session_bytes},
      {"ghost_bytes", r.game_memory.ghost_bytes},
      {"grid_bytes", r.game_memory.grid_bytes},
  };
  for (const auto& [name, bytes] : memory) {
    std::printf("  %-26s %12zu\n", name, bytes);
    json.add(run, name, static_cast<double>(bytes), "bytes");
  }
}

/// Deterministic per-client footprint: the engine's structural bytes plus
/// game.mem.bot_bytes (bot objects, the heap they own, the deployment's bot
/// tables), over the clients the scenario offered.
void report_bytes_per_client(JsonReport& json, const char* run,
                             const RunResult& r, std::size_t offered) {
  const double bytes =
      static_cast<double>(r.engine.node_table_bytes +
                          r.engine.link_table_bytes +
                          r.engine.receive_slab_bytes +
                          r.game_memory.bot_bytes) /
      static_cast<double>(offered);
  std::printf("  %-26s %12.0f (BotClient %zu B)\n", "bytes per offered client",
              bytes, sizeof(BotClient));
  json.add(run, "per_client_bytes", bytes, "bytes");
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  using namespace matrix;
  using namespace matrix::bench;
  using namespace matrix::time_literals;

  header("bench_engine_throughput",
         "engine hot-path throughput on macro workloads");
  JsonReport json("engine_throughput");

  run_scheduler_microbench(json);
  run_giga_mix_microbench(json);

  {
    HotspotScenarioOptions scenario;  // the paper's Fig. 2 timeline
    auto r = run_workload(fig2_options(), scenario.duration,
                          [&](Deployment& d) {
                            schedule_hotspot_scenario(d, scenario);
                          });
    report(json, "fig2_macro", r);
  }
  {
    MegaSurgeScenarioOptions scenario;  // ≥10k concurrent clients
    auto r = run_workload(mega_options(), scenario.duration,
                          [&](Deployment& d) {
                            schedule_mega_surge_scenario(d, scenario);
                          });
    report(json, "mega_surge", r);
    const std::size_t offered = mega_surge_offered_clients(scenario);
    std::printf("  offered clients            %12zu (>= 10k scale)\n", offered);
    report_bytes_per_client(json, "mega_surge", r, offered);
  }
  {
    // Shard-scaling curve on the 100k-client workload (trimmed to a 3 s sim
    // so three engine configurations fit one bench run).  Wall-clock speedup
    // needs as many free cores as shards; the per-shard hash chains pin the
    // K>1 runs as deterministic regardless (tests/shard_engine_test.cpp).
    GigaSurgeScenarioOptions scenario;
    scenario.duration = 3_sec;
    std::printf("\n[giga shard scaling: %zu offered clients]\n",
                giga_surge_offered_clients(scenario));
    double base_events_per_sec = 0.0;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      auto r = run_workload(giga_surge_deployment_options(shards),
                            scenario.duration, [&](Deployment& d) {
                              schedule_giga_surge_scenario(d, scenario);
                            });
      char run[32];
      std::snprintf(run, sizeof run, "giga_shards_%zu", shards);
      report(json, run, r);
      const double events_per_sec =
          static_cast<double>(r.engine.events_processed) / r.wall_sec;
      if (shards == 1) {
        base_events_per_sec = events_per_sec;
        report_bytes_per_client(json, run, r,
                                giga_surge_offered_clients(scenario));
      } else if (base_events_per_sec > 0.0) {
        const double speedup = events_per_sec / base_events_per_sec;
        std::printf("  %-26s %12.2fx vs serial\n", "shard speedup", speedup);
        json.add(run, "speedup_vs_serial", speedup, "x");
      }
      std::printf("  %-26s %12llu\n", "cross-shard messages",
                  static_cast<unsigned long long>(
                      r.engine.cross_shard_messages));
      std::printf("  %-26s %12llu\n", "barrier windows",
                  static_cast<unsigned long long>(r.engine.windows));
      json.add(run, "cross_shard_messages",
               static_cast<double>(r.engine.cross_shard_messages), "msgs");
      json.add(run, "windows", static_cast<double>(r.engine.windows),
               "windows");
      if (shards > 1) {
        const double balance = balance_ratio(r.engine);
        std::printf("  %-26s %12.3fx busiest/mean\n", "shard balance",
                    balance);
        json.add(run, "balance_ratio", balance, "x");
        report_barrier(json, run, r.engine);
      }
    }
    // The SKEWED giga crowd (all hotspots in the top half of the world):
    // the imbalance the static grid plan cannot fix; the uniform curve
    // above already sits near 1.0 busiest/mean.  The busiest/mean ratio is
    // wall time the busiest core spends grinding while the other workers
    // wait at the barrier.
    {
      auto r = run_workload(giga_surge_deployment_options(4),
                            scenario.duration, [&](Deployment& d) {
                              schedule_skewed_giga_scenario(d, scenario);
                            });
      report(json, "giga_skew_4", r);
      const double balance = balance_ratio(r.engine);
      std::printf("  %-26s %12.3fx busiest/mean\n", "shard balance", balance);
      json.add("giga_skew_4", "balance_ratio", balance, "x");
      report_barrier(json, "giga_skew_4", r.engine);
    }
  }

  return json.write(json_report_path(argc, argv)) ? 0 : 1;
}
