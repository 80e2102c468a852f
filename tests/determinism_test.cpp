// Golden-trace determinism: the engine's full send trace, hashed and pinned.
//
// Every figure this reproduction regenerates rests on one promise: a seed
// fully determines the run.  The engine hot path (net/event_queue.h,
// net/network.h, the codec fast paths) is exactly where a perf change could
// silently reorder events or alter one wire byte — so these tests hash the
// COMPLETE message trace (time, src, dst, drop flag, every payload byte of
// every send) of three macro scenarios under the classic rules and compare
// against hashes pinned from the pre-overhaul engine (PR 5).  A mismatch
// means behaviour changed, not just speed: find out why before re-pinning.
//
// The deployment/scenario builders here deliberately force
// `policy.kind = kClassic` so the pins also hold under CI's
// MATRIX_LOAD_POLICY=directive test leg (directives change decisions, and
// decisions change traces; the classic rules are the pinned contract).
#include <gtest/gtest.h>

#include "sim/deployment.h"
#include "sim/scenario.h"

namespace matrix {
namespace {

using namespace time_literals;

// Hashes recorded from the pre-overhaul engine (commit fb7862e) running the
// builders below, verified byte-identical across the hot-path rework.
//
// Regeneration recipe (fb7862e predates the trace-hash hook, so it must be
// backported to compare): check out fb7862e, apply to its Network exactly
// the instrumentation this PR added — the `trace_hash_on_`/`trace_hash_`
// members, `enable_trace_hash()`/`trace_hash()` accessors, and the
// `trace_record` function from src/net/network.cpp, called from send() on
// `(now, src, dst, dropped, payload)` after the drop decision (preserving
// the short-circuit rng draw) — then run these scenarios and print the
// hashes.  The hash definition lives ONLY in trace_record; keep it
// byte-for-byte when backporting or the comparison is meaningless.
constexpr std::uint64_t kGoldenOverload = 0x988c8b0b0aecc904ULL;
constexpr std::uint64_t kGoldenContested = 0x538d26615280ed1dULL;
constexpr std::uint64_t kGoldenHotspot = 0xf1fd0ee5b0a7fb6eULL;
// The sharded engine's pin (PR 9): the overload scenario under K=4 shards,
// hashed as the FNV fold of the four per-shard send-trace chains.  A fixed
// K>1 is a different (but equally deterministic) event interleaving than
// serial, so this pins its own constant; K=1 runs reproduce the serial pins
// above byte-for-byte through the same code path.
constexpr std::uint64_t kGoldenShardedOverload = 0x031a0b672af3d3ceULL;
// Shortened runs of the three canned scenarios the pins above do not reach
// (the VIP surge with recovery departures, the multi-partition surge with
// per-center departures, and the grid-of-hotspots mega surge that the giga
// workload shares), recorded before their scripting moved onto ScenarioSpec.
constexpr std::uint64_t kGoldenSurge = 0x19783d2f0ba86036ULL;
constexpr std::uint64_t kGoldenMultiPartition = 0xf4993547bc5f9ab7ULL;
constexpr std::uint64_t kGoldenMegaSurge = 0x815f81a7e8f29350ULL;

DeploymentOptions golden_overload_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 800, 800);
  options.config.overload_clients = 60;
  options.config.underload_clients = 30;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.config.pool_backoff_initial = 1_sec;
  options.config.pool_backoff_max = 8_sec;
  options.config.admission.enabled = true;
  options.config.admission.soft_denied_streak = 1;
  options.config.admission.hard_denied_streak = 3;
  options.config.admission.token_rate_per_sec = 10.0;
  options.config.admission.token_burst = 20.0;
  options.config.admission.dwell = 1_sec;
  options.config.admission.recover_min = 4_sec;
  options.config.admission.defer_retry = 2_sec;
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.spec = quake_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(400);
  options.initial_servers = 1;
  options.pool_size = 3;
  options.map_objects = 100;
  options.seed = 2005;
  return options;
}

DeploymentOptions golden_contested_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 60;
  options.config.underload_clients = 30;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 2_sec;
  options.config.load_report_interval = 500_ms;
  options.config.pool_backoff_initial = 1_sec;
  options.config.pool_backoff_max = 8_sec;
  options.config.admission.enabled = true;
  options.config.admission.soft_denied_streak = 1;
  options.config.admission.hard_denied_streak = 3;
  options.config.admission.token_rate_per_sec = 10.0;
  options.config.admission.token_burst = 20.0;
  options.config.admission.dwell = 1_sec;
  options.config.admission.recover_min = 4_sec;
  options.config.admission.defer_retry = 2_sec;
  options.config.admission.priority.queue_enabled = true;
  options.config.admission.priority.queue_capacity = 192;
  options.config.admission.priority.age_step = 10_sec;
  options.config.admission.priority.vip_drain_cap = 0.5;
  options.config.admission.global.enabled = true;
  options.config.admission.global.token_rate_total = 24.0;
  options.config.admission.global.token_rate_floor = 1.0;
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(300);
  options.initial_servers = 4;
  options.pool_size = 1;
  options.map_objects = 150;
  options.seed = 2005;
  return options;
}

DeploymentOptions golden_hotspot_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 300;
  options.config.underload_clients = 150;
  options.config.overload_queue_length = 2000;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = 3_sec;
  options.config.load_report_interval = 500_ms;
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = 1;
  options.pool_size = 11;
  options.map_objects = 300;
  options.seed = 2005;
  return options;
}

template <typename Schedule>
std::uint64_t trace_hash_of(DeploymentOptions options, SimTime duration,
                            Schedule&& schedule) {
  Deployment deployment(std::move(options));
  deployment.network().enable_trace_hash();
  schedule(deployment);
  deployment.run_until(duration);
  // Parked MC lookups expire after tau1; a pinned hash only proves expiry
  // changed nothing if no reply ever came back for an expired lookup.
  for (const MatrixServer* server : deployment.matrix_servers()) {
    EXPECT_EQ(server->stats().late_lookup_replies, 0u);
  }
  return deployment.network().trace_hash();
}

TEST(DeterminismTest, OverloadScenarioMatchesGoldenTrace) {
  OverloadScenarioOptions scenario;  // defaults: 1200-bot flash crowd
  const std::uint64_t hash =
      trace_hash_of(golden_overload_options(), scenario.duration,
                    [&](Deployment& d) { schedule_overload_scenario(d, scenario); });
  EXPECT_EQ(hash, kGoldenOverload)
      << "OverloadScenario trace diverged from the pinned golden hash: the "
         "engine's event order or wire bytes changed.  Hash was 0x"
      << std::hex << hash;
}

TEST(DeterminismTest, ContestedPoolScenarioMatchesGoldenTrace) {
  ContestedPoolScenarioOptions scenario;
  scenario.flash_stagger = 500_ms;
  const std::uint64_t hash = trace_hash_of(
      golden_contested_options(), scenario.duration,
      [&](Deployment& d) { schedule_contested_pool_scenario(d, scenario); });
  EXPECT_EQ(hash, kGoldenContested)
      << "ContestedPoolScenario trace diverged from the pinned golden hash.  "
         "Hash was 0x"
      << std::hex << hash;
}

TEST(DeterminismTest, HotspotScenarioMatchesGoldenTrace) {
  HotspotScenarioOptions scenario;  // the paper's Fig. 2 timeline
  const std::uint64_t hash =
      trace_hash_of(golden_hotspot_options(), scenario.duration,
                    [&](Deployment& d) { schedule_hotspot_scenario(d, scenario); });
  EXPECT_EQ(hash, kGoldenHotspot)
      << "Fig. 2 hotspot trace diverged from the pinned golden hash.  Hash "
         "was 0x"
      << std::hex << hash;
}

TEST(DeterminismTest, SurgeScenarioMatchesGoldenTrace) {
  DeploymentOptions options = golden_overload_options();
  options.config.admission.priority.queue_enabled = true;
  options.config.admission.priority.queue_capacity = 192;
  SurgeScenarioOptions scenario;
  scenario.flash_bots = 500;
  scenario.leave_bots = 250;
  scenario.leave_at = 12_sec;
  scenario.duration = 20_sec;
  const std::uint64_t hash =
      trace_hash_of(std::move(options), scenario.duration,
                    [&](Deployment& d) { schedule_surge_scenario(d, scenario); });
  EXPECT_EQ(hash, kGoldenSurge)
      << "SurgeScenario trace diverged from its pin.  Hash was 0x" << std::hex
      << hash;
}

TEST(DeterminismTest, MultiPartitionSurgeScenarioMatchesGoldenTrace) {
  MultiPartitionSurgeScenarioOptions scenario;
  scenario.leave_fraction = 0.5;
  scenario.leave_at = 15_sec;
  scenario.duration = 25_sec;
  const std::uint64_t hash = trace_hash_of(
      golden_contested_options(), scenario.duration, [&](Deployment& d) {
        schedule_multi_partition_surge_scenario(d, scenario);
      });
  EXPECT_EQ(hash, kGoldenMultiPartition)
      << "MultiPartitionSurgeScenario trace diverged from its pin.  Hash was 0x"
      << std::hex << hash;
}

TEST(DeterminismTest, MegaSurgeScenarioMatchesGoldenTrace) {
  MegaSurgeScenarioOptions scenario;
  scenario.background_bots = 300;
  scenario.bots_per_hotspot = 100;
  scenario.join_batch = 64;
  scenario.duration = 5_sec;
  const std::uint64_t hash = trace_hash_of(
      mega_surge_deployment_options(), scenario.duration,
      [&](Deployment& d) { schedule_mega_surge_scenario(d, scenario); });
  EXPECT_EQ(hash, kGoldenMegaSurge)
      << "MegaSurgeScenario trace diverged from its pin.  Hash was 0x"
      << std::hex << hash;
}

TEST(DeterminismTest, TracingEnabledIsPassive) {
  // The obs layer's passivity proof (docs/OBSERVABILITY.md): with structured
  // tracing ENABLED — flight-recorder ring recording every send, span
  // pairing live at every hook — the full send trace is byte-identical to
  // the pinned golden hash.  Recording writes only to preallocated obs
  // storage; it sends nothing, draws no RNG, and schedules no events.
  DeploymentOptions options = golden_overload_options();
  options.config.obs.trace_enabled = true;
  OverloadScenarioOptions scenario;
  const std::uint64_t hash =
      trace_hash_of(std::move(options), scenario.duration, [&](Deployment& d) {
        schedule_overload_scenario(d, scenario);
      });
  EXPECT_EQ(hash, kGoldenOverload)
      << "Tracing perturbed the run: the obs layer must be passive.  Hash was "
         "0x"
      << std::hex << hash;
}

TEST(DeterminismTest, HeapSchedulerMatchesGoldenTrace) {
  // The retained 4-ary-heap scheduler (Config::engine.ladder_scheduler =
  // false, the A/B reference for the ladder/calendar queue) must reproduce
  // the SAME golden hash as the default ladder: pop order is the (time,
  // sequence) total order under both structures, so the priority structure
  // is invisible to every trace.  tests/scheduler_test.cpp pins the order
  // equivalence directly; this pins it end-to-end through a full scenario.
  DeploymentOptions options = golden_overload_options();
  options.config.engine.ladder_scheduler = false;
  OverloadScenarioOptions scenario;
  const std::uint64_t hash =
      trace_hash_of(std::move(options), scenario.duration, [&](Deployment& d) {
        schedule_overload_scenario(d, scenario);
      });
  EXPECT_EQ(hash, kGoldenOverload)
      << "Heap-scheduler trace diverged from the ladder's golden hash: the "
         "two priority structures no longer pop in the same order.  Hash was "
         "0x"
      << std::hex << hash;
}

TEST(DeterminismTest, ShardedOverloadScenarioMatchesPinnedHash) {
  // K=4, worker threads on: the conservative engine's interleaving is pinned
  // the same way the serial engine's is.  Threads are an execution detail —
  // tests/shard_engine_test.cpp separately proves threaded == sequential.
  DeploymentOptions options = golden_overload_options();
  options.config.engine.shards = 4;
  OverloadScenarioOptions scenario;
  scenario.flash_bots = 400;
  scenario.duration = 15_sec;
  const std::uint64_t hash =
      trace_hash_of(std::move(options), scenario.duration, [&](Deployment& d) {
        schedule_overload_scenario(d, scenario);
      });
  EXPECT_EQ(hash, kGoldenShardedOverload)
      << "K=4 sharded trace diverged from its pin: the mailbox merge order, "
         "window schedule, or a shard RNG stream changed.  Hash was 0x"
      << std::hex << hash;
}

TEST(DeterminismTest, SameSeedSameTraceDifferentSeedDifferentTrace) {
  // Un-pinned sanity: two runs of one seed agree bit-for-bit; a different
  // seed produces a different trace (the hash actually sees the traffic).
  auto run = [](std::uint64_t seed) {
    OverloadScenarioOptions scenario;
    scenario.flash_bots = 200;
    scenario.duration = 10_sec;
    DeploymentOptions options = golden_overload_options();
    options.seed = seed;
    return trace_hash_of(std::move(options), scenario.duration,
                         [&](Deployment& d) {
                           schedule_overload_scenario(d, scenario);
                         });
  };
  const std::uint64_t a1 = run(7);
  const std::uint64_t a2 = run(7);
  const std::uint64_t b = run(8);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

}  // namespace
}  // namespace matrix
