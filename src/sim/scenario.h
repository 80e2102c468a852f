// Scenario scripting — the workload generators of the evaluation.
//
// Every workload is a ScenarioSpec: a list of population changes
// (background players wandering the world, flash crowds joining at a point,
// staged departures) and control-plane chaos, scripted onto a Deployment's
// event queue by schedule().  The canned schedule_*_scenario functions below
// each build one spec; HotspotScenario reproduces the paper's Fig. 2
// timeline (600-client hotspot at t=10 s, staged 200-client departures,
// second hotspot elsewhere at t=170 s).
//
// Insertion order is firing order: schedule() issues one event per action in
// the order the actions were added, and the event queue fires same-instant
// events in the order they were scheduled.  Two specs that list the same
// actions in the same order therefore produce byte-identical runs; moving an
// action earlier or later in a spec can reorder same-instant events.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/deployment.h"

namespace matrix {

/// Fluent scenario composer — the one scheduling surface shared by the
/// canned workloads here, the control-plane chaos scenarios below, the
/// benches and examples, and the randomized fuzzer
/// (src/fuzz/fuzz_scenario.cpp).  Collect arrival waves, departures, and
/// chaos actions; schedule() then scripts them all onto a deployment in
/// insertion order.
///
///   ScenarioSpec()
///       .background(SimTime::from_ms(100), 50)
///       .ramp(flash_at, 1200, 150, SimTime::from_sec(2.0), center, 150.0)
///       .kill_mc(SimTime::from_sec(15.0))
///       .revive_mc(SimTime::from_sec(75.0))
///       .run_for(SimTime::from_sec(90.0))
///       .schedule(deployment);
class ScenarioSpec {
 public:
  /// `count` bots spawn uniformly over the world at `at`.
  ScenarioSpec& background(SimTime at, std::size_t count);
  /// One flash wave at `center`.  A zero `vip_fraction` spawns plain
  /// hotspot bots and draws no VIP coin from the RNG; non-zero mixes VIPs
  /// in (surge-queue priority classes).
  ScenarioSpec& flash(SimTime at, std::size_t count, Vec2 center,
                      double spread, double vip_fraction = 0.0);
  /// Waved arrival: `total` bots in `batch`-sized flashes every `interval`
  /// starting at `from` (batch 0 = everyone at once) — the canonical
  /// flash-crowd ramp every canned scenario uses.
  ScenarioSpec& ramp(SimTime from, std::size_t total, std::size_t batch,
                     SimTime interval, Vec2 center, double spread,
                     double vip_fraction = 0.0);
  /// `count` connected bots leave at `at`, nearest `near` first.
  ScenarioSpec& depart(SimTime at, std::size_t count,
                       std::optional<Vec2> near = std::nullopt);
  /// Staged departures: `total` bots in `batch` groups every `interval`.
  ScenarioSpec& departures(SimTime from, std::size_t total, std::size_t batch,
                           SimTime interval,
                           std::optional<Vec2> near = std::nullopt);

  // ---- control-plane chaos (src/control/control_plane.h) -------------------
  /// The coordinator process dies at `at` (Deployment::kill_coordinator):
  /// its heartbeats fall silent and every control message toward it is lost.
  ScenarioSpec& kill_mc(SimTime at);
  /// A standby MC (next generation) comes up at `at`
  /// (Deployment::revive_coordinator).
  ScenarioSpec& revive_mc(SimTime at);
  /// Re-links MC↔Matrix with `link` at `at` (Deployment::set_control_links)
  /// — drop 1.0 is a control partition, high latency a delayed/reordering
  /// control path.  Schedule a second call with a healthy link to heal.
  ScenarioSpec& degrade_control_links(SimTime at, const LinkConfig& link);

  /// Declares the intended run length (recorded, not enforced — callers
  /// still drive run_until), so scenario builders can hand the duration and
  /// the schedule around as one value.
  ScenarioSpec& run_for(SimTime duration);

  [[nodiscard]] SimTime duration() const { return duration_; }
  /// Crowd size at the crest (background + every flash wave).
  [[nodiscard]] std::size_t offered_clients() const { return offered_; }

  /// Scripts every collected action onto `deployment`'s event queue.
  void schedule(Deployment& deployment) const;

 private:
  struct Action {
    enum class Kind : std::uint8_t {
      kBackground,
      kFlash,
      kDepart,
      kKillMc,
      kReviveMc,
      kControlLink,
    };
    Kind kind;
    SimTime at;
    std::size_t count = 0;
    Vec2 center;
    double spread = 0.0;
    double vip_fraction = 0.0;
    std::optional<Vec2> near;
    LinkConfig link;
  };

  std::vector<Action> actions_;
  SimTime duration_{};
  std::size_t offered_ = 0;
};

/// The paper's Fig. 2 workload, parameterised.
struct HotspotScenarioOptions {
  std::size_t background_bots = 100;
  std::size_t hotspot_bots = 600;
  Vec2 first_hotspot{150.0, 150.0};
  SimTime first_hotspot_at = SimTime::from_sec(10.0);
  /// Departures begin after the hotspot has been held this long...
  SimTime hold = SimTime::from_sec(75.0);
  /// ...leaving in groups of `departure_group` every `departure_interval`.
  std::size_t departure_group = 200;
  SimTime departure_interval = SimTime::from_sec(15.0);

  bool second_hotspot = true;
  Vec2 second_hotspot_center{850.0, 850.0};
  SimTime second_hotspot_at = SimTime::from_sec(170.0);
  std::size_t second_hotspot_bots = 600;
  SimTime second_hold = SimTime::from_sec(50.0);

  SimTime duration = SimTime::from_sec(300.0);
};

/// Schedules the full Fig. 2 timeline onto `deployment`.  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_hotspot_scenario(Deployment& deployment,
                               const HotspotScenarioOptions& options);

/// Beyond-capacity workload (admission subsystem, src/control/): a flash
/// crowd keeps arriving in waves until the offered population exceeds what
/// the whole deployment — every root plus every spare in the pool — can
/// absorb.  The paper's evaluation stops at "the pool ran dry"; this
/// scenario is about what happens *after* that point.  With admission off
/// the stuck partition's latency collapses unboundedly; with it on, excess
/// joins are deferred/denied at the valve and admitted sessions keep their
/// delivery rate.
struct OverloadScenarioOptions {
  std::size_t background_bots = 50;

  /// Flash-crowd arrival: `flash_bots` join in `join_batch`-sized waves
  /// every `join_interval`, starting at `flash_at`, centred on `center`
  /// with a town-square-sized footprint `spread`.
  std::size_t flash_bots = 1200;
  std::size_t join_batch = 150;
  SimTime join_interval = SimTime::from_sec(2.0);
  SimTime flash_at = SimTime::from_sec(5.0);
  Vec2 center{500.0, 500.0};
  double spread = 150.0;

  SimTime duration = SimTime::from_sec(60.0);
};

/// Schedules the flash-crowd waves.  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_overload_scenario(Deployment& deployment,
                                const OverloadScenarioOptions& options);

/// Offered clients at the crest of an OverloadScenario.
[[nodiscard]] inline std::size_t overload_offered_clients(
    const OverloadScenarioOptions& options) {
  return options.background_bots + options.flash_bots;
}

/// Nominal deployment capacity: every server slot (roots + pool) at the
/// overload threshold.  An OverloadScenario should offer more than this.
[[nodiscard]] std::size_t deployment_capacity_clients(
    const Deployment& deployment);

/// Surge workload (surge queue, src/control/surge_queue.h): the same
/// beyond-capacity flash crowd as OverloadScenario, but with a VIP share
/// among the arrivals and an optional recovery phase in which part of the
/// crowd leaves again.  With the waiting room off this exercises PR 1's
/// defer-retry control loop; with it on, gated joins park server-side and
/// drain by priority class — bench_surge_queue compares the two.
struct SurgeScenarioOptions {
  std::size_t background_bots = 50;

  /// Flash-crowd arrival, identical shape to OverloadScenarioOptions.
  std::size_t flash_bots = 1200;
  std::size_t join_batch = 150;
  SimTime join_interval = SimTime::from_sec(2.0);
  SimTime flash_at = SimTime::from_sec(5.0);
  Vec2 center{500.0, 500.0};
  double spread = 150.0;

  /// Share of flash arrivals flagged VIP (uniform per bot).
  double vip_fraction = 0.15;

  /// Recovery: `leave_bots` connected players (nearest the hotspot) depart
  /// in `leave_batch` groups every `leave_interval` starting at `leave_at`,
  /// freeing capacity for the waiting room to drain into.  0 disables.
  std::size_t leave_bots = 0;
  std::size_t leave_batch = 100;
  SimTime leave_at = SimTime::from_sec(45.0);
  SimTime leave_interval = SimTime::from_sec(5.0);

  SimTime duration = SimTime::from_sec(90.0);
};

/// Schedules the surge waves (and recovery departures).  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_surge_scenario(Deployment& deployment,
                             const SurgeScenarioOptions& options);

/// Multi-partition surge (coordinator-led global admission,
/// src/control/global_admission.h): SEVERAL flash crowds saturate
/// different partitions of a multi-root deployment at once — the regime
/// where purely per-server valves admit unevenly, because no single
/// server sees that the whole deployment is past capacity.  Crowd sizes
/// are deliberately unequal (`flash_bots` per surge), so the deepest
/// waiting room starves hardest without a coordinator weighting the drain
/// budget toward it.  Mid-surge, the crowds themselves force splits onto
/// whatever pool spares remain — exercising the cross-server queue handoff
/// (parked clients re-park on the child that now owns their region).
struct MultiPartitionSurgeScenarioOptions {
  std::size_t background_bots = 60;

  /// One simultaneous surge per entry: crowd size at `centers[i]`.  Only
  /// the first min(centers, flash_bots) pairs are scheduled — keep the
  /// vectors the same length.
  std::vector<std::size_t> flash_bots{420, 260, 140};
  std::vector<Vec2> centers{{150.0, 150.0}, {850.0, 150.0}, {150.0, 850.0}};

  std::size_t join_batch = 70;
  SimTime join_interval = SimTime::from_sec(2.0);
  SimTime flash_at = SimTime::from_sec(5.0);
  double spread = 90.0;
  double vip_fraction = 0.15;

  /// Recovery: this fraction of each surge's crowd departs (nearest the
  /// center first), freeing capacity the waiting rooms drain into.  The
  /// per-center departure volume scales with the crowd, so the big crowd's
  /// partition frees the most slots — and whoever refills them fastest
  /// wins the recovery.  0 disables.
  double leave_fraction = 0.0;
  std::size_t leave_batch = 60;
  SimTime leave_at = SimTime::from_sec(50.0);
  SimTime leave_interval = SimTime::from_sec(5.0);

  SimTime duration = SimTime::from_sec(90.0);
};

/// Schedules the simultaneous surges (and recovery).  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_multi_partition_surge_scenario(
    Deployment& deployment, const MultiPartitionSurgeScenarioOptions& options);

/// Contested-pool workload (load rules, policy/load_rules.h): MORE partitions
/// overload simultaneously than the resource pool holds spares, so every
/// PoolAcquire is a contest — the regime where grant ARBITRATION (who gets
/// the spare) decides the deployment's worst-partition experience, not just
/// whether a split happens.  Crowd sizes are deliberately unequal: under
/// FCFS the spare goes to whichever partition's retry happens to land
/// first (often a small crowd's), while need-weighted arbitration
/// (the directive rules) hands it to the most starved partition.  Pair it with
/// a deployment whose pool_size < centers.size(); mid-run churn keeps
/// releasing and re-contesting the spares so the arbitration fires
/// repeatedly, not once.  `bench_policy_grants` runs exactly this head-to-
/// head.
struct ContestedPoolScenarioOptions {
  std::size_t background_bots = 40;

  /// One simultaneous surge per entry (pair with `centers`, same pairing
  /// rule as MultiPartitionSurgeScenarioOptions).  Four unequal crowds by
  /// default — run them against fewer spares than surges.
  std::vector<std::size_t> flash_bots{240, 130, 90, 70};
  std::vector<Vec2> centers{
      {150.0, 150.0}, {850.0, 150.0}, {150.0, 850.0}, {850.0, 850.0}};

  std::size_t join_batch = 60;
  SimTime join_interval = SimTime::from_sec(2.0);
  SimTime flash_at = SimTime::from_sec(5.0);
  /// Per-center stagger: center `s` begins surging at
  /// flash_at + s × flash_stagger.  Listing the SMALL crowds first with a
  /// non-zero stagger reproduces the FCFS pathology head-on: the lightest
  /// partition overloads (and asks the pool) first, so arrival-order grants
  /// hand it the spare while the big crowd that arrives moments later
  /// starves.  0 keeps all surges simultaneous.
  SimTime flash_stagger{};
  double spread = 80.0;
  double vip_fraction = 0.10;

  /// Churn: this fraction of each crowd departs mid-run (nearest its
  /// center first), freeing capacity — and, when a split collapses back,
  /// releasing the spare for the next contest.
  double leave_fraction = 0.5;
  std::size_t leave_batch = 20;
  SimTime leave_at = SimTime::from_sec(40.0);
  SimTime leave_interval = SimTime::from_sec(4.0);

  SimTime duration = SimTime::from_sec(120.0);
};

/// Schedules the contested-pool surges.  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_contested_pool_scenario(
    Deployment& deployment, const ContestedPoolScenarioOptions& options);

/// Ten-thousand-client macro workload (the engine-scale proof for the
/// hot-path overhaul): a grid of simultaneous flash crowds plus a uniform
/// background population, sized an order of magnitude beyond every other
/// scenario.  Pair it with a deployment whose root grid can actually admit
/// the crowd (≥ offered/overload_clients roots) — the point is sustained
/// 10k-client steady-state message traffic, not admission-control behaviour;
/// bench_engine_throughput and tests/mega_surge_test.cpp run exactly this.
struct MegaSurgeScenarioOptions {
  std::size_t background_bots = 2000;

  /// Flash crowds arrive at an hx × hy grid of hotspot centers spread
  /// evenly over the world, `bots_per_hotspot` each.
  std::size_t hotspots_x = 4;
  std::size_t hotspots_y = 2;
  std::size_t bots_per_hotspot = 1024;

  std::size_t join_batch = 256;
  SimTime join_interval = SimTime::from_ms(500);
  SimTime flash_at = SimTime::from_sec(2.0);
  double spread = 70.0;

  SimTime duration = SimTime::from_sec(20.0);
};

/// Schedules the grid of flash crowds.  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_mega_surge_scenario(Deployment& deployment,
                                  const MegaSurgeScenarioOptions& options);

/// Offered clients at the crest of a MegaSurgeScenario (10,192 with the
/// defaults — the ≥10k bar).
[[nodiscard]] inline std::size_t mega_surge_offered_clients(
    const MegaSurgeScenarioOptions& options) {
  return options.background_bots +
         options.hotspots_x * options.hotspots_y * options.bots_per_hotspot;
}

/// The canonical deployment for the default MegaSurgeScenario — shared by
/// bench_engine_throughput (whose numbers CI's perf-gate compares against a
/// checked-in baseline) and tests/mega_surge_test.cpp (the tier-1 scale
/// assertions), so the gated workload and the proven workload cannot drift
/// apart.  36 roots × the paper's 300-client overload threshold = 10.8k
/// capacity, on production-grade hosts (50 µs per message ⇒ ~20k msg/s per
/// server, vs the paper benches' deliberately modest 200 µs): the 10k crowd
/// is admitted and PLAYS — sustained full-rate traffic, not one collapsing
/// partition's queue (OverloadScenario covers that regime).
[[nodiscard]] inline DeploymentOptions mega_surge_deployment_options() {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 300;
  options.config.underload_clients = 150;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = SimTime::from_sec(3.0);
  options.config.load_report_interval = SimTime::from_ms(500);
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(50);
  options.initial_servers = 36;
  options.pool_size = 4;
  options.map_objects = 360;
  options.seed = 2005;
  return options;
}

/// Hundred-thousand-client macro workload — the SHARDED engine's scale
/// proof (net/network.h conservative parallel engine).  The same grid-of-
/// hotspots shape as MegaSurgeScenario, an order of magnitude bigger: 8×4
/// hotspot centers × 2880 bots + 8000 background = 100,160 offered clients.
/// Runs at RPG traffic rates (4 Hz actions/updates) so the per-client cost
/// is the paper's Daimonin signature, not an FPS firehose; the point is the
/// ENGINE carrying a six-figure concurrent population, partitioned across
/// shards, not the admission story.  tests/giga_surge_test.cpp and
/// bench_engine_throughput's scaling mode run exactly this.
struct GigaSurgeScenarioOptions {
  std::size_t background_bots = 8000;

  std::size_t hotspots_x = 8;
  std::size_t hotspots_y = 4;
  std::size_t bots_per_hotspot = 2880;

  std::size_t join_batch = 1440;
  SimTime join_interval = SimTime::from_ms(250);
  SimTime flash_at = SimTime::from_ms(500);
  double spread = 60.0;

  SimTime duration = SimTime::from_sec(4.0);
};

/// Schedules the giga grid of flash crowds.  Call
/// deployment.run_until(options.duration) afterwards.
void schedule_giga_surge_scenario(Deployment& deployment,
                                  const GigaSurgeScenarioOptions& options);

/// Offered clients at the crest of a GigaSurgeScenario (100,160 with the
/// defaults — the ≥100k bar).
[[nodiscard]] inline std::size_t giga_surge_offered_clients(
    const GigaSurgeScenarioOptions& options) {
  return options.background_bots +
         options.hotspots_x * options.hotspots_y * options.bots_per_hotspot;
}

/// The canonical deployment for the default GigaSurgeScenario, shared by
/// tests/giga_surge_test.cpp and bench_engine_throughput's shard-scaling
/// mode.  64 roots × an 1800-client overload threshold = 115k capacity on
/// heavyweight hosts (20 µs per message), so the 100k crowd is admitted and
/// plays; `shards` picks the engine partition count (1 = the serial engine).
[[nodiscard]] inline DeploymentOptions giga_surge_deployment_options(
    std::size_t shards) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 2000, 2000);
  options.config.overload_clients = 1800;
  options.config.underload_clients = 900;
  options.config.sustain_reports_to_split = 4;
  options.config.topology_cooldown = SimTime::from_sec(5.0);
  options.config.load_report_interval = SimTime::from_sec(1.0);
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.config.engine.shards = shards;
  options.spec = daimonin_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.game_node.service_per_message = SimTime::from_us(20);
  options.initial_servers = 64;
  options.pool_size = 4;
  options.map_objects = 640;
  options.seed = 2005;
  return options;
}

// ---- control-plane chaos workloads (src/control/control_plane.h) -----------

/// MC-outage chaos: the overload flash crowd with the coordinator crashing
/// mid-surge and — optionally — a standby reviving later.  The regime the
/// heartbeat failsafe exists for: with Config::failsafe.enabled every
/// matrix/game server rides NORMAL → HOLD → FALLBACK on the silence, keeps
/// admitting on its local valve, and recovers when the standby's beats
/// arrive; with it off, whatever directive floor was in force at the crash
/// stays frozen forever.  bench_mc_outage runs exactly this head-to-head.
struct McOutageScenarioOptions {
  /// Crowd shape (arrivals keep coming THROUGH the outage).
  OverloadScenarioOptions load;
  /// Coordinator killed here — default mid-ramp, well before the crest.
  SimTime kill_at = SimTime::from_sec(15.0);
  /// Standby (next generation) brought up here; zero = dead for the rest
  /// of the run.
  SimTime revive_at{};
};

/// Schedules the flash crowd plus the outage.  Call
/// deployment.run_until(options.load.duration) afterwards.
void schedule_mc_outage_scenario(Deployment& deployment,
                                 const McOutageScenarioOptions& options);

/// Control-partition chaos: the MC stays alive but its links to every
/// Matrix server degrade over a window — drop 1.0 is a full partition
/// (silence, like an outage, but undelivered directives are LOST not
/// queued), partial drop with high latency is the delayed/reordered
/// control path that stale-epoch/stale-seq admission exists for.
struct ControlPartitionScenarioOptions {
  /// Crowd shape (arrivals keep coming through the partition).
  OverloadScenarioOptions load;
  SimTime partition_at = SimTime::from_sec(15.0);
  SimTime heal_at = SimTime::from_sec(45.0);
  /// MC↔Matrix link during the window; default black-holes everything.
  LinkConfig degraded{SimTime::from_us(300), 125e6, 1.0};
  /// Link restored at heal_at (the deployment's LAN defaults).
  LinkConfig healed{SimTime::from_us(300), 125e6, 0.0};
};

/// Schedules the flash crowd plus the partition window.  Call
/// deployment.run_until(options.load.duration) afterwards.
void schedule_control_partition_scenario(
    Deployment& deployment, const ControlPartitionScenarioOptions& options);

}  // namespace matrix
