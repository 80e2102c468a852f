#include "fuzz/fuzz_scenario.h"

#include <sstream>

#include "control/control_plane.h"
#include "obs/trace.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace matrix::fuzz {

namespace {

/// Smallest power of two ≥ n.
std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap *= 2;
  return cap;
}

}  // namespace

std::string FuzzPlan::describe() const {
  std::ostringstream out;
  const Config& config = deployment.config;
  out << "seed=" << seed << " policy="
      << load_policy_kind_name(config.policy.kind) << " servers="
      << deployment.initial_servers << "+" << deployment.pool_size
      << "pool overload=" << config.overload_clients << " shards="
      << config.engine.shards << " admission="
      << (config.admission.enabled ? "on" : "off");
  if (config.admission.enabled) {
    out << " queue="
        << (config.admission.priority.queue_enabled
                ? std::to_string(config.admission.priority.queue_capacity)
                : std::string("off"))
        << " global=" << (config.admission.global.enabled ? "on" : "off");
  }
  out << " offered=" << offered_clients << " waves=" << waves.size()
      << " departures=" << departures.size() << " duration="
      << duration.sec() << "s";
  if (config.failsafe.enabled) {
    out << " failsafe=on";
    if (chaos.kill_at.us() != 0) {
      out << " mc-kill@" << chaos.kill_at.sec() << "s";
      if (chaos.revive_at.us() != 0) {
        out << " revive@" << chaos.revive_at.sec() << "s";
      }
    }
    if (chaos.degrade_at.us() != 0) {
      out << " ctl-degrade@" << chaos.degrade_at.sec() << "s-"
          << chaos.heal_at.sec() << "s drop="
          << chaos.degraded.drop_probability;
    }
  }
  return out.str();
}

FuzzPlan make_fuzz_plan(std::uint64_t seed, LoadPolicyKind policy) {
  // Stream-split from the deployment's own seed so the plan's choices and
  // the bots' movement never share a sequence.
  Rng rng(seed ^ 0xF0CCACC1AFbeefULL);
  FuzzPlan plan;
  plan.seed = seed;

  DeploymentOptions& d = plan.deployment;
  Config& config = d.config;

  // ---- grid topology & capacity --------------------------------------------
  static constexpr std::size_t kGrids[] = {1, 1, 2, 4, 4, 6, 9};
  d.initial_servers = kGrids[rng.next_below(std::size(kGrids))];
  d.pool_size = static_cast<std::size_t>(rng.next_in(0, 5));
  d.map_objects = static_cast<std::size_t>(rng.next_in(40, 160));
  d.seed = seed * 2 + 1;  // the deployment's own stream, decoupled from ours

  config.overload_clients = static_cast<std::uint32_t>(rng.next_in(80, 240));
  config.underload_clients = config.overload_clients / 2;
  config.sustain_reports_to_split =
      static_cast<std::uint32_t>(rng.next_in(1, 3));
  config.topology_cooldown =
      SimTime::from_sec(rng.next_double_in(2.0, 6.0));
  config.policy.kind = policy;
  d.spec = bzflag_like();
  config.visibility_radius = d.spec.visibility_radius;

  // ---- engine ---------------------------------------------------------------
  // A slice of cases runs the sharded conservative engine so the replay gate
  // (run_fuzz_case twice, byte-identical traces) and every invariant check
  // also cover barrier merges and per-shard RNG streams.  Drawn from a
  // DERIVED stream, not `rng`: the shard count must not shift the scenario
  // draws below, so every historical seed still expands to the same world —
  // some of them just run it sharded now.
  Rng shard_rng(seed ^ 0x5A4DED5A4DEDULL);
  config.engine.shards =
      shard_rng.next_bool(0.3) ? static_cast<std::size_t>(shard_rng.next_in(2, 4))
                               : 1;

  // ---- link fabric ----------------------------------------------------------
  d.wan.latency = SimTime::from_ms(rng.next_double_in(5.0, 40.0));
  d.lan.latency = SimTime::from_us(rng.next_in(100, 1000));
  d.colocated.latency = SimTime::from_us(rng.next_in(10, 60));
  // drop stays 0 everywhere: conservation invariants assume reliable links.

  d.game_node.service_per_message =
      SimTime::from_us(rng.next_in(60, 160));

  // ---- admission / waiting room / global ------------------------------------
  AdmissionConfig& admission = config.admission;
  admission.enabled = rng.next_bool(0.85);
  if (admission.enabled) {
    admission.soft_load_fraction = rng.next_double_in(0.6, 0.9);
    admission.hard_load_fraction =
        admission.soft_load_fraction + rng.next_double_in(0.2, 0.5);
    admission.token_rate_per_sec = rng.next_double_in(8.0, 40.0);
    admission.token_burst = admission.token_rate_per_sec * 2.0;
    admission.dwell = SimTime::from_sec(rng.next_double_in(1.0, 3.0));
    admission.recover_min = SimTime::from_sec(rng.next_double_in(3.0, 8.0));
    admission.defer_retry = SimTime::from_sec(rng.next_double_in(1.0, 3.0));
    admission.soft_waiting_count =
        rng.next_bool(0.5) ? static_cast<std::uint32_t>(rng.next_in(16, 64))
                           : 0;
    admission.hard_waiting_count = admission.soft_waiting_count == 0
                                       ? 0
                                       : admission.soft_waiting_count * 4;

    SurgePriorityConfig& priority = admission.priority;
    priority.queue_enabled = rng.next_bool(0.6);
    priority.queue_capacity = static_cast<std::uint32_t>(rng.next_in(32, 256));
    priority.age_step = rng.next_bool(0.5)
                            ? SimTime::from_sec(rng.next_double_in(3.0, 15.0))
                            : SimTime{};
    priority.vip_drain_cap = rng.next_double_in(0.3, 1.0);

    GlobalAdmissionConfig& global = admission.global;
    global.enabled = rng.next_bool(0.5);
    global.soft_pressure = rng.next_double_in(0.5, 0.75);
    global.hard_pressure = global.soft_pressure + rng.next_double_in(0.1, 0.3);
    global.token_rate_total = rng.next_double_in(16.0, 64.0);
    global.dwell = SimTime::from_sec(rng.next_double_in(1.0, 3.0));
    global.recover_min = SimTime::from_sec(rng.next_double_in(3.0, 8.0));
    global.queue_handoff = rng.next_bool(0.9);
  }

  // ---- crowd shape ----------------------------------------------------------
  plan.duration = SimTime::from_sec(rng.next_double_in(25.0, 45.0));
  const Rect world = config.world;

  const auto random_center = [&rng, &world] {
    return Vec2{rng.next_double_in(world.x0() + 50.0, world.x1() - 50.0),
                rng.next_double_in(world.y0() + 50.0, world.y1() - 50.0)};
  };

  const std::size_t background = static_cast<std::size_t>(rng.next_in(20, 60));
  plan.waves.push_back({SimTime::from_ms(100), background, Vec2{}, 0.0, 0.0,
                        /*background=*/true});
  plan.offered_clients = background;

  std::size_t remaining =
      static_cast<std::size_t>(rng.next_in(100, 360));
  const std::size_t crowds = static_cast<std::size_t>(rng.next_in(1, 3));
  std::vector<Vec2> centers;
  for (std::size_t c = 0; c < crowds; ++c) {
    const std::size_t share =
        c + 1 == crowds ? remaining
                        : remaining / 2 +
                              static_cast<std::size_t>(
                                  rng.next_below(remaining / 2 + 1));
    remaining -= share;
    if (share == 0) continue;
    const Vec2 center = random_center();
    centers.push_back(center);
    const double spread = rng.next_double_in(30.0, 150.0);
    const double vip = rng.next_bool(0.6) ? rng.next_double_in(0.05, 0.4) : 0.0;
    const SimTime start =
        SimTime::from_sec(rng.next_double_in(1.0, plan.duration.sec() * 0.3));

    switch (rng.next_below(3)) {
      case 0: {  // flash: the whole crowd in one or two bursts
        const std::size_t first = share / 2 + rng.next_below(share / 2 + 1);
        plan.waves.push_back({start, first, center, spread, vip, false});
        if (share > first) {
          plan.waves.push_back({start + SimTime::from_sec(1.0), share - first,
                                center, spread, vip, false});
        }
        break;
      }
      case 1: {  // ramp: even batches every interval
        const std::size_t batches =
            static_cast<std::size_t>(rng.next_in(3, 8));
        const SimTime interval =
            SimTime::from_sec(rng.next_double_in(0.5, 2.5));
        for (std::size_t b = 0; b < batches; ++b) {
          const std::size_t n =
              b + 1 == batches ? share - (share / batches) * b
                               : share / batches;
          if (n == 0) continue;
          plan.waves.push_back(
              {start + interval * static_cast<std::int64_t>(b), n, center,
               spread, vip, false});
        }
        break;
      }
      default: {  // diurnal: swell, then a partial ebb scheduled as churn
        const std::size_t swell = share;
        const std::size_t batches = 4;
        const SimTime interval =
            SimTime::from_sec(rng.next_double_in(1.0, 3.0));
        for (std::size_t b = 0; b < batches; ++b) {
          const std::size_t n =
              b + 1 == batches ? swell - (swell / batches) * b
                               : swell / batches;
          if (n == 0) continue;
          plan.waves.push_back(
              {start + interval * static_cast<std::int64_t>(b), n, center,
               spread, vip, false});
        }
        const SimTime ebb_at =
            start + interval * 4 + SimTime::from_sec(rng.next_double_in(
                                       2.0, plan.duration.sec() * 0.3));
        plan.departures.push_back({ebb_at, swell / 2, center});
        break;
      }
    }
    plan.offered_clients += share;
  }

  // ---- churn departures -----------------------------------------------------
  if (rng.next_bool(0.4)) {
    const std::size_t rounds = static_cast<std::size_t>(rng.next_in(1, 3));
    for (std::size_t r = 0; r < rounds; ++r) {
      const SimTime at = SimTime::from_sec(
          rng.next_double_in(plan.duration.sec() * 0.4,
                             plan.duration.sec() * 0.9));
      const std::size_t count =
          static_cast<std::size_t>(rng.next_in(10, 60));
      std::optional<Vec2> near;
      if (!centers.empty() && rng.next_bool(0.6)) {
        near = centers[rng.next_below(centers.size())];
      }
      plan.departures.push_back({at, count, near});
    }
  }

  // ---- observability: the ring must hold the WHOLE lifecycle history --------
  ObsConfig& obs = config.obs;
  obs.trace_enabled = true;
  obs.record_sends = false;  // the firehose would dwarf the lifecycle story
  static constexpr std::size_t kMultipliers[] = {1, 2, 4};
  const std::size_t mult = kMultipliers[rng.next_below(3)];
  obs.ring_capacity =
      pow2_at_least((plan.offered_clients * 160 + 16384) * mult);
  obs.span_capacity = pow2_at_least(plan.offered_clients * 8 + 1024);

  // ---- control-plane chaos (src/control/control_plane.h) -------------------
  // Drawn LAST, so every earlier stream (topology, knobs, crowd, obs) is
  // byte-identical to the pre-chaos corpus: old seeds keep their shapes.
  if (rng.next_bool(0.35)) {
    config.failsafe.enabled = true;
    FuzzChaos& chaos = plan.chaos;
    const double duration_sec = plan.duration.sec();
    const double tau2_sec = kFailsafeTau2.sec();
    if (rng.next_bool(0.6)) {
      // Hard outage: the MC process dies mid-run; 70% of the time a standby
      // revives after the failsafe has had time to reach FALLBACK.
      chaos.kill_at = SimTime::from_sec(
          rng.next_double_in(duration_sec * 0.25, duration_sec * 0.5));
      if (rng.next_bool(0.7)) {
        chaos.revive_at =
            chaos.kill_at + SimTime::from_sec(rng.next_double_in(
                                tau2_sec + 3.0, tau2_sec + 15.0));
      }
    } else {
      // Partition / lossy window: the MC lives, its links do not.  Half the
      // windows black-hole everything (a clean partition), half drop or
      // delay a fraction — the reordered/delayed control path that
      // stale-seq/stale-epoch admission exists for.
      chaos.degrade_at = SimTime::from_sec(
          rng.next_double_in(duration_sec * 0.25, duration_sec * 0.5));
      chaos.heal_at =
          chaos.degrade_at + SimTime::from_sec(rng.next_double_in(
                                 tau2_sec + 3.0, tau2_sec + 15.0));
      chaos.degraded = plan.deployment.lan;
      if (rng.next_bool(0.5)) {
        chaos.degraded.drop_probability = 1.0;
      } else {
        chaos.degraded.drop_probability = rng.next_double_in(0.2, 0.8);
        chaos.degraded.latency = SimTime::from_ms(
            rng.next_double_in(20.0, 300.0));
      }
    }
  } else if (rng.next_bool(0.25)) {
    // Failsafe armed with NO chaos: heartbeats stay fresh the whole run, so
    // the plane must remain a behavioural no-op (every invariant of a
    // healthy run still has to hold).
    config.failsafe.enabled = true;
  }

  return plan;
}

FuzzResult run_fuzz_case(std::uint64_t seed, LoadPolicyKind policy,
                         const FuzzRunOptions& options) {
  FuzzResult result;
  result.plan = make_fuzz_plan(seed, policy);

  DeploymentOptions deployment_options = result.plan.deployment;
  if (options.mutate) options.mutate(deployment_options);

  Deployment deployment(deployment_options);
  // The plan expands onto the shared fluent builder (sim/scenario.h) — the
  // same scheduling surface the canned and chaos scenarios use, so a fuzzed
  // run and a hand-written one differ only in where the numbers came from.
  ScenarioSpec spec;
  for (const FuzzWave& wave : result.plan.waves) {
    if (wave.background) {
      spec.background(wave.at, wave.count);
    } else {
      spec.flash(wave.at, wave.count, wave.center, wave.spread,
                 wave.vip_fraction);
    }
  }
  for (const FuzzDeparture& departure : result.plan.departures) {
    spec.depart(departure.at, departure.count, departure.near);
  }
  const FuzzChaos& chaos = result.plan.chaos;
  if (chaos.kill_at.us() != 0) {
    spec.kill_mc(chaos.kill_at);
    if (chaos.revive_at.us() != 0) spec.revive_mc(chaos.revive_at);
  }
  if (chaos.degrade_at.us() != 0) {
    spec.degrade_control_links(chaos.degrade_at, chaos.degraded);
    spec.degrade_control_links(chaos.heal_at, result.plan.deployment.lan);
  }
  spec.run_for(result.plan.duration).schedule(deployment);

  deployment.run_until(result.plan.duration);

  // Mid-run conservation: at any processed instant the trace-derived
  // playing/queued sets equal the live session tables exactly (sessions are
  // only ever created or erased at traced points), so a leak is visible
  // HERE — before the teardown byes at quiesce would mask it.
  InvariantOptions mid_options;
  mid_options.expect_quiesced = false;
  mid_options.lossy_control_links = chaos.lossy();
  const InvariantReport mid_report = check_deployment(deployment, mid_options);

  result.quiesced = quiesce(deployment);

  InvariantOptions invariant_options;
  invariant_options.expect_quiesced = true;
  invariant_options.lossy_control_links = chaos.lossy();
  result.report = check_deployment(deployment, invariant_options);

  // Fold mid-run findings in (details prefixed so a red run says when the
  // invariant tripped), deduplicating anything the final pass re-found.
  for (const InvariantViolation& violation : mid_report.violations) {
    bool duplicate = false;
    for (const InvariantViolation& final_violation : result.report.violations) {
      if (final_violation.invariant == violation.invariant &&
          final_violation.detail == violation.detail) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      result.report.add(violation.invariant, "mid-run: " + violation.detail);
    }
  }
  if (!result.quiesced) {
    result.report.add(kInvBlackhole,
                      "deployment did not quiesce within the drain budget");
  }

  if (options.capture_trace) {
    std::ostringstream jsonl;
    deployment.network().tracer().dump_jsonl(jsonl);
    result.trace_jsonl = jsonl.str();
  }
  return result;
}

}  // namespace matrix::fuzz
