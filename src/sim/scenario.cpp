#include "sim/scenario.h"

#include <algorithm>

namespace matrix {

ScenarioSpec& ScenarioSpec::background(SimTime at, std::size_t count) {
  Action action;
  action.kind = Action::Kind::kBackground;
  action.at = at;
  action.count = count;
  actions_.push_back(action);
  offered_ += count;
  return *this;
}

ScenarioSpec& ScenarioSpec::flash(SimTime at, std::size_t count, Vec2 center,
                                  double spread, double vip_fraction) {
  Action action;
  action.kind = Action::Kind::kFlash;
  action.at = at;
  action.count = count;
  action.center = center;
  action.spread = spread;
  action.vip_fraction = vip_fraction;
  actions_.push_back(action);
  offered_ += count;
  return *this;
}

ScenarioSpec& ScenarioSpec::ramp(SimTime from, std::size_t total,
                                 std::size_t batch, SimTime interval,
                                 Vec2 center, double spread,
                                 double vip_fraction) {
  SimTime t = from;
  for (std::size_t joined = 0; joined < total;) {
    // batch 0 would never advance; treat it as "everyone at once".
    const std::size_t n =
        std::min(batch > 0 ? batch : total, total - joined);
    flash(t, n, center, spread, vip_fraction);
    joined += n;
    t = t + interval;
  }
  return *this;
}

ScenarioSpec& ScenarioSpec::depart(SimTime at, std::size_t count,
                                   std::optional<Vec2> near) {
  Action action;
  action.kind = Action::Kind::kDepart;
  action.at = at;
  action.count = count;
  action.near = near;
  actions_.push_back(action);
  return *this;
}

ScenarioSpec& ScenarioSpec::departures(SimTime from, std::size_t total,
                                       std::size_t batch, SimTime interval,
                                       std::optional<Vec2> near) {
  SimTime t = from;
  for (std::size_t left = 0; left < total;) {
    const std::size_t n = std::min(batch > 0 ? batch : total, total - left);
    depart(t, n, near);
    left += n;
    t = t + interval;
  }
  return *this;
}

ScenarioSpec& ScenarioSpec::kill_mc(SimTime at) {
  Action action;
  action.kind = Action::Kind::kKillMc;
  action.at = at;
  actions_.push_back(action);
  return *this;
}

ScenarioSpec& ScenarioSpec::revive_mc(SimTime at) {
  Action action;
  action.kind = Action::Kind::kReviveMc;
  action.at = at;
  actions_.push_back(action);
  return *this;
}

ScenarioSpec& ScenarioSpec::degrade_control_links(SimTime at,
                                                  const LinkConfig& link) {
  Action action;
  action.kind = Action::Kind::kControlLink;
  action.at = at;
  action.link = link;
  actions_.push_back(action);
  return *this;
}

ScenarioSpec& ScenarioSpec::run_for(SimTime duration) {
  duration_ = duration;
  return *this;
}

void ScenarioSpec::schedule(Deployment& deployment) const {
  // The closures capture the Deployment by pointer, not the spec: a spec is
  // often a short-lived builder that dies long before its events fire.
  Deployment* d = &deployment;
  EventQueue& events = deployment.network().events();
  for (const Action& action : actions_) {
    switch (action.kind) {
      case Action::Kind::kBackground:
        events.schedule_at(action.at, [d, count = action.count] {
          const Rect& world = d->options().config.world;
          Rng& rng = d->rng();
          for (std::size_t i = 0; i < count; ++i) {
            d->add_bot({rng.next_double_in(world.x0(), world.x1()),
                        rng.next_double_in(world.y0(), world.y1())});
          }
        });
        break;
      case Action::Kind::kFlash:
        events.schedule_at(
            action.at,
            [d, count = action.count, center = action.center,
             spread = action.spread, vip_fraction = action.vip_fraction] {
              Rng& rng = d->rng();
              const Rect& world = d->options().config.world;
              for (std::size_t i = 0; i < count; ++i) {
                const Vec2 pos =
                    world.clamp(center + Vec2{rng.next_normal() * spread,
                                              rng.next_normal() * spread});
                // The VIP coin is drawn only for a VIP mix, so a plain
                // hotspot wave leaves the RNG stream untouched.
                const bool vip =
                    vip_fraction > 0.0 && rng.next_double() < vip_fraction;
                d->add_bot(pos, center, spread, vip);
              }
            });
        break;
      case Action::Kind::kDepart:
        events.schedule_at(action.at,
                           [d, count = action.count, near = action.near] {
                             d->remove_bots(count, near);
                           });
        break;
      case Action::Kind::kKillMc:
        events.schedule_at(action.at, [d] { d->kill_coordinator(); });
        break;
      case Action::Kind::kReviveMc:
        events.schedule_at(action.at, [d] { d->revive_coordinator(); });
        break;
      case Action::Kind::kControlLink:
        events.schedule_at(action.at, [d, link = action.link] {
          d->set_control_links(link);
        });
        break;
    }
  }
}

namespace {

/// The simultaneous surges of the multi-partition and contested-pool
/// scenarios: center `s` ramps from flash_at + s × `stagger`, then this
/// fraction of each crowd leaves near its center.  Both options structs
/// share these field names.
template <typename Options>
void schedule_multi_center(Deployment& deployment, const Options& options,
                           SimTime stagger) {
  ScenarioSpec spec;
  spec.background(SimTime::from_ms(100), options.background_bots);
  const std::size_t surges =
      std::min(options.centers.size(), options.flash_bots.size());
  for (std::size_t s = 0; s < surges; ++s) {
    spec.ramp(options.flash_at + stagger * s, options.flash_bots[s],
              options.join_batch, options.join_interval, options.centers[s],
              options.spread, options.vip_fraction);
  }
  // Departures near every center, proportional to its crowd.
  for (std::size_t s = 0; s < surges; ++s) {
    spec.departures(options.leave_at,
                    static_cast<std::size_t>(
                        options.leave_fraction *
                        static_cast<double>(options.flash_bots[s])),
                    options.leave_batch, options.leave_interval,
                    options.centers[s]);
  }
  spec.schedule(deployment);
}

/// The mega and giga surges: an hx × hy grid of flash crowds spread evenly
/// over the world, so the crowd lands on every partition of a grid
/// deployment at once — sustained deployment-wide message pressure rather
/// than one collapsing partition.  Both options structs share these names.
template <typename Options>
void schedule_grid_surge(Deployment& deployment, const Options& options) {
  ScenarioSpec spec;
  spec.background(SimTime::from_ms(100), options.background_bots);
  const Rect& world = deployment.options().config.world;
  const double cell_w =
      (world.x1() - world.x0()) / static_cast<double>(options.hotspots_x);
  const double cell_h =
      (world.y1() - world.y0()) / static_cast<double>(options.hotspots_y);
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

}  // namespace

void schedule_hotspot_scenario(Deployment& deployment,
                               const HotspotScenarioOptions& options) {
  constexpr double kSpread = 20.0;
  ScenarioSpec spec;
  // Background population from the start; then the first hotspot, a flash
  // crowd joining at one point (paper: "a hotspot of 600 clients ...
  // introduced at around the 10 second mark"), dissipating in groups at
  // fixed intervals (paper: "indicated by 200 clients disappearing at fixed
  // intervals").
  spec.background(SimTime::from_ms(100), options.background_bots)
      .flash(options.first_hotspot_at, options.hotspot_bots,
             options.first_hotspot, kSpread)
      .departures(options.first_hotspot_at + options.hold,
                  options.hotspot_bots, options.departure_group,
                  options.departure_interval, options.first_hotspot);
  // Second hotspot at a different location (paper: "reintroduced at a
  // different position in the world at 170 seconds").
  if (options.second_hotspot) {
    spec.flash(options.second_hotspot_at, options.second_hotspot_bots,
               options.second_hotspot_center, kSpread)
        .departures(options.second_hotspot_at + options.second_hold,
                    options.second_hotspot_bots, options.departure_group,
                    options.departure_interval,
                    options.second_hotspot_center);
  }
  spec.schedule(deployment);
}

void schedule_overload_scenario(Deployment& deployment,
                                const OverloadScenarioOptions& options) {
  // The flash crowd arrives in waves, not one instant dump: real flash
  // crowds ramp, and the ramp is what lets splits race the arrivals until
  // the pool runs dry.
  ScenarioSpec()
      .background(SimTime::from_ms(100), options.background_bots)
      .ramp(options.flash_at, options.flash_bots, options.join_batch,
            options.join_interval, options.center, options.spread)
      .schedule(deployment);
}

void schedule_surge_scenario(Deployment& deployment,
                             const SurgeScenarioOptions& options) {
  // The overload ramp with a VIP share, so the queue's priority classes
  // have something to sort; then recovery departures free capacity, letting
  // the valve relax and the waiting room drain.
  ScenarioSpec()
      .background(SimTime::from_ms(100), options.background_bots)
      .ramp(options.flash_at, options.flash_bots, options.join_batch,
            options.join_interval, options.center, options.spread,
            options.vip_fraction)
      .departures(options.leave_at, options.leave_bots, options.leave_batch,
                  options.leave_interval, options.center)
      .schedule(deployment);
}

void schedule_multi_partition_surge_scenario(
    Deployment& deployment,
    const MultiPartitionSurgeScenarioOptions& options) {
  // All surges ramp in lock-step waves — simultaneous saturation is the
  // point of this scenario.
  schedule_multi_center(deployment, options, SimTime{});
}

void schedule_contested_pool_scenario(
    Deployment& deployment, const ContestedPoolScenarioOptions& options) {
  // What makes the scenario "contested" is (a) running MORE surges than the
  // deployment parks spares (the caller's pool_size), so every PoolAcquire
  // races the others for the same server, and (b) the per-center stagger,
  // which decouples WHO ASKS FIRST from WHO NEEDS IT MOST.
  schedule_multi_center(deployment, options, options.flash_stagger);
}

void schedule_mega_surge_scenario(Deployment& deployment,
                                  const MegaSurgeScenarioOptions& options) {
  schedule_grid_surge(deployment, options);
}

void schedule_giga_surge_scenario(Deployment& deployment,
                                  const GigaSurgeScenarioOptions& options) {
  schedule_grid_surge(deployment, options);
}

std::size_t deployment_capacity_clients(const Deployment& deployment) {
  return deployment.game_servers().size() *
         deployment.options().config.overload_clients;
}

void schedule_mc_outage_scenario(Deployment& deployment,
                                 const McOutageScenarioOptions& options) {
  ScenarioSpec spec;
  spec.background(SimTime::from_ms(100), options.load.background_bots)
      .ramp(options.load.flash_at, options.load.flash_bots,
            options.load.join_batch, options.load.join_interval,
            options.load.center, options.load.spread)
      .kill_mc(options.kill_at);
  if (options.revive_at.us() != 0) spec.revive_mc(options.revive_at);
  spec.run_for(options.load.duration).schedule(deployment);
}

void schedule_control_partition_scenario(
    Deployment& deployment, const ControlPartitionScenarioOptions& options) {
  ScenarioSpec()
      .background(SimTime::from_ms(100), options.load.background_bots)
      .ramp(options.load.flash_at, options.load.flash_bots,
            options.load.join_batch, options.load.join_interval,
            options.load.center, options.load.spread)
      .degrade_control_links(options.partition_at, options.degraded)
      .degrade_control_links(options.heal_at, options.healed)
      .run_for(options.load.duration)
      .schedule(deployment);
}

}  // namespace matrix
