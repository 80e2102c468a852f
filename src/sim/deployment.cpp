#include "sim/deployment.h"

#include <algorithm>
#include <cmath>

namespace matrix {

namespace {

/// Splits `world` into an n-tile grid (as square as possible) for the
/// initial/static server layout.
std::vector<Rect> grid_partitions(const Rect& world, std::size_t n) {
  std::vector<Rect> out;
  if (n == 0) return out;
  auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  // Distribute tiles row by row; the last row may be wider tiles so the
  // grid still exactly tiles the world.
  std::size_t made = 0;
  const double row_h = world.height() / static_cast<double>(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t remaining_rows = rows - r;
    const std::size_t in_this_row = std::min(
        cols, (n - made + remaining_rows - 1) / remaining_rows);
    const double col_w = world.width() / static_cast<double>(in_this_row);
    for (std::size_t c = 0; c < in_this_row; ++c) {
      const double x0 = world.x0() + col_w * static_cast<double>(c);
      const double y0 = world.y0() + row_h * static_cast<double>(r);
      // Snap the far edges to the world bounds to avoid float gaps.
      const double x1 =
          (c + 1 == in_this_row) ? world.x1() : x0 + col_w;
      const double y1 = (r + 1 == rows) ? world.y1() : y0 + row_h;
      out.emplace_back(x0, y0, x1, y1);
      ++made;
    }
  }
  return out;
}

}  // namespace

Deployment::Deployment(DeploymentOptions options)
    : options_(std::move(options)),
      network_(options_.seed),
      rng_(options_.seed * 0x9E3779B97F4A7C15ULL + 1) {
  // Parallel engine (src/net/network.h): shard the event queues before any
  // node attaches — configure_shards requires an empty network.
  network_.configure_shards(std::max<std::size_t>(1, options_.config.engine.shards),
                            options_.config.engine.threads);
  network_.set_scheduler(
      resolve_ladder_scheduler(options_.config.engine.ladder_scheduler)
          ? EventQueue::Scheduler::kLadder
          : EventQueue::Scheduler::kHeap);
  network_.set_default_link(options_.wan);

  // Observability (src/obs/): enable the tracer before any node attaches so
  // the flight recorder sees the deployment's whole life.  Recording is
  // passive — it sends nothing and draws no RNG — so traced runs stay
  // bit-identical to untraced ones (tests/determinism_test.cpp pins this).
  if (options_.config.obs.trace_enabled) {
    obs::TraceOptions trace;
    trace.ring_capacity = options_.config.obs.ring_capacity;
    trace.span_capacity = options_.config.obs.span_capacity;
    trace.record_sends = options_.config.obs.record_sends;
    network_.enable_tracing(trace);
  }

  coordinator_ = std::make_unique<Coordinator>(options_.config);
  coordinator_->set_generation(mc_generation_);
  // Shard plan: control-plane infrastructure (MC, pool) lives on shard 0;
  // each active root server pair takes a contiguous slab of the grid so
  // neighbouring regions — and their handoff chatter — tend to stay
  // intra-shard.  A matrix server and its co-located game server ALWAYS
  // share a shard, keeping the 30us co-located links out of the cross-shard
  // lookahead fold (the conservative window stays the 300us LAN latency).
  const NodeId mc_node = network_.attach(coordinator_.get(), options_.infra_node, 0);
  // Control-plane failsafe: the MC's liveness beat.  Started before any
  // server registers — the first broadcast round is empty, but
  // register_server sends each newcomer an immediate beat.
  if (options_.config.failsafe.enabled) coordinator_->start_heartbeats();
  pool_ = std::make_unique<ResourcePool>();
  pool_->configure(options_.config);  // grant-arbitration policy (src/policy/)
  const NodeId pool_node = network_.attach(pool_.get(), options_.infra_node, 0);
  // The pool reports occupancy to the MC, which rebroadcasts pool pressure
  // to every Matrix server (admission subsystem, src/control/).  Left
  // unwired when the valve is off so baseline runs carry zero extra
  // control traffic.
  if (options_.config.admission.enabled) pool_->wire(mc_node);

  const std::size_t total_servers =
      options_.initial_servers + options_.pool_size;
  std::vector<NodeId> infra_nodes{mc_node, pool_node};

  const std::size_t shard_count = network_.shard_count();
  for (std::size_t i = 0; i < total_servers; ++i) {
    const ServerId sid(i + 1);
    // Active root i owns grid tile i: contiguous slab mapping keeps adjacent
    // tiles on the same shard.  Pool spares round-robin across shards so the
    // servers a hotspot split activates don't all pile onto one queue.
    const std::size_t shard =
        i < options_.initial_servers && options_.initial_servers > 0
            ? i * shard_count / options_.initial_servers
            : (i - options_.initial_servers) % shard_count;
    auto matrix = std::make_unique<MatrixServer>(sid, options_.config);
    auto game =
        std::make_unique<GameServer>(sid, options_.spec, options_.config);
    const NodeId matrix_node =
        network_.attach(matrix.get(), options_.matrix_node, shard);
    const NodeId game_node = network_.attach(game.get(), options_.game_node, shard);
    matrix->wire({game_node, mc_node, pool_node});
    matrix->set_content_keys({"terrain/main.pak", "textures/atlas.pak",
                              "models/base.pak"});
    game->wire(matrix_node);
    network_.set_link_bidirectional(matrix_node, game_node,
                                    options_.colocated);
    // Both halves sit on one shard for the whole run, so the 30µs colocated
    // link above never bounds the cross-shard lookahead.
    infra_nodes.push_back(matrix_node);
    infra_nodes.push_back(game_node);

    matrix_ptrs_.push_back(matrix.get());
    game_ptrs_.push_back(game.get());
    matrix_servers_.push_back(std::move(matrix));
    game_servers_.push_back(std::move(game));
  }

  // LAN fabric between all infrastructure nodes, then restore the faster
  // co-located links between each game server and its Matrix server.
  for (std::size_t i = 0; i < infra_nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < infra_nodes.size(); ++j) {
      network_.set_link_bidirectional(infra_nodes[i], infra_nodes[j],
                                      options_.lan);
    }
  }
  for (std::size_t i = 0; i < matrix_ptrs_.size(); ++i) {
    network_.set_link_bidirectional(matrix_ptrs_[i]->node_id(),
                                    game_ptrs_[i]->node_id(),
                                    options_.colocated);
  }

  // Activate the initial grid; park the rest in the pool.
  const auto grid = grid_partitions(options_.config.world,
                                    options_.initial_servers);
  const auto radii = options_.spec.all_radii();
  const std::size_t objects_per_server =
      options_.initial_servers > 0
          ? options_.map_objects / options_.initial_servers
          : 0;
  for (std::size_t i = 0; i < options_.initial_servers; ++i) {
    matrix_ptrs_[i]->activate_root(grid[i], radii);
    game_ptrs_[i]->spawn_map_objects(objects_per_server, grid[i], rng_);
    game_ptrs_[i]->start();
  }
  for (std::size_t i = options_.initial_servers; i < total_servers; ++i) {
    pool_->add_entry({ServerId(i + 1), matrix_ptrs_[i]->node_id(),
                      game_ptrs_[i]->node_id()});
  }

  // Let registrations and initial overlap tables propagate.
  network_.run_until(network_.now() + SimTime::from_ms(50));
}

void Deployment::fail_over_coordinator() {
  kill_coordinator();
  revive_coordinator();
}

void Deployment::kill_coordinator() {
  if (!coordinator_alive()) return;
  // Kill the primary: undelivered control messages to it are lost, exactly
  // like a process crash.  Its heartbeat loop stops at the next firing (the
  // network drops a detached node's timers) — the resulting silence is what
  // drives every server's failsafe to HOLD and then FALLBACK.  The object
  // itself is kept so its partition map stays readable out of band (login
  // path).
  network_.detach(coordinator_->node_id());
}

void Deployment::revive_coordinator() {
  if (coordinator_alive()) return;
  retired_coordinators_.push_back(std::move(coordinator_));

  // Bring up the standby and tell every Matrix server (ops-driven
  // reconfiguration; a production system would use a failure detector).
  coordinator_ = std::make_unique<Coordinator>(options_.config);
  ++mc_generation_;
  coordinator_->set_generation(mc_generation_);
  const NodeId standby =
      network_.attach(coordinator_.get(), options_.infra_node, 0);
  for (MatrixServer* server : matrix_ptrs_) {
    network_.set_link_bidirectional(standby, server->node_id(), options_.lan);
    McAnnounce announce;
    announce.mc_node = standby;
    announce.generation = mc_generation_;
    network_.send(standby, server->node_id(),
                  encode_message(Message{announce}));
  }
  for (GameServer* game : game_ptrs_) {
    network_.set_link_bidirectional(standby, game->node_id(), options_.lan);
  }
  network_.set_link_bidirectional(standby, pool_->node_id(), options_.lan);
  if (options_.config.admission.enabled) {
    pool_->wire(standby);  // re-point occupancy reports at the new MC
  }
  if (options_.config.failsafe.enabled) coordinator_->start_heartbeats();
}

bool Deployment::coordinator_alive() const {
  return network_.attached(coordinator_->node_id());
}

void Deployment::set_control_links(const LinkConfig& link) {
  for (MatrixServer* server : matrix_ptrs_) {
    network_.set_link_bidirectional(coordinator_->node_id(),
                                    server->node_id(), link);
  }
}

std::size_t Deployment::active_server_count() const {
  std::size_t n = 0;
  for (const MatrixServer* server : matrix_ptrs_) {
    if (server->active()) ++n;
  }
  return n;
}

std::size_t Deployment::total_clients() const {
  std::size_t n = 0;
  for (const GameServer* server : game_ptrs_) n += server->client_count();
  return n;
}

bool Deployment::server_is_active(std::size_t index) const {
  return index < matrix_ptrs_.size() && matrix_ptrs_[index]->active();
}

GameServer* Deployment::server_for(Vec2 position) {
  // The login path: real games resolve the entry server through a lobby
  // service; we consult the coordinator's map directly (out of band).
  const PartitionEntry* owner =
      coordinator_->partition_map().owner_of(position);
  if (owner != nullptr) {
    for (GameServer* game : game_ptrs_) {
      if (game->node_id() == owner->game_node) return game;
    }
  }
  // Map not yet populated (very early in the run): fall back to the first
  // active server.
  for (std::size_t i = 0; i < matrix_ptrs_.size(); ++i) {
    if (matrix_ptrs_[i]->active()) return game_ptrs_[i];
  }
  return game_ptrs_.front();
}

BotClient* Deployment::add_bot(Vec2 position, std::optional<Vec2> attraction,
                               double attraction_spread, bool vip) {
  auto bot = std::make_unique<BotClient>(client_ids_.next(), options_.spec,
                                         options_.config.world, rng_.fork());
  // Resolve the entry server BEFORE attaching so the bot can land on that
  // server's shard — its WAN chatter then starts (and usually stays)
  // intra-shard until a handoff migrates it.
  GameServer* entry = server_for(position);
  network_.attach(bot.get(), options_.client_node,
                  network_.shard_of(entry->node_id()));
  bot->set_attraction(attraction, attraction_spread);
  bot->set_vip(vip);
  bot->join(entry->node_id(), position);
  BotClient* raw = bot.get();
  bot_ptrs_.push_back(raw);
  bots_.push_back(std::move(bot));
  return raw;
}

std::size_t Deployment::remove_bots(std::size_t count,
                                    std::optional<Vec2> near) {
  std::vector<BotClient*> candidates;
  for (BotClient* bot : bot_ptrs_) {
    if (bot->connected()) candidates.push_back(bot);
  }
  if (near) {
    std::sort(candidates.begin(), candidates.end(),
              [&](const BotClient* a, const BotClient* b) {
                return Vec2::distance_sq(a->position(), *near) <
                       Vec2::distance_sq(b->position(), *near);
              });
  }
  const std::size_t n = std::min(count, candidates.size());
  for (std::size_t i = 0; i < n; ++i) candidates[i]->leave();
  return n;
}

}  // namespace matrix
