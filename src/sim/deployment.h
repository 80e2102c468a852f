// Deployment — wires a complete Matrix system onto a simulated network.
//
// One Deployment owns: the network, the Matrix Coordinator, the resource
// pool, every (Matrix server, game server) pair — active roots plus pooled
// spares — and all bot clients.  It corresponds to "what the operators rack
// and boot" in the paper's evaluation: the initial grid of servers, the
// spare pool Matrix draws from during hotspots, and the link fabric (LAN
// between servers, WAN to clients, loopback-fast between co-located game
// and Matrix processes).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/coordinator.h"
#include "core/matrix_server.h"
#include "core/resource_pool.h"
#include "game/bot_client.h"
#include "game/game_model.h"
#include "game/game_server.h"
#include "net/network.h"

namespace matrix {

struct DeploymentOptions {
  Config config;
  GameModelSpec spec;

  /// Servers active at t=0, tiled as a grid over the world.  1 reproduces
  /// the paper's Matrix runs (grow on demand); N>1 with allow_split=false
  /// reproduces the static-partitioning baseline.
  std::size_t initial_servers = 1;
  /// Spare servers parked in the resource pool.
  std::size_t pool_size = 8;
  /// Map objects seeded across the world at t=0.
  std::size_t map_objects = 200;

  std::uint64_t seed = 42;

  // Link fabric.  Clients ride the default (WAN) link; server-to-server,
  // server-to-MC and server-to-pool links are LAN; each game server and its
  // Matrix server are co-located (paper §3.2.2).
  LinkConfig wan{SimTime::from_ms(25), 12.5e6, 0.0};    // 100 Mbps, 25 ms
  LinkConfig lan{SimTime::from_us(300), 125e6, 0.0};    // 1 Gbps, 0.3 ms
  LinkConfig colocated{SimTime::from_us(30), 1.25e9, 0.0};

  // Service capacities.  The game-server figure is the deployment's real
  // bottleneck (the paper's asymptotic analysis: per-server I/O bounds
  // scalability): 200 µs/message ⇒ ~5k msg/s, so 300 clients at 10 Hz is
  // ~60% utilisation and a 600-client hotspot is ~120% — queues grow until
  // Matrix splits, which is exactly Fig. 2b's shape.
  NodeConfig game_node{SimTime::from_us(200), SimTime::from_us(2),
                       std::nullopt};
  NodeConfig matrix_node{SimTime::from_us(20), SimTime::from_us(1),
                         std::nullopt};
  NodeConfig infra_node{SimTime::from_us(20), SimTime::from_us(1),
                        std::nullopt};
  NodeConfig client_node{SimTime::from_us(5), SimTime::from_us(1),
                         std::nullopt};
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] const DeploymentOptions& options() const { return options_; }
  [[nodiscard]] Coordinator& coordinator() { return *coordinator_; }
  [[nodiscard]] const Coordinator& coordinator() const { return *coordinator_; }
  [[nodiscard]] ResourcePool& pool() { return *pool_; }

  /// All server pairs, active and pooled, in ServerId order.
  [[nodiscard]] const std::vector<MatrixServer*>& matrix_servers() const {
    return matrix_ptrs_;
  }
  [[nodiscard]] const std::vector<GameServer*>& game_servers() const {
    return game_ptrs_;
  }
  [[nodiscard]] const std::vector<BotClient*>& bots() const {
    return bot_ptrs_;
  }
  /// Bytes of the deployment's own per-bot bookkeeping (the owning and
  /// the exposed pointer tables), for the game.mem.bot_bytes gauge.
  [[nodiscard]] std::size_t bot_table_bytes() const {
    return bots_.capacity() * sizeof(bots_[0]) +
           bot_ptrs_.capacity() * sizeof(bot_ptrs_[0]);
  }

  /// Number of Matrix servers currently owning a partition.
  [[nodiscard]] std::size_t active_server_count() const;
  /// Clients across all game servers.
  [[nodiscard]] std::size_t total_clients() const;

  /// Creates a bot and connects it to the server owning `position`
  /// (resolved through the coordinator's map — the stand-in for the game's
  /// login service).  `vip` rides the surge queue's priority classes
  /// (src/control/surge_queue.h).  Returns the bot for scripting.
  BotClient* add_bot(Vec2 position,
                     std::optional<Vec2> attraction = std::nullopt,
                     double attraction_spread = 15.0, bool vip = false);

  /// Disconnects `count` bots, preferring those closest to `near` when
  /// given (hotspot dissipation removes hotspot bots, not random ones).
  std::size_t remove_bots(std::size_t count,
                          std::optional<Vec2> near = std::nullopt);

  /// Advances simulated time.
  void run_until(SimTime t) { network_.run_until(t); }

  /// Kills the current Matrix Coordinator and brings up a fresh standby
  /// (the paper's "well understood replication techniques" note, §3.2.4).
  /// The standby rebuilds the partition map from the re-registrations its
  /// McAnnounce solicits; routing continues uninterrupted throughout
  /// because overlap tables live on the Matrix servers.  Equivalent to
  /// kill_coordinator() immediately followed by revive_coordinator().
  void fail_over_coordinator();

  /// Kills the current MC and brings up NO standby: control messages to it
  /// are lost and its heartbeats fall silent — the failsafe outage the
  /// control plane (src/control/control_plane.h) is built to survive.  The
  /// dead MC's partition map stays readable, so the out-of-band login path
  /// (add_bot → server_for) keeps resolving entry servers, exactly like a
  /// lobby service holding a cached map.
  void kill_coordinator();

  /// Brings up a fresh standby MC (next generation) after
  /// kill_coordinator(): announces it to every Matrix server, re-points the
  /// pool, and restarts heartbeats.  No-op if the MC is alive.
  void revive_coordinator();

  /// True while the current MC is attached (not killed).
  [[nodiscard]] bool coordinator_alive() const;

  /// Re-links every Matrix server to the MC with `link` in both directions
  /// — the chaos knob for control-plane partitions (drop 1.0) and slow /
  /// lossy control paths.  Data-plane and client links are untouched.
  void set_control_links(const LinkConfig& link);

  /// True while the nodes of `server` index are attached/usable.
  [[nodiscard]] bool server_is_active(std::size_t index) const;

  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  GameServer* server_for(Vec2 position);

  DeploymentOptions options_;
  Network network_;
  Rng rng_;

  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Coordinator>> retired_coordinators_;
  std::uint64_t mc_generation_ = 1;
  std::unique_ptr<ResourcePool> pool_;
  std::vector<std::unique_ptr<MatrixServer>> matrix_servers_;
  std::vector<std::unique_ptr<GameServer>> game_servers_;
  std::vector<std::unique_ptr<BotClient>> bots_;
  std::vector<MatrixServer*> matrix_ptrs_;
  std::vector<GameServer*> game_ptrs_;
  std::vector<BotClient*> bot_ptrs_;
  IdGenerator<ClientId> client_ids_;
};

}  // namespace matrix
