// Bot clients — the reproduction's players.
//
// Each bot is a scripted game client: it wanders the world (optionally
// pulled toward a hotspot), emits actions at its game model's rate, and is
// entirely unaware of Matrix — it only ever talks to "its" game server and
// obeys Redirect orders, exactly the transparency the paper's §3.2.1 claims
// for real clients.
//
// Bots double as the measurement instruments of the user-study substitute:
//   * self latency    — own action → ack from the home server;
//   * observer latency — a remote event's origin timestamp → digest arrival;
//   * switch latency  — Redirect received → Welcome from the new server;
//   * time-to-admit   — first join attempt → first Welcome (the waiting-room
//     metric: how long the valve + surge queue kept the player out).
//
// When the server runs the surge queue (src/control/surge_queue.h) a gated
// bot receives QueueUpdate instead of JoinDefer: it parks quietly and waits
// for the server to admit it — no retry traffic at all.  A bot can be
// flagged VIP (set_vip) to ride the queue's priority classes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "core/protocol_node.h"
#include "game/game_model.h"
#include "geometry/rect.h"
#include "util/rng.h"
#include "util/stats.h"

namespace matrix {

class BotClient : public ProtocolNode {
 public:
  /// `spec` is referenced, not copied: it must outlive the bot (the owning
  /// deployment's options hold it).
  BotClient(ClientId id, const GameModelSpec& spec, Rect world, Rng rng)
      : id_(id), spec_(&spec), world_(world), rng_(rng) {}
  BotClient(ClientId, GameModelSpec&&, Rect, Rng) = delete;  // would dangle

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] ClientId client_id() const { return id_; }
  [[nodiscard]] Vec2 position() const { return position_; }
  [[nodiscard]] bool connected() const { return connected_; }
  /// True once any Welcome has been received — distinguishes an admitted
  /// client (whose session must never be cut) from one that was denied or
  /// is still deferred at the valve.
  [[nodiscard]] bool ever_connected() const { return ever_connected_; }
  /// True while a JoinDefer retry is scheduled.
  [[nodiscard]] bool defer_pending() const { return defer_pending_; }
  /// True while parked in a server-side surge queue (QueueUpdate received,
  /// Welcome still pending).
  [[nodiscard]] bool queue_pending() const { return queued_; }
  [[nodiscard]] NodeId current_server() const { return server_node_; }

  /// Marks this bot as VIP for the surge queue's priority classes.  Takes
  /// effect on the next join().
  void set_vip(bool vip) { vip_ = vip; }
  [[nodiscard]] bool vip() const { return vip_; }

  /// Time of the first join() attempt ever (valid once ever_joined()).
  /// With time_to_admit_ms this lets a bench censor never-admitted bots at
  /// run end instead of silently dropping them from wait statistics.
  [[nodiscard]] bool ever_joined() const { return ever_joined_; }
  [[nodiscard]] SimTime first_join_at() const { return first_join_at_; }

  /// Connects to `game_server` at `position` and starts the action loop.
  void join(NodeId game_server, Vec2 position);

  /// Says goodbye and stops acting.  The bot can join() again later.
  void leave();

  /// Pulls the bot's movement toward `point` (std::nullopt resumes free
  /// wandering).  `spread` is the standard deviation of the bot's waypoints
  /// around the point — the hotspot's footprint.  A town-square hotspot has
  /// a footprint of tens to hundreds of world units; this is what lets map
  /// cuts eventually divide the crowd (and what the paper's Fig. 2 implies,
  /// since its 600-client hotspot was absorbed by ~4 servers).
  void set_attraction(std::optional<Vec2> point, double spread = 15.0) {
    attraction_ = point;
    attraction_spread_ = spread;
  }
  /// The hotspot this bot is pinned to, if any — lets a bench attribute
  /// bots to their surge center without re-deriving it from positions.
  [[nodiscard]] const std::optional<Vec2>& attraction() const {
    return attraction_;
  }

  // ---- measurement ----------------------------------------------------------

  struct Metrics {
    Histogram self_latency_ms;      ///< action → own ack
    Histogram observer_latency_ms;  ///< remote event origin → digest arrival
    Histogram switch_latency_ms;    ///< redirect → welcome
    std::uint64_t actions_sent = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t switches = 0;
    std::uint64_t joins_denied = 0;    ///< JoinDeny received (gave up)
    std::uint64_t joins_deferred = 0;  ///< JoinDefer received (will retry)
    std::uint64_t queue_updates = 0;   ///< QueueUpdate received (waiting room)
    std::uint32_t max_queue_position = 0;  ///< worst rank seen while parked
    /// First join attempt → first Welcome, in ms; negative while never
    /// admitted.  The per-class drain metric of bench_surge_queue.
    double time_to_admit_ms = -1.0;
  };
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }

 protected:
  void on_message(const Message& message, const Envelope& envelope) override;
  /// Frame fast path: ServerUpdates — the one message a bot receives at
  /// tick rate — are handled from a zero-copy partial parse (only ack_seq
  /// and the origin timestamp matter; the digest payload is opaque).
  bool on_frame(const Envelope& envelope) override;

 private:
  void schedule_next_action();
  void act();
  void move(double dt_sec);
  [[nodiscard]] ActionKind choose_kind();

  ClientId id_;
  const GameModelSpec* spec_;
  Rect world_;
  Rng rng_;

  NodeId server_node_;
  bool connected_ = false;
  bool playing_ = false;
  bool ever_connected_ = false;
  bool defer_pending_ = false;
  bool queued_ = false;  ///< parked in a server-side surge queue
  bool vip_ = false;
  bool ever_joined_ = false;
  SimTime first_join_at_{};  ///< for the time-to-admit metric
  std::uint64_t play_epoch_ = 0;  ///< guards stale action timers

  Vec2 position_;
  Vec2 waypoint_;
  std::optional<Vec2> attraction_;
  double attraction_spread_ = 15.0;
  SimTime last_move_at_{};

  /// Samples self latency for an ack of `ack_seq` at most once.
  void pair_ack(std::uint32_t ack_seq);

  std::uint32_t next_seq_ = 1;
  // Send times of the last kAckWindow actions for self-latency pairing: a
  // fixed ring indexed by seq % kAckWindow, overwritten as newer actions go
  // out — zero per-action allocation (this is the bot hot path).  Slot
  // seq % kAckWindow holds action `seq` exactly while
  //     seq < next_seq_ <= seq + kAckWindow
  // and the slot is not kConsumed, so the ring needs no stored seq.  A
  // sample is lost only when the ack trails its action by a full window of
  // newer actions (>=12.8 s at 10 Hz); a duplicate ack pairs once.
  static constexpr std::size_t kAckWindow = 128;
  static constexpr SimTime kConsumed = SimTime::from_us(-1);
  std::array<SimTime, kAckWindow> sent_at_{};

  // Switch measurement.
  bool switch_pending_ = false;
  std::uint32_t switch_seq_ = 0;
  SimTime redirect_received_at_{};

  Metrics metrics_;
};

}  // namespace matrix
