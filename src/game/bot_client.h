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
#include <memory>
#include <optional>
#include <string>

#include "core/protocol_node.h"
#include "game/game_model.h"
#include "geometry/rect.h"
#include "util/rng.h"
#include "util/stats.h"

namespace matrix {

/// Send times of a bot's recent actions, for self-latency pairing.  Actions
/// carry consecutive seqs from 1; an ack of `seq` pairs with its action's
/// send time exactly when
///     seq < next_seq <= seq + kSpan
/// and that action was not paired before, so a sample is lost only when the
/// ack trails its action by a full window of newer actions (>=12.8 s at
/// 10 Hz) and a duplicate ack pairs once.
///
/// Storage covers only the live range [base_, next_): base_ advances past
/// paired entries and past the window edge.  Nearly every bot has at most
/// one action awaiting its ack, so the ring lives in kInlineSlots inline
/// slots and spills to a heap ring (doubling, power of two, at most kSpan
/// slots) only while acks go missing or trail several newer actions.  No
/// stored seq is needed: slot `seq & mask_` holds action `seq` for every
/// seq in the live range.
class AckWindow {
 public:
  static constexpr std::uint32_t kSpan = 128;
  static constexpr std::uint32_t kInlineSlots = 4;

  /// Records the send time of the next action; returns its seq.
  std::uint32_t push(SimTime sent_at) {
    const std::uint32_t seq = next_++;
    if (next_ - base_ > kSpan) {
      base_ = next_ - kSpan;  // the oldest entry left the window
      skip_consumed(seq);
    }
    if (next_ - base_ > mask_ + 1) grow(seq);
    slots()[seq & mask_] = sent_at;
    return seq;
  }

  /// The send time of action `seq` if its ack pairs now (see the class
  /// comment), marking it paired.
  [[nodiscard]] std::optional<SimTime> take(std::uint32_t seq) {
    if (seq < base_ || seq >= next_) return std::nullopt;
    SimTime& slot = slots()[seq & mask_];
    if (slot == kConsumed) return std::nullopt;
    const SimTime sent_at = slot;
    slot = kConsumed;
    if (seq == base_) skip_consumed(next_);
    return sent_at;
  }

  /// Ring slots currently allocated (kInlineSlots until the first spill).
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  /// Heap bytes owned beyond the object itself (the spilled ring).
  [[nodiscard]] std::size_t heap_bytes() const {
    return spill_ ? capacity() * sizeof(SimTime) : 0;
  }

 private:
  static constexpr SimTime kConsumed = SimTime::from_us(-1);

  [[nodiscard]] SimTime* slots() {
    return spill_ ? spill_.get() : inline_.data();
  }

  /// Advances base_ past paired entries, stopping at `end`.
  void skip_consumed(std::uint32_t end) {
    while (base_ < end && slots()[base_ & mask_] == kConsumed) ++base_;
  }

  /// Doubles the ring until the live range [base_, next_) fits, re-filing
  /// the entries [base_, end) already held.
  void grow(std::uint32_t end) {
    std::uint32_t capacity = (mask_ + 1) * 2;
    while (capacity < next_ - base_) capacity *= 2;
    auto grown = std::make_unique<SimTime[]>(capacity);
    const SimTime* old = slots();
    for (std::uint32_t seq = base_; seq < end; ++seq) {
      grown[seq & (capacity - 1)] = old[seq & mask_];
    }
    spill_ = std::move(grown);
    mask_ = capacity - 1;
  }

  std::array<SimTime, kInlineSlots> inline_{};
  std::unique_ptr<SimTime[]> spill_;  ///< replaces inline_ once spilled
  std::uint32_t base_ = 1;  ///< oldest seq that may still pair
  std::uint32_t next_ = 1;  ///< seq of the next action
  std::uint32_t mask_ = kInlineSlots - 1;
};

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

  /// Heap bytes the bot owns beyond sizeof(BotClient): the spilled ack
  /// ring plus the sample capacity of the latency histograms.
  [[nodiscard]] std::size_t heap_bytes() const {
    return ack_window_.heap_bytes() +
           metrics_.self_latency_ms.capacity_bytes() +
           metrics_.observer_latency_ms.capacity_bytes() +
           metrics_.switch_latency_ms.capacity_bytes();
  }

 protected:
  void on_message(const Message& message, const Envelope& envelope) override;
  /// Frame fast path: ServerUpdates — the one message a bot receives at
  /// tick rate — and waiting-room QueueUpdates are handled only here, from
  /// zero-copy partial parses (only ack_seq and the origin timestamp
  /// matter; the digest payload is opaque).
  bool on_frame(const Envelope& envelope) override;
  void on_timer(std::uint8_t timer, std::uint64_t epoch) override;

 private:
  /// Timer ids; each timer's argument is the play epoch it was armed in.
  enum Timer : std::uint8_t { kActionTimer, kJoinRetryTimer };

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

  AckWindow ack_window_;

  // Switch measurement.
  bool switch_pending_ = false;
  std::uint32_t switch_seq_ = 0;
  SimTime redirect_received_at_{};

  Metrics metrics_;
};

}  // namespace matrix
