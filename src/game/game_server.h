// Generic game server (paper §3.2.2).
//
// "The game server is the software that stores the state of the game world
// and coordinates the activity of the players."  This implementation is the
// game-side half of the Matrix contract, written only against the MatrixPort
// API — exactly the modification surface the paper claims a real game needs
// ("relatively simple modifications to the server code"):
//
//   * owns client sessions, avatars, and map objects in its authority range;
//   * tags every client packet with world coordinates and forwards it to
//     Matrix (it never talks to other game servers directly, except through
//     Matrix relays);
//   * applies range-verified remote events from Matrix to local ghosts and
//     rebroadcasts them to interested local clients;
//   * reports load periodically;
//   * obeys MapRange orders: transfers map-object state, hands off clients
//     to the named successor, and acknowledges with ShedDone;
//   * migrates clients that walk out of its range, using Matrix's owner
//     lookup to find the right destination;
//   * enforces the admission valve (src/control/): its Matrix server pushes
//     NORMAL/SOFT/HARD via AdmissionUpdate, and NEW joins are denied (HARD)
//     or token-budgeted (SOFT) with JoinDeny/JoinDefer.  Resumed joins —
//     redirects and boundary migrations — always pass: protection sheds new
//     load, never live sessions;
//   * optionally runs the surge-queue "waiting room"
//     (src/control/surge_queue.h): gated joins are parked in a bounded
//     priority queue (RESUME > VIP > NORMAL, aged against starvation) and
//     drained as the token budget refills or the valve relaxes, with
//     QueueUpdate position/ETA notifications replacing client-side
//     defer-retry loops;
//   * under coordinator-led global admission (src/control/
//     global_admission.h) the same AdmissionUpdate carries the directive's
//     token-budget share, swapped into its join bucket, and active flag
//     (the floor arrives already composed into the state); it bounds the
//     VIP share of each drain burst (`priority.vip_drain_cap`), and — while a
//     directive is active — hands parked joins displaced by a split or
//     reclaim to the server that now owns their region (class and accrued
//     age preserved) instead of flushing them to client-side retry.
//
// Game-genre specifics (rates, payload sizes, radius) come from the injected
// GameModelSpec; the server logic itself is game-agnostic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/matrix_port.h"
#include "control/admission.h"
#include "control/control_plane.h"
#include "control/surge_queue.h"
#include "control/token_bucket.h"
#include "core/config.h"
#include "core/protocol_node.h"
#include "game/entity.h"
#include "game/ghost_table.h"
#include "game/game_model.h"
#include "policy/load_view.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/stats.h"

namespace matrix {

class GameServer : public ProtocolNode {
 public:
  GameServer(ServerId id, GameModelSpec spec, Config config)
      : id_(id), spec_(std::move(spec)), config_(std::move(config)) {}

  /// Connects this game server to its co-located Matrix server.  Must be
  /// called after both nodes are attached to the network.
  void wire(NodeId matrix_node);

  /// Begins periodic load reporting and update ticks.
  void start();

  /// Seeds `count` map objects uniformly over `area` (deployment-time, on
  /// root servers only; subsequent ownership moves via state transfer).
  void spawn_map_objects(std::size_t count, const Rect& area, Rng& rng);

  // ---- observability --------------------------------------------------------

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] ServerId server_id() const { return id_; }
  [[nodiscard]] const Rect& authority() const { return authority_; }
  [[nodiscard]] std::size_t client_count() const { return sessions_.size(); }
  [[nodiscard]] std::size_t map_object_count() const {
    return map_objects_.size();
  }
  [[nodiscard]] std::size_t ghost_count() const { return ghosts_.size(); }
  /// Allocated bytes of the per-client and per-tick tables (the game.mem.*
  /// gauges): capacity, not occupancy, so they track what RSS pays for.
  struct MemoryBytes {
    std::size_t sessions = 0;
    std::size_t ghosts = 0;
    std::size_t grid = 0;
  };
  [[nodiscard]] MemoryBytes memory_bytes() const {
    return {sessions_.bytes(), ghosts_.bytes(),
            grid_keys_.capacity() * sizeof(std::uint64_t) +
                (grid_counts_.capacity() + grid_stamps_.capacity()) *
                    sizeof(std::uint32_t)};
  }
  [[nodiscard]] const GameModelSpec& spec() const { return spec_; }
  /// Admission state last pushed by the co-located Matrix server — the
  /// state the join gate enforces.  The Matrix server composes it (local
  /// valve and coordinator directive floor, strictest wins) before pushing.
  [[nodiscard]] AdmissionState admission_state() const {
    return admission_state_;
  }
  /// True while a coordinator directive is in force here.
  [[nodiscard]] bool directive_active() const { return directive_active_; }
  /// The join bucket's refill rate: the directive's token-budget share
  /// while one is in force, the local config rate otherwise.
  [[nodiscard]] double join_token_rate() const { return join_bucket_.rate(); }
  /// The seq gate for the one AdmissionUpdate stream the co-located Matrix
  /// server numbers.  Never started or ticked: the pair's one failsafe
  /// machine runs on the Matrix server, so this plane stays NORMAL and
  /// never holds an update.
  [[nodiscard]] const ControlPlane& control_plane() const {
    return control_plane_;
  }
  /// The surge queue ("waiting room"); empty forever unless
  /// Config::admission.priority.queue_enabled.
  [[nodiscard]] const SurgeQueue& surge_queue() const { return surge_queue_; }
  /// This server's instantaneous load in the shared LoadSignals vocabulary
  /// (policy/load_view.h) — the one snapshot LoadReport, the admission
  /// valve, and the coordinator's LoadDigest aggregate all derive from.
  [[nodiscard]] LoadSignals local_signals() const;

  struct Stats {
    std::uint64_t hellos = 0;
    std::uint64_t actions = 0;
    std::uint64_t unknown_client_actions = 0;  ///< mid-switch strays
    std::uint64_t remote_events = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t clients_redirected = 0;
    std::uint64_t clients_migrated = 0;  ///< walked across a boundary
    std::uint64_t sheds = 0;
    std::uint64_t state_objects_sent = 0;
    std::uint64_t state_objects_received = 0;
    std::uint64_t load_reports = 0;
    std::uint64_t joins_denied = 0;    ///< HARD admission refusals
    std::uint64_t joins_deferred = 0;  ///< SOFT token budget exhausted
    /// Resumed joins (redirect/migration) that bypassed a non-NORMAL valve.
    std::uint64_t resumes_admitted = 0;
    // Surge queue (src/control/surge_queue.h); parked/drained/overflow
    // tallies live in SurgeQueue::Stats (see surge_queue()).
    std::uint64_t queue_updates_sent = 0;
    /// Cross-server queue handoffs: messages sent on split/reclaim, and
    /// entries from received handoffs this server could not adopt
    /// (fell back to JoinDefer).
    std::uint64_t queue_handoffs_sent = 0;
    std::uint64_t queue_handoff_rejected = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 protected:
  void on_message(const Message& message, const Envelope& envelope) override;
  /// Frame fast path: forwarded TaggedPackets and ClientActions — the two
  /// per-message hot paths — are handled only here, from zero-copy partial
  /// parses, skipping the Message-variant decode (neither consumes the
  /// payload bytes: remote events update ghosts, actions re-tag a fresh
  /// payload).
  bool on_frame(const Envelope& envelope) override;
  void on_timer(std::uint8_t timer, std::uint64_t epoch) override;

 private:
  /// Timer ids.  All but the queue tick carry the started_epoch_ they were
  /// armed in, so a stop (or stop + restart) silences them.
  enum Timer : std::uint8_t {
    kQueueTimer,
    kLoadReportTimer,
    kUpdateTimer,
  };

  struct Session {
    NodeId client_node;
    EntityId avatar;
    Vec2 position;
    std::uint32_t migrate_query_seq = 0;  ///< nonzero while migration pending
  };

  // client traffic
  void handle_hello(const ClientHello& hello, const Envelope& envelope);
  void handle_action(ClientId client, std::uint8_t kind_byte, Vec2 position,
                     const std::optional<Vec2>& target, std::uint32_t seq,
                     SimTime sent_at, const Envelope& envelope);
  void handle_bye(const ClientBye& bye);

  // Matrix callbacks
  void apply_remote_event(EntityId entity, ClientId client, Vec2 origin,
                          SimTime sent_at);
  void handle_map_range(const MapRange& range);
  void handle_state_transfer(const StateTransfer& transfer);
  void handle_client_state(const ClientStateTransfer& transfer);
  void handle_owner_reply(const OwnerReply& reply);
  /// Applies the Matrix server's admission decision in one step: state,
  /// join-bucket rate, directive flag, then one waiting-room drain.
  void handle_admission(const AdmissionUpdate& update);
  void handle_queue_handoff(const QueueHandoff& handoff);
  /// The admission gate for a fresh (non-resume) join; true ⇒ admit.
  [[nodiscard]] bool admit_join(const ClientHello& hello, NodeId client_node);
  /// Trace-layer bookkeeping (src/obs/) for a refused join: records the
  /// deny/defer event and retires the client's open admit/queue-wait spans.
  /// No-ops when tracing is disabled.
  void trace_join_deferred(ClientId client);
  void trace_join_denied(ClientId client);
  /// Creates the session and sends Welcome (the post-gate half of a join).
  void admit_session(ClientId client, NodeId client_node, Vec2 position,
                     std::uint32_t redirect_seq);

  // surge queue (src/control/surge_queue.h)
  void park_join(const ClientHello& hello, NodeId client_node);
  /// Admits from the queue while the valve and token budget allow.
  void drain_surge_queue();
  /// Position/ETA notification to one waiting client.  `position` is the
  /// client's 1-based rank (callers already hold the drain order; passing
  /// it in keeps the notification sweep O(n log n), not O(n² log n)).
  void send_queue_update(ClientId client, NodeId client_node,
                         std::uint32_t position, std::uint32_t depth);
  void schedule_queue_tick();
  void queue_tick();
  /// Zeroes the vip_drain_cap tallies once the room is empty — called on
  /// EVERY path that can empty it (drain, flush, handoff, ClientBye), so
  /// each occupancy episode starts with a fresh fairness window.
  void reset_drain_fairness_if_empty();
  /// Sends every parked join back to client-side retry (server lost its
  /// range, or is shutting its waiting room).
  void flush_surge_queue();
  /// True while displaced parked joins should be handed to the new owner
  /// instead of flushed (global admission directive active).
  [[nodiscard]] bool queue_handoff_active() const;
  /// Hands `entries` to `to_game` via Matrix (no-op on empty).
  void send_queue_handoff(std::vector<SurgeEntry> entries, NodeId to_game);

  void redirect_client(ClientId client, Session& session, NodeId to_game,
                       ServerId to_server);
  void maybe_migrate(ClientId client, Session& session);
  void schedule_load_report();
  void load_report_tick();
  void schedule_update_tick();
  /// Sends every session its per-tick digest.
  void update_tick();
  [[nodiscard]] LoadReport build_load_report();
  /// Deterministic exceptional-radius assignment by client id (stable
  /// across handoffs because client ids are globally unique).
  [[nodiscard]] std::uint8_t radius_class_for(ClientId client) const;

  ServerId id_;
  GameModelSpec spec_;
  Config config_;
  std::unique_ptr<MatrixPort> port_;

  Rect authority_;
  /// The per-tick hot table (median/fan-out/estimate sweeps): sorted-vector
  /// storage, ascending-ClientId iteration exactly like the std::map it
  /// replaced (send order is trace-visible — the golden hashes pin it).
  FlatMap<ClientId, Session> sessions_;
  std::map<EntityId, Entity> map_objects_;
  /// Ghost replicas of remote avatars, updated once per forwarded packet —
  /// a hot-path table (flat open-address storage; see game/ghost_table.h
  /// for why iteration order cannot perturb traces).
  GhostTable ghosts_;
  /// Avatar state that arrived (ClientStateTransfer) before the client's
  /// hello; consumed when the hello lands.
  FlatMap<ClientId, Entity> pending_avatars_;

  /// Events (local actions, remote events) since the last update tick are
  /// flushed as one digest ServerUpdate per client — real servers batch
  /// exactly like this; per-event broadcast would melt both the real and
  /// the simulated NIC.  A digest's size comes from the visibility grid
  /// and its timestamp from the oldest event, so that timestamp is all the
  /// batch keeps.
  bool pending_any_ = false;
  SimTime pending_oldest_{};  // valid while pending_any_

  void note_pending(SimTime sent_at) {
    if (!pending_any_ || sent_at < pending_oldest_) pending_oldest_ = sent_at;
    pending_any_ = true;
  }

  /// Scratch bucket grid for the update tick's visible-entity estimate: an
  /// epoch-stamped open-address table (linear probing) kept across ticks.
  /// Epoch stamping makes "clear" a counter increment, so the tick performs
  /// no allocation and no table wipe in steady state.  It is sized by the
  /// distinct cells a tick bumps (~100 per server), not by the entities
  /// bumped (thousands), and doubles whenever it passes half full, mid-tick
  /// included.  Count sums are order-independent, so neither the size nor
  /// the growth point can change a digest.
  std::vector<std::uint64_t> grid_keys_;
  std::vector<std::uint32_t> grid_counts_;
  std::vector<std::uint32_t> grid_stamps_;
  std::uint32_t grid_epoch_ = 0;
  std::size_t grid_used_ = 0;  // distinct cells bumped this epoch

  void grid_prepare();
  void grid_bump(std::uint64_t key);
  void grid_grow();
  [[nodiscard]] std::uint32_t grid_count(std::uint64_t key) const;

  std::uint32_t next_redirect_seq_ = 1;
  std::uint32_t next_query_seq_ = 1;
  std::uint64_t next_object_serial_ = 1;
  std::uint64_t started_epoch_ = 0;
  bool started_ = false;
  std::uint64_t msgs_since_report_ = 0;
  SimTime last_report_at_{};

  // Admission enforcement (src/control/): the Matrix server decides the
  // state; this server spends the SOFT-mode token budget locally so no
  // per-join round trip exists.
  AdmissionState admission_state_ = AdmissionState::kNormal;
  TokenBucket join_bucket_{config_.admission.token_rate_per_sec,
                           config_.admission.token_burst};
  // Coordinator-led global admission (src/control/global_admission.h):
  // the directive's token share arrives in AdmissionUpdate.token_rate.
  bool directive_active_ = false;
  /// Seq admission for AdmissionUpdate.
  ControlPlane control_plane_{config_.failsafe};
  // Surge queue (src/control/surge_queue.h): the server-owned waiting room
  // replacing client-side defer-retry when enabled.
  SurgeQueue surge_queue_{config_.admission.priority};
  bool queue_tick_scheduled_ = false;
  /// Fairness tallies for `priority.vip_drain_cap`: admissions (and VIP
  /// admissions) since the room last became non-empty.  Persist across
  /// drain calls so a token-bound one-admit-per-tick drain still converges
  /// to the capped share; reset when the room empties.
  std::uint64_t drain_vip_ = 0;
  std::uint64_t drain_total_ = 0;

  /// Gated fresh joins seen — only advanced when the TEST-ONLY
  /// Config::fault.swallow_gated_join_every knob is armed.
  std::uint64_t fault_gated_seen_ = 0;

  Stats stats_;
};

}  // namespace matrix
