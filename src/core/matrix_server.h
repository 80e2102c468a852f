// Matrix server (paper §3.2.3) — "the heart of our distributed middleware".
//
// One Matrix server is co-located with each game server.  It:
//
//   * routes spatially-tagged game packets to the peer Matrix servers in the
//     packet's consistency set via an O(1) overlap-table lookup;
//   * verifies the range of packets arriving from peers before handing them
//     to its game server;
//   * watches its game server's load (explicit LoadReports plus direct
//     observation of the receive queue) and, using *purely local* decisions,
//     splits its partition when overloaded — acquiring a spare server from
//     the resource pool, adopting it as a child, and orchestrating state
//     transfer and client handoff;
//   * reclaims its most recent child when both are underloaded, returning
//     the child to the pool;
//   * builds one LoadView snapshot per decision (build_load_view) and asks
//     the load rules (src/policy/load_rules.h) WHEN/WHERE to split, when
//     to reclaim, and what need hint biases a contested pool grant;
//     every decision rule, the degraded-control-plane ones included,
//     lives in that one file;
//   * applies hysteresis (sustained overload, topology cooldown, reclaim
//     headroom, pool-denial backoff episodes) to prevent split/reclaim
//     oscillation — the paper's "simple heuristics ... to ensure
//     stability".  The mechanism (cooldowns, pending flags, the denial
//     episode's doubling backoff) stays here; the thresholds live in the
//     load rules;
//   * runs the admission controller (src/control/): every load observation
//     (LoadReport, queue depth, pool denials, the MC's pool-pressure
//     broadcasts) feeds the NORMAL/SOFT/HARD valve, state changes are
//     pushed to the game server as AdmissionUpdate, and an elevated state
//     blocks reclaim — a parent under admission pressure must not accept
//     the handoff of its child's whole population;
//   * under coordinator-led global admission (src/control/
//     global_admission.h) it additionally reports a LoadDigest to the MC
//     with each LoadReport, composes the MC's AdmissionDirective floor
//     with its local valve (strictest wins), and folds the directive's
//     token-budget share and active flag into the same AdmissionUpdate, so
//     the deployment-wide share takes effect at the join gate;
//   * runs the pair's one control-plane failsafe machine (src/control/
//     control_plane.h): the game server keeps no heartbeat clock of its
//     own — on FALLBACK this server drops the frozen directive and sends
//     the relaxed state and the local token rate in one update.
//
// Lifecycle: a server is either *active* (owns a partition) or *idle*
// (parked in the resource pool awaiting an Adopt).  Roots are activated
// directly at deployment; children are activated by Adopt messages.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "control/admission.h"
#include "control/control_plane.h"
#include "core/config.h"
#include "core/overlap.h"
#include "core/protocol_node.h"
#include "policy/denial_episode.h"
#include "policy/load_rules.h"

namespace matrix {

class MatrixServer : public ProtocolNode {
 public:
  /// Addresses of the fixed infrastructure this server talks to.  The game
  /// node is co-located (paper: "usually located on the same physical
  /// machine"); the deployment gives their link near-zero latency.
  struct Wiring {
    NodeId game_node;
    NodeId mc_node;
    NodeId pool_node;
  };

  MatrixServer(ServerId id, Config config)
      : id_(id), config_(std::move(config)) {
    control_plane_.set_fault_accept_stale(config_.fault.stale_directive_replay);
  }

  void wire(const Wiring& wiring) { wiring_ = wiring; }

  /// Activates this server as a root owning `range` (initial deployment).
  /// `radii` is the game's visibility-radius list, default radius first
  /// (paper §3.2.2: the game server sends Matrix the visibility radius when
  /// it starts).  Registers with the MC and pushes the range to the game
  /// server.
  void activate_root(const Rect& range, std::vector<double> radii);

  /// Static content keys advertised to children at adoption (pointers into
  /// the pre-cached store; the bulk data never crosses the wire, §3.2.3).
  void set_content_keys(std::vector<std::string> keys) {
    content_keys_ = std::move(keys);
  }

  // ---- observability --------------------------------------------------------

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] ServerId server_id() const { return id_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const Rect& range() const { return range_; }
  [[nodiscard]] ServerId parent() const { return parent_; }
  [[nodiscard]] std::size_t child_count() const { return children_.size(); }
  [[nodiscard]] std::uint32_t last_reported_clients() const {
    return last_report_.client_count;
  }
  [[nodiscard]] const Config& config() const { return config_; }

  struct Stats {
    std::uint64_t packets_from_game = 0;
    std::uint64_t packets_fanned_out = 0;   ///< copies sent to peer servers
    std::uint64_t peer_packets_received = 0;
    std::uint64_t peer_packets_delivered = 0;
    std::uint64_t peer_packets_rejected = 0;  ///< failed range verification
    std::uint64_t origin_outside_range = 0;   ///< handoff-window strays
    std::uint64_t nonproximal_lookups = 0;
    /// Parked MC point lookups dropped unanswered after tau1 (see
    /// parked_lookups()).
    std::uint64_t lookups_expired = 0;
    /// PointOwner replies that found no slot after an expiry had passed
    /// their lookup (so they came back at least tau1 late); a nonzero
    /// count means expiry may have changed what the server did.
    std::uint64_t late_lookup_replies = 0;
    /// High-water mark of parked_lookups(), in slots.
    std::uint64_t pending_lookups_peak = 0;
    /// High-water mark of parked_lookup_bytes().
    std::uint64_t pending_lookup_peak_bytes = 0;
    /// Age of the oldest lookup still parked when a new one is parked
    /// (after expiry), maximum over the run, µs; stays below tau1.
    std::uint64_t lookup_age_peak_us = 0;
    std::uint64_t splits_initiated = 0;
    std::uint64_t splits_completed = 0;
    /// Splits initiated below the overload threshold on the strength of an
    /// active coordinator directive (directive rules only).
    std::uint64_t proactive_splits = 0;
    std::uint64_t split_denied_no_server = 0;
    /// Consecutive PoolDeny answers since the last successful grant.
    std::uint32_t split_denied_streak = 0;
    /// Current pool-retry backoff (µs); 0 when not backing off.  Doubles
    /// per consecutive denial up to Config::pool_backoff_max.
    std::uint64_t pool_backoff_us = 0;
    /// AdmissionUpdates sent to the game server.
    std::uint64_t admission_updates = 0;
    /// Coordinator directives accepted (stale seqs excluded).
    std::uint64_t directives_received = 0;
    /// Of those, the ones applied while active (a parked server only
    /// remembers its directive).
    std::uint64_t directives_applied = 0;
    /// Load digests sent to the MC (global admission enabled only).
    std::uint64_t digests_sent = 0;
    /// Surge-queue depth ("waiting room", src/control/surge_queue.h) from
    /// the game server's latest LoadReport, and the peak ever reported.
    std::uint32_t surge_waiting = 0;
    std::uint32_t surge_waiting_peak = 0;
    std::uint64_t reclaims_initiated = 0;
    std::uint64_t reclaims_completed = 0;
    std::uint64_t table_updates = 0;
    /// Sum of split durations (PoolAcquire sent → ShedDone received), µs;
    /// divide by splits_completed for the mean (T-micro-switch).
    std::uint64_t split_latency_us_sum = 0;
    /// Sum of reclaim durations (ReclaimRequest sent → ReclaimDone), µs.
    std::uint64_t reclaim_latency_us_sum = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// MC point lookups parked awaiting a PointOwner reply, in slots (served
  /// slots behind the oldest unanswered one included).
  [[nodiscard]] std::size_t parked_lookups() const { return lookups_.size(); }
  /// Bytes the parked-lookup ring holds now — its slots plus the heap
  /// bytes of the parked frames — and at its high-water mark.
  [[nodiscard]] std::size_t parked_lookup_bytes() const {
    return lookups_.size() * sizeof(ParkedLookup) + parked_frame_bytes_;
  }
  [[nodiscard]] std::size_t parked_lookup_peak_bytes() const {
    return stats_.pending_lookup_peak_bytes;
  }

  /// The admission valve (src/control/); NORMAL forever unless
  /// Config::admission.enabled.
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] AdmissionState admission_state() const {
    return admission_.state();
  }
  /// Local valve composed with the coordinator's directive floor —
  /// strictest wins.  This is the state enforced at the game server and
  /// the one that gates reclaim.
  [[nodiscard]] AdmissionState effective_admission_state() const {
    return compose_admission(admission_.state(), directive_floor_);
  }
  /// The coordinator's directive, as last accepted (global admission).
  [[nodiscard]] AdmissionState directive_floor() const {
    return directive_floor_;
  }
  [[nodiscard]] bool directive_active() const { return directive_active_; }

  /// The unified control-update ingestion path + failsafe machine
  /// (src/control/control_plane.h).  Every coordinator-originated state
  /// flip — announce, heartbeat, directive, pool pressure — passes through
  /// its admit() before this server acts on it.
  [[nodiscard]] const ControlPlane& control_plane() const {
    return control_plane_;
  }
  [[nodiscard]] FailsafeState failsafe_state() const {
    return control_plane_.state();
  }

  /// The one snapshot the load rules and the admission valve read right
  /// now — exposed so tests can assert on exactly what they are asked.
  [[nodiscard]] LoadView build_load_view() const;

  /// Consistency-set lookup for `point` in radius class `rc` — exposed for
  /// tests and the lookup ablation.  nullptr ⇒ empty set (interior point).
  [[nodiscard]] const OverlapRegionWire* lookup(Vec2 point,
                                                std::uint8_t rc = 0) const;

 protected:
  void on_message(const Message& message, const Envelope& envelope) override;
  /// Frame fast path: TaggedPackets — the routing hot path — and
  /// LoadReports are handled only here, from zero-copy partial parses; peer
  /// forwards resend the raw frame with the peer flag flipped in place
  /// instead of decode → re-encode.
  bool on_frame(const Envelope& envelope) override;
  void on_timer(std::uint8_t timer, std::uint64_t epoch) override;

 private:
  /// Timer ids; each carries the activation_epoch_ it was armed in.
  enum Timer : std::uint8_t { kFailsafeTimer, kPeerLoadTimer };

  /// A packet to forward once the MC names its owner, parked as the
  /// encoded frame it will be sent as: the stored head, in a buffer rented
  /// from the network's pool, and the length of its zero tail.
  struct ParkedFrame {
    std::vector<std::uint8_t> head;
    std::size_t zero_tail = 0;
  };
  /// One MC point lookup in flight (paper §3.2.4): the packet to forward,
  /// or the game server's owner query to answer, once the PointOwner reply
  /// arrives.  monostate once served or abandoned.
  struct ParkedLookup {
    using Payload = std::variant<std::monostate, ParkedFrame, OwnerQuery>;
    SimTime issued_at;
    Payload parked;
  };
  // Up to tau1 of lookups stay parked through an MC outage (~49k slots on
  // the overload workload): a slot holds a frame's handle, never a packet.
  static_assert(sizeof(ParkedLookup) <= 64);

  struct ChildInfo {
    ServerId server;
    NodeId matrix_node;
    NodeId game_node;
    Rect range;
    /// Token issued in the Adopt message (our topology epoch at adoption);
    /// reclaim requests carry it so stale retries are provably harmless.
    std::uint64_t adoption_token = 0;
    std::uint32_t last_clients = 0;
    std::uint32_t last_children = 0;
    bool load_known = false;
  };

  // message handlers
  void route_tagged_frame(const TaggedPacketView& view, const Envelope& env);
  /// Forwards the received frame to `peer` with the peer_forwarded flag set —
  /// byte-identical to re-encoding the packet with the flag mutated.
  std::size_t send_peer_frame(NodeId peer,
                              const std::vector<std::uint8_t>& frame,
                              std::size_t flag_offset);
  void handle_load_report(const LoadReport& report);
  void handle_pool_grant(const PoolGrant& grant);
  void handle_adopt(const Adopt& adopt);
  void handle_overlap_table(const OverlapTableMsg& table);
  void handle_peer_load(const PeerLoad& load);
  void handle_reclaim_request(const ReclaimRequest& request);
  void handle_reclaim_decline(const ReclaimDecline& decline);
  void handle_reclaim_done(const ReclaimDone& done);
  void handle_shed_done(const ShedDone& done);
  void handle_point_owner(const PointOwner& owner);
  /// Parks `parked` and sends the MC a PointLookup for `point`.
  void park_lookup(Vec2 point, ParkedLookup::Payload parked);
  /// Encodes `packet` into a rented buffer and parks it (park_lookup).
  void park_packet(Vec2 point, const TaggedPacket& packet);
  /// Empties a slot, returning a parked frame's buffer to the pool.
  void clear_slot(ParkedLookup& slot);
  /// Pops the served/abandoned slots at the front of the ring.
  void drain_parked_lookups();

  // admission control (src/control/)
  void observe_admission();
  /// The game server's receive-queue depth: the latest reported figure or
  /// the directly observed one, whichever is deeper.
  [[nodiscard]] std::uint32_t receive_queue_length() const;
  /// Sends the game server an AdmissionUpdate when what it must enforce —
  /// composed state, join-bucket rate, directive flag — differs from what
  /// it was last sent (always, with `force`).
  void sync_game_admission(bool force = false);
  void clear_pool_denial_episode();
  void handle_mc_directive(const AdmissionDirective& directive);
  void apply_mc_directive(const AdmissionDirective& directive);
  void reset_directive();

  // control-plane failsafe (src/control/control_plane.h)
  void handle_mc_heartbeat(const McHeartbeat& beat);
  void start_failsafe(SimTime at);
  void schedule_failsafe_tick();
  void failsafe_tick();
  void on_failsafe_degraded();

  // split / reclaim machinery (decisions by the load rules)
  void maybe_split();
  void maybe_reclaim();
  [[nodiscard]] bool can_change_topology() const;

  void register_with_mc();
  void push_range_to_game(const Rect& shed_range, NodeId shed_to_game,
                          ServerId shed_to_server, bool reclaim);
  void schedule_heartbeat();
  void send_peer_load();
  void deactivate();

  ServerId id_;
  Config config_;
  Wiring wiring_;

  bool active_ = false;
  Rect range_;
  std::vector<double> radii_;
  std::vector<std::string> content_keys_;

  ServerId parent_;
  NodeId parent_matrix_;
  NodeId parent_game_;
  std::vector<ChildInfo> children_;  ///< LIFO: only the back is reclaimable

  // Per-radius-class routing tables, installed by the MC.
  std::vector<RegionIndex> tables_;
  std::vector<std::uint64_t> table_versions_;

  LoadReport last_report_;
  std::uint32_t consecutive_overload_ = 0;
  SimTime cooldown_until_{};
  /// Idle fraction of the deployment pool, per the MC's latest
  /// PoolPressure; negative ⇒ never heard.
  double pool_idle_fraction_ = -1.0;
  // Coordinator-led global admission (src/control/global_admission.h):
  // the directive floor composes with the local valve, strictest wins.
  AdmissionState directive_floor_ = AdmissionState::kNormal;
  bool directive_active_ = false;
  /// The directive's token-budget share; 0 ⇒ the local config rate.
  double directive_token_rate_ = 0.0;
  /// The last AdmissionUpdate sent to OUR game server — what it enforces
  /// now (sync_game_admission).  Its seq numbers the pair's stream, which
  /// survives MC fail-over, unlike the MC's directive numbering.
  AdmissionUpdate game_update_{.token_rate =
                                   config_.admission.token_rate_per_sec};
  SimTime split_started_at_{};
  SimTime reclaim_started_at_{};
  /// While reclaim_pending_: when to re-send the request (lost-message
  /// recovery; safe because requests carry the adoption token).
  SimTime reclaim_retry_at_{};
  bool split_pending_ = false;
  bool reclaim_pending_ = false;   ///< parent side: waiting for ReclaimDone
  bool being_reclaimed_ = false;   ///< child side: shedding everything
  std::uint64_t topology_epoch_ = 0;
  std::uint64_t activation_epoch_ = 0;  ///< guards stale heartbeat timers

  // MC point lookups in flight, indexed by `seq - lookup_base_` (uint32
  // arithmetic, so wrap-safe); the next seq is lookup_base_ + size().  The
  // front slot always holds a payload: served slots are popped as soon as
  // nothing older is outstanding, and a slot older than tau1 is expired
  // when the next lookup is parked.
  std::deque<ParkedLookup> lookups_;
  std::uint32_t lookup_base_ = 1;
  // One past the newest expired seq: every lookup below it was issued at
  // least tau1 before that expiry, so a reply for one that finds no slot
  // is late.
  std::uint32_t expired_end_ = 1;
  // Heap bytes (capacity) of the frames parked in lookups_.
  std::size_t parked_frame_bytes_ = 0;

  AdmissionController admission_{config_.admission, config_.overload_clients,
                                 config_.fault.skip_recover_min};

  /// Unified control-update ingestion + failsafe machine.  Replaces the
  /// old scattered directive_seq_seen_ / mc_generation_ counters; the MC
  /// epoch and every per-kind seq live in exactly one place.
  ControlPlane control_plane_{config_.failsafe};

  /// Pool-retry backoff episode (policy/denial_episode.h); mirrored into
  /// Stats::split_denied_streak / pool_backoff_us.
  PoolDenialEpisode denial_episode_{config_};

  Stats stats_;
};

}  // namespace matrix
