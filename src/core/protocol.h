// Wire protocol.
//
// Every message exchanged between game clients, game servers, Matrix
// servers, the Matrix Coordinator (MC), and the resource pool.  Messages are
// encoded to bytes (util/codec.h) before hitting the network so that wire
// sizes — and therefore the bandwidth results — are physically meaningful.
//
// Component roles and the messages they exchange (paper §3.2):
//
//   client  → game    : ClientHello, ClientAction, ClientBye
//   game    → client  : Welcome, ServerUpdate, Redirect, JoinDeny, JoinDefer,
//                       QueueUpdate
//   game    → matrix  : TaggedPacket, LoadReport, ShedDone
//   matrix  → game    : TaggedPacket (verified), MapRange, AdmissionUpdate
//   matrix  ↔ matrix  : TaggedPacket (peer forward), Adopt, PeerLoad,
//                       ReclaimRequest, ReclaimDone, StateTransfer (relay),
//                       ClientStateTransfer (relay), QueueHandoff (relay)
//   matrix  ↔ MC      : ServerRegister, ServerUnregister, OverlapTableMsg,
//                       PointLookup, PointOwner, LoadDigest
//   matrix  ↔ pool    : PoolAcquire, PoolGrant, PoolDeny, PoolRelease
//   pool    → MC      : PoolStatus;  MC → matrix : PoolPressure,
//                       AdmissionDirective
//
// The wire layout of each message is declared once, as its field list in
// protocol.cpp; one generic codec derives the encoder, the canonical
// decoder, the exact size reservation and the frame views from it.  The
// type byte is the message's index in the Message variant plus one.
// Adding a message: define its struct here (with a defaulted operator==),
// append it to Message, and add its field-list line to protocol.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/server_set.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"
#include "util/codec.h"
#include "util/ids.h"
#include "util/sim_time.h"

namespace matrix {

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

/// A spatially-tagged game packet (paper §3.1).  The game server tags each
/// client packet with the world coordinates of the packet's origin (and
/// destination for non-proximal interactions); Matrix routes on the tags and
/// never parses `payload` — that is the layering the paper's API promises.
struct TaggedPacket {
  ClientId client;            ///< globally-unique originating player
  EntityId entity;            ///< acting entity
  Vec2 origin;                ///< where in the world the event happened
  std::optional<Vec2> target; ///< set only for non-proximal interactions
  std::uint8_t radius_class = 0;  ///< 0 = game default R; else exceptional R
  std::uint8_t kind = 0;          ///< game-defined opcode (opaque to Matrix)
  std::uint32_t seq = 0;          ///< client action sequence (latency pairing)
  SimTime client_sent_at{};       ///< stamped by client; for latency metrics
  bool peer_forwarded = false;    ///< set on matrix→matrix relay (no re-fwd)
  PayloadBytes payload;           ///< game-specific body (opaque)
  bool operator==(const TaggedPacket&) const = default;
};

// ---------------------------------------------------------------------------
// Client ↔ game server
// ---------------------------------------------------------------------------

/// First message from a client to a game server.  `resume` is set when the
/// client was redirected here mid-game (its avatar state arrives separately
/// server→server via ClientStateTransfer).
struct ClientHello {
  ClientId client;
  Vec2 position;
  bool resume = false;
  std::uint32_t redirect_seq = 0;  ///< pairs with Redirect for switch latency
  /// Priority hint for the surge queue (src/control/surge_queue.h):
  /// 0 = NORMAL, 1 = VIP.  Resumes outrank both and are flagged by `resume`,
  /// not here.  Ignored entirely while the waiting room is disabled.
  std::uint8_t priority = 0;
  bool operator==(const ClientHello&) const = default;
};

struct Welcome {
  ClientId client;
  EntityId avatar;
  Rect authority;                  ///< the server's current map range
  std::uint32_t redirect_seq = 0;
  bool operator==(const Welcome&) const = default;
};

/// A player input: move / fire / interact, stamped for latency measurement.
struct ClientAction {
  ClientId client;
  std::uint8_t kind = 0;
  Vec2 position;                    ///< client's believed position
  std::optional<Vec2> target;       ///< e.g. shot aim point, teleport target
  std::uint32_t seq = 0;
  SimTime sent_at{};
  PayloadBytes payload;
  bool operator==(const ClientAction&) const = default;
};

/// Game server → client state delta.  `ack_seq` is nonzero when this update
/// is the direct reaction to that client's own action (self-latency); the
/// embedded origin timestamp measures observer latency at other clients.
struct ServerUpdate {
  std::uint8_t kind = 0;
  Vec2 position;
  std::uint32_t ack_seq = 0;
  SimTime origin_sent_at{};
  PayloadBytes payload;
  bool operator==(const ServerUpdate&) const = default;
};

/// Orders a client to reconnect to a different game server (paper §3.2.1:
/// "the client is informed of these switches by its current game server").
struct Redirect {
  NodeId new_game_node;
  ServerId new_server;
  std::uint32_t redirect_seq = 0;
  bool operator==(const Redirect&) const = default;
};

struct ClientBye {
  ClientId client;
  bool operator==(const ClientBye&) const = default;
};

// ---------------------------------------------------------------------------
// Game server ↔ its Matrix server (same host, paper §3.2.2)
// ---------------------------------------------------------------------------

/// Periodic load report (paper §3.2.2: "the game server also periodically
/// reports its current load").  The median position feeds the load-aware
/// split-policy extension; split-to-left ignores it.
struct LoadReport {
  std::uint32_t client_count = 0;
  std::uint32_t queue_length = 0;
  double msgs_per_sec = 0.0;
  Vec2 median_position;
  /// Joins parked in the surge queue (src/control/surge_queue.h); 0 while
  /// the waiting room is disabled.  Surfaced in MatrixServer::Stats.
  std::uint32_t waiting_count = 0;
  bool operator==(const LoadReport&) const = default;
};

/// Matrix server → game server: your authoritative range changed.  When
/// `shed_range` is non-empty the game server must transfer map-object state
/// in that range and redirect the clients standing in it to `shed_to_game`.
struct MapRange {
  Rect new_range;
  Rect shed_range;                  ///< empty ⇒ nothing to shed
  NodeId shed_to_game;
  ServerId shed_to_server;
  bool reclaim = false;             ///< true ⇒ shedding everything to parent
  std::uint64_t topology_epoch = 0;
  bool operator==(const MapRange&) const = default;
};

/// Game server → Matrix server: the shed ordered by MapRange has finished
/// (all state transferred, all clients redirected).
struct ShedDone {
  std::uint64_t topology_epoch = 0;
  std::uint32_t clients_redirected = 0;
  bool operator==(const ShedDone&) const = default;
};

/// Game server → Matrix server: "which game server owns this point?"
/// Used when a client walks out of this server's authority range — the paper
/// says "Matrix provides the identity of the appropriate game server".  The
/// Matrix server resolves it via the MC's point lookup.
struct OwnerQuery {
  Vec2 point;
  ClientId client;
  std::uint32_t seq = 0;
  bool operator==(const OwnerQuery&) const = default;
};

/// Matrix server → game server: answer to OwnerQuery.
struct OwnerReply {
  ClientId client;
  std::uint32_t seq = 0;
  bool found = false;
  ServerId server;
  NodeId game_node;
  bool operator==(const OwnerReply&) const = default;
};

// ---------------------------------------------------------------------------
// Matrix server ↔ Matrix server
// ---------------------------------------------------------------------------

/// Parent → newly-granted Matrix server: take over `range`.  Static content
/// is *not* shipped — `content_keys` are pointers into the pre-cached store
/// (paper §3.2.3: "only pointers to the cached state" are sent).
struct Adopt {
  ServerId parent;
  NodeId parent_matrix;
  NodeId parent_game;
  Rect range;
  double visibility_radius = 0.0;
  std::vector<double> extra_radii;  ///< exceptional radius classes, in order
  std::vector<std::string> content_keys;
  std::uint64_t topology_epoch = 0;
  bool operator==(const Adopt&) const = default;
};

/// Child → parent heartbeat enabling the parent's reclaim decision.  A
/// child that has children of its own is not reclaimable (the subtree must
/// collapse leaf-first), hence `child_count`.
struct PeerLoad {
  ServerId server;
  std::uint32_t client_count = 0;
  std::uint32_t child_count = 0;
  bool operator==(const PeerLoad&) const = default;
};

/// Parent → child: begin reclamation (paper §3.2.3).  `topology_epoch` is
/// the ADOPTION TOKEN the parent issued this child in its Adopt message; a
/// child only honours requests bearing its own token, so a stale retry can
/// never reclaim a server that has since been re-granted to someone else.
struct ReclaimRequest {
  std::uint64_t topology_epoch = 0;
  bool operator==(const ReclaimRequest&) const = default;
};

/// Child → parent: reclamation refused (the child is mid-split, already
/// reclaiming its own child, or the token was stale).  The parent clears
/// its pending state and may retry later.  Without an explicit decline, an
/// overload/underload interleaving can merge non-complementary rectangles
/// and tear the tiling invariant (see matrix_server.cpp's reclaim notes).
struct ReclaimDecline {
  ServerId child;
  std::uint64_t topology_epoch = 0;
  bool operator==(const ReclaimDecline&) const = default;
};

/// Child → parent: reclamation finished; `range` returns to the parent.
struct ReclaimDone {
  ServerId child;
  Rect range;
  std::uint64_t topology_epoch = 0;
  bool operator==(const ReclaimDone&) const = default;
};

/// Bulk game state (map objects) relayed game→matrix→matrix→game during
/// splits and reclaims.
struct StateTransfer {
  ServerId from_server;
  NodeId to_game;
  Rect range;
  std::uint32_t object_count = 0;
  std::vector<std::uint8_t> blob;
  bool operator==(const StateTransfer&) const = default;
};

/// One switching client's avatar state, relayed server→server ahead of the
/// client's ClientHello at the destination.
struct ClientStateTransfer {
  ClientId client;
  EntityId entity;
  NodeId to_game;
  std::vector<std::uint8_t> blob;
  bool operator==(const ClientStateTransfer&) const = default;
};

// ---------------------------------------------------------------------------
// Matrix server ↔ Matrix Coordinator
// ---------------------------------------------------------------------------

/// Registers (or re-registers after a range change) a Matrix server with the
/// MC.  Upsert semantics: the MC replaces any previous range for `server`.
struct ServerRegister {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
  Rect range;
  std::vector<double> radii;  ///< game default first, then exceptional radii
  bool operator==(const ServerRegister&) const = default;
};

struct ServerUnregister {
  ServerId server;
  bool operator==(const ServerUnregister&) const = default;
};

/// One overlap region as shipped to a Matrix server: every point in `rect`
/// has consistency set = `peers` (paper Fig. 1a).
struct OverlapRegionWire {
  Rect rect;
  std::vector<ServerId> peer_servers;
  std::vector<NodeId> peer_matrix_nodes;  ///< parallel to peer_servers
  bool operator==(const OverlapRegionWire&) const = default;
};

/// MC → Matrix server: your overlap table for one radius class.
struct OverlapTableMsg {
  ServerId server;
  Rect partition;
  std::uint8_t radius_class = 0;
  double radius = 0.0;
  std::uint64_t version = 0;  ///< MC recompute generation
  std::vector<OverlapRegionWire> regions;
  bool operator==(const OverlapTableMsg&) const = default;
};

/// Matrix server → MC: who owns this point?  Used only for the rare
/// non-proximal interactions (paper §3.2.4).
struct PointLookup {
  Vec2 point;
  std::uint32_t lookup_seq = 0;
  bool operator==(const PointLookup&) const = default;
};

struct PointOwner {
  std::uint32_t lookup_seq = 0;
  bool found = false;
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
  bool operator==(const PointOwner&) const = default;
};

// ---------------------------------------------------------------------------
// Matrix server ↔ resource pool ("some non-Matrix external entity", §3.2.3)
// ---------------------------------------------------------------------------

/// Matrix server → pool: "I want to split; give me a spare."  `need` is the
/// requester's starvation score from the load rules (policy/load_rules.h):
/// 0 under the classic rules (or while no coordinator directive is in force) —
/// the pool answers immediately, FCFS — while a positive need asks the pool
/// to hold the request for `Config::policy.grant_window` and arbitrate a
/// contested spare toward the highest need (the partition the
/// global-admission pressure score says is most starved).
struct PoolAcquire {
  ServerId requester;
  double need = 0.0;
  bool operator==(const PoolAcquire&) const = default;
};

struct PoolGrant {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
  bool operator==(const PoolGrant&) const = default;
};

struct PoolDeny {
  bool operator==(const PoolDeny&) const = default;
};

struct PoolRelease {
  ServerId server;
  NodeId matrix_node;
  NodeId game_node;
  bool operator==(const PoolRelease&) const = default;
};

// ---------------------------------------------------------------------------
// Admission & overload protection (src/control/)
// ---------------------------------------------------------------------------

/// Game server → client: join refused outright (admission HARD).  The
/// session was never created; `retry_after` is the server's reconnect hint.
struct JoinDeny {
  ClientId client;
  SimTime retry_after{};
  bool operator==(const JoinDeny&) const = default;
};

/// Game server → client: join not admitted right now (admission SOFT and
/// the token budget is spent).  Unlike JoinDeny this is transient — retry
/// after `retry_after` and the join will likely clear the bucket.
struct JoinDefer {
  ClientId client;
  SimTime retry_after{};
  bool operator==(const JoinDefer&) const = default;
};

/// Matrix server → its game server: everything the game enforces for
/// admission, sent whenever any of it changes.  `state` carries the numeric
/// AdmissionState (the wire stays independent of control/ headers), composed
/// from the local valve and the coordinator's directive floor; `token_rate`
/// is the join-bucket refill rate (the directive's budget share while one is
/// in force, the local config rate otherwise); `directive_active` gates the
/// queue handoff.  `seq` is monotonic so a reordered update can never roll
/// any of them back.
struct AdmissionUpdate {
  std::uint8_t state = 0;
  std::uint64_t seq = 0;
  double token_rate = 0.0;        ///< joins/s the join bucket refills at
  bool directive_active = false;  ///< a coordinator directive is in force
  bool operator==(const AdmissionUpdate&) const = default;
};

/// Game server → waiting client: you are parked in the surge queue
/// (src/control/surge_queue.h).  Sent once on enqueue and then on every
/// drain tick, so the client can show a live "waiting room" instead of
/// blind defer-retries.  `position` is the client's 1-based rank in the
/// current drain order (aging can move it), `depth` the whole queue, and
/// `eta` a best-effort estimate of the remaining wait at the current token
/// rate — a hint, not a promise.
struct QueueUpdate {
  ClientId client;
  std::uint32_t position = 0;
  std::uint32_t depth = 0;
  SimTime eta{};
  bool operator==(const QueueUpdate&) const = default;
};

/// Resource pool → MC: occupancy changed (grant/release/seed).
struct PoolStatus {
  std::uint32_t idle = 0;
  std::uint32_t total = 0;
  bool operator==(const PoolStatus&) const = default;
};

/// Matrix server → MC: per-server load digest feeding coordinator-led
/// global admission (src/control/global_admission.h).  Sent alongside each
/// LoadReport while `Config::admission.global.enabled`; `admission_state`
/// is the server's LOCAL valve state (the MC composes its own floor on
/// top, so echoing the composed state back would latch the loop).
struct LoadDigest {
  ServerId server;
  std::uint32_t client_count = 0;
  std::uint32_t queue_length = 0;
  std::uint32_t waiting_count = 0;  ///< surge-queue depth
  std::uint8_t admission_state = 0; ///< local AdmissionState
  bool operator==(const LoadDigest&) const = default;
};

/// MC → Matrix server: coordinator-led global admission directive.
/// `floor` is the minimum AdmissionState every server must hold (each
/// server composes it with its local valve — strictest wins); `token_rate`
/// is THIS server's share of the deployment-wide SOFT budget, weighted by
/// waiting-room depth so starved partitions drain first (0 ⇒ use the local
/// config rate).  `active == false` rescinds the directive (global pressure
/// relaxed to NORMAL).  `seq` is monotonic so a reordered directive can
/// never roll the floor back.  The Matrix server folds what its game server
/// needs into its AdmissionUpdate; no directive travels matrix → game.
struct AdmissionDirective {
  std::uint64_t seq = 0;
  std::uint8_t floor = 0;   ///< numeric AdmissionState
  bool active = false;
  double token_rate = 0.0;  ///< joins/s granted to this server
  bool operator==(const AdmissionDirective&) const = default;
};

/// One parked join handed across servers (split/merge): enough to re-park
/// at the destination preserving priority class and accrued age.
struct QueueHandoffEntry {
  ClientId client;
  NodeId client_node;
  Vec2 position;
  std::uint8_t cls = 0;   ///< original PriorityClass
  SimTime enqueued_at{};  ///< original park time (age keeps accruing)
  bool operator==(const QueueHandoffEntry&) const = default;
};

/// Game server → Matrix (relay) → game server: surge-queue entries whose
/// region moved to `to_game` in a split/reclaim.  The destination re-parks
/// them (class + age preserved) instead of the source flushing them to
/// client-side retry; entries it cannot take fall back to JoinDefer.
struct QueueHandoff {
  ServerId from_server;
  NodeId to_game;
  std::vector<QueueHandoffEntry> entries;
  bool operator==(const QueueHandoff&) const = default;
};

/// MC → every Matrix server: deployment-wide pool pressure, rebroadcast
/// from PoolStatus.  Feeds the pre-escalation signal: a server nearing
/// overload with an exhausted pool cannot count on a split being granted.
struct PoolPressure {
  std::uint32_t idle = 0;
  std::uint32_t total = 0;
  bool operator==(const PoolPressure&) const = default;
};

// ---------------------------------------------------------------------------
// Coordinator fail-over
// ---------------------------------------------------------------------------

/// A (new) Matrix Coordinator announces itself to a Matrix server.  The
/// paper: "the MC can also be made reliable using well understood
/// replication techniques" — and, crucially, the MC holds only *soft*
/// state: every Matrix server knows its own range, so a fresh MC rebuilds
/// the partition map from the re-registrations this message solicits.
/// Routing never stalls during fail-over because overlap tables are local.
struct McAnnounce {
  NodeId mc_node;
  std::uint64_t generation = 0;  ///< monotonically increasing MC incarnation
  bool operator==(const McAnnounce&) const = default;
};

/// Periodic coordinator liveness beacon (control-plane failsafe,
/// src/control/control_plane.h).  Broadcast to every registered matrix
/// server every kHeartbeatInterval (core/coordinator.cpp) ONLY while the
/// failsafe is enabled, so default deployments put no extra bytes on the
/// wire.  Matrix servers consume it; it never reaches a game server, which
/// obeys its Matrix server's failsafe rather than keeping one.  `generation`
/// carries the MC epoch (same counter as McAnnounce.generation); `seq`
/// strictly increases within a generation so a delayed beat can never
/// rewind the freshness clock.
struct McHeartbeat {
  NodeId mc_node;
  std::uint64_t generation = 0;
  std::uint64_t seq = 0;
  bool operator==(const McHeartbeat&) const = default;
};

// ---------------------------------------------------------------------------
// Envelope-level message
// ---------------------------------------------------------------------------

/// Every message type.  The order is the wire format: alternative i travels
/// with type byte i + 1 (wire_type below).  Append new alternatives only.
using Message =
    std::variant<TaggedPacket, ClientHello, Welcome, ClientAction,
                 ServerUpdate, Redirect, ClientBye, LoadReport, MapRange,
                 ShedDone, OwnerQuery, OwnerReply, Adopt, PeerLoad,
                 ReclaimRequest, ReclaimDecline, ReclaimDone, StateTransfer,
                 ClientStateTransfer, ServerRegister, ServerUnregister,
                 OverlapTableMsg, PointLookup, PointOwner, PoolAcquire,
                 PoolGrant, PoolDeny, PoolRelease, McAnnounce, JoinDeny,
                 JoinDefer, AdmissionUpdate, PoolStatus, PoolPressure,
                 QueueUpdate, LoadDigest, AdmissionDirective, QueueHandoff,
                 McHeartbeat>;

/// The first byte of every encoded `T`: its Message index plus one, so 0 is
/// never a valid type byte.  Frame handlers switch on it.
template <typename T>
inline constexpr std::uint8_t wire_type =
    []<typename... Ts>(std::variant<Ts...>*) {
      const std::variant<std::type_identity<Ts>...> probe{
          std::type_identity<T>{}};
      return static_cast<std::uint8_t>(probe.index() + 1);
    }(static_cast<Message*>(nullptr));

/// Serializes `message` (1 type byte + body).
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);

/// Serializes a single message body (type byte + body, size-reserved)
/// without ever constructing the Message variant — the typed fast path
/// behind ProtocolNode's and MatrixPort's sends, which otherwise would copy
/// the body (payload included) into a temporary variant per send.
/// Explicitly instantiated in protocol.cpp for every Message alternative.
template <typename Body>
void encode_one_into(ByteWriter& writer, const Body& body);

/// encode_one_into without the frame's zero tail: writes every byte up to
/// the run of zeros that ends the frame and returns that run's length, for
/// the sender to carry as Envelope::zero_tail.  When the last field is a
/// byte string, its trailing zeros are never written at all, so an
/// all-zero filler payload costs no storage.  Explicitly instantiated like
/// encode_one_into.
template <typename Body>
[[nodiscard]] std::size_t encode_head_into(ByteWriter& writer,
                                           const Body& body);

// ---------------------------------------------------------------------------
// Zero-copy frame fast paths (the engine hot path)
// ---------------------------------------------------------------------------
//
// The messages that dominate steady-state traffic can be routed/applied
// without materializing the Message variant.  `ProtocolNode::on_frame`
// overrides use these parsers; each returns nullopt for any other frame type
// and for exactly the frames decode_message rejects, sending the message
// down the ordinary decode path.  A view is the message's own field list
// read with the opaque payload left in the frame as a span, so its fields
// are bit-identical to what decode_message would produce.

struct TaggedPacketView {
  ClientId client;
  EntityId entity;
  Vec2 origin;
  std::optional<Vec2> target;
  std::uint8_t radius_class = 0;
  std::uint8_t kind = 0;
  std::uint32_t seq = 0;
  SimTime client_sent_at{};
  bool peer_forwarded = false;
  /// Byte offset of the peer_forwarded flag within the frame.  A relay that
  /// forwards the packet flag-flipped copies the frame and writes one byte —
  /// byte-identical to re-encoding the mutated struct.
  std::size_t peer_flag_offset = 0;
  std::span<const std::uint8_t> payload;  ///< view into the frame

  /// Full TaggedPacket (payload copied) for the rare paths that must hold
  /// the packet across events (pending MC lookups).
  [[nodiscard]] TaggedPacket materialize() const;
};

struct ClientActionView {
  ClientId client;
  std::uint8_t kind = 0;
  Vec2 position;
  std::optional<Vec2> target;
  std::uint32_t seq = 0;
  SimTime sent_at{};
  std::span<const std::uint8_t> payload;  ///< view into the frame
};

struct ServerUpdateView {
  std::uint8_t kind = 0;
  Vec2 position;
  std::uint32_t ack_seq = 0;
  SimTime origin_sent_at{};
  std::span<const std::uint8_t> payload;  ///< view into the frame
};

/// The matrix leg of a game→matrix→game relay (StateTransfer,
/// ClientStateTransfer, QueueHandoff) needs exactly one field: where to
/// forward.  The relay re-sends the arriving frame bytes untouched
/// (encode∘decode is the identity, so the raw forward is byte-identical to
/// decode-then-re-encode) and the blob — unbounded during big sheds — is
/// never copied through a decoded struct.  The parser still walks the
/// whole frame, allocating nothing (the blob is skipped by its length,
/// handoff entries are read one at a time into one scratch entry), so it
/// accepts exactly the frames decode_message accepts and a malformed tail
/// is dropped at the relay instead of crossing the network.
struct RelayFrameView {
  std::uint8_t wire_type = 0;
  NodeId to_game;
};

[[nodiscard]] std::optional<TaggedPacketView> parse_tagged_packet_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ClientActionView> parse_client_action_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<ServerUpdateView> parse_server_update_frame(
    std::span<const std::uint8_t> frame);
/// LoadReport and QueueUpdate carry no payload, so their "view" is the
/// message itself, decoded without the 39-alternative variant: every game
/// server reports per interval and surge queues ping every parked client
/// per drain tick.
[[nodiscard]] std::optional<LoadReport> parse_load_report_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<QueueUpdate> parse_queue_update_frame(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<RelayFrameView> parse_relay_frame(
    std::span<const std::uint8_t> frame);

/// Parses bytes back into a Message; std::nullopt on malformed input.
/// Decoding is canonical: trailing bytes, flag bytes other than 0/1 and
/// non-minimal varints are rejected, so every accepted frame re-encodes to
/// exactly its own bytes (the property raw relays depend on).
[[nodiscard]] std::optional<Message> decode_message(
    std::span<const std::uint8_t> bytes);

/// Short human-readable name of the message alternative, for logs/metrics.
[[nodiscard]] const char* message_name(const Message& message);

}  // namespace matrix
