// MatrixPort — the game-developer API (paper §2.1, §3.2.2).
//
// This is the entire surface a game server needs to run under Matrix.  The
// paper's design criteria are reflected directly:
//
//   * Separation of concerns: the game never sees overlap tables, splits,
//     the coordinator, or peer servers — it tags packets with coordinates
//     and reacts to a handful of callbacks.
//   * No new security model: the game keeps its client connections; Matrix
//     only sits between game servers.
//   * Multiple platforms / minimal changes: the port is plain callbacks over
//     byte payloads; no game types leak into Matrix and vice versa.
//
// Usage sketch (see examples/quickstart.cpp for a complete program):
//
//   MatrixPort port(network, my_node, my_matrix_node);
//   port.on_packet([&](const TaggedPacket& p) { apply_remote_event(p); });
//   port.on_map_range([&](const MapRange& r) { adjust_authority(r); });
//   ...
//   port.send_packet(tagged);     // every client packet, spatially tagged
//   port.report_load(load);      // periodically
//
// The game server calls `try_dispatch` from its message handler; the port
// consumes Matrix-originated messages and returns false for everything else
// (client traffic), which the game handles itself.
#pragma once

#include <functional>

#include "core/protocol.h"
#include "net/network.h"

namespace matrix {

class MatrixPort {
 public:
  /// `self` is the game server's node; `matrix_node` its co-located Matrix
  /// server.
  MatrixPort(Network* network, NodeId self, NodeId matrix_node)
      : network_(network), self_(self), matrix_node_(matrix_node) {}

  // ---- outbound (game → Matrix) --------------------------------------------

  /// Forwards a spatially-tagged game packet for consistency routing.
  /// Returns wire bytes sent.
  std::size_t send_packet(const TaggedPacket& packet) {
    return send_body(packet);
  }

  /// Periodic load report; drives split/reclaim decisions.
  std::size_t report_load(const LoadReport& report) {
    return send_body(report);
  }

  /// Bulk map-object state destined for `transfer.to_game`, relayed via
  /// Matrix during splits/reclaims.
  std::size_t transfer_state(const StateTransfer& transfer) {
    return send_body(transfer);
  }

  /// One switching client's avatar state, relayed via Matrix.
  std::size_t transfer_client_state(const ClientStateTransfer& transfer) {
    return send_body(transfer);
  }

  /// Acknowledges that a MapRange-ordered shed has completed.
  std::size_t shed_done(const ShedDone& done) { return send_body(done); }

  /// Surge-queue entries whose region moved to `handoff.to_game` in a
  /// split/reclaim, relayed via Matrix so they re-park there with class
  /// and accrued age preserved (coordinator-led global admission).
  std::size_t transfer_queue(const QueueHandoff& handoff) {
    return send_body(handoff);
  }

  /// Asks Matrix which game server owns `query.point` (client migration:
  /// "Matrix provides the identity of the appropriate game server").  The
  /// answer arrives on the on_owner_reply callback.
  std::size_t query_owner(const OwnerQuery& query) {
    return send_body(query);
  }

  // ---- inbound callbacks (Matrix → game) ------------------------------------

  using PacketHandler = std::function<void(const TaggedPacket&)>;
  using MapRangeHandler = std::function<void(const MapRange&)>;
  using StateHandler = std::function<void(const StateTransfer&)>;
  using ClientStateHandler = std::function<void(const ClientStateTransfer&)>;
  using OwnerReplyHandler = std::function<void(const OwnerReply&)>;
  using AdmissionHandler = std::function<void(const AdmissionUpdate&)>;
  using QueueHandoffHandler = std::function<void(const QueueHandoff&)>;

  /// A remote event relevant to this server's partition (range-verified by
  /// the Matrix server before delivery).
  void on_packet(PacketHandler handler) { packet_ = std::move(handler); }
  /// The authoritative map range changed (split/reclaim/initial).
  void on_map_range(MapRangeHandler handler) { map_range_ = std::move(handler); }
  /// Incoming bulk state from another game server.
  void on_state_transfer(StateHandler handler) { state_ = std::move(handler); }
  /// Incoming avatar state for a client about to connect here.
  void on_client_state(ClientStateHandler handler) {
    client_state_ = std::move(handler);
  }
  /// Answer to an earlier query_owner.
  void on_owner_reply(OwnerReplyHandler handler) {
    owner_reply_ = std::move(handler);
  }
  /// What the game server must enforce for admission changed
  /// (src/control/): the valve state, composed from the local valve and
  /// the coordinator directive floor; the join-bucket token rate (the
  /// directive's budget share, or the local rate again on a rescind); and
  /// whether a directive is in force.  All of it arrives in this one
  /// update, so the game needs no control-plane logic of its own.
  void on_admission(AdmissionHandler handler) {
    admission_ = std::move(handler);
  }
  /// Parked joins handed off from another server's surge queue.
  void on_queue_handoff(QueueHandoffHandler handler) {
    queue_handoff_ = std::move(handler);
  }

  /// Routes a decoded message to the registered callback.  Returns true if
  /// the message belonged to Matrix (consumed), false if it is the game's
  /// own traffic.
  bool try_dispatch(const Message& message) {
    if (const auto* packet = std::get_if<TaggedPacket>(&message)) {
      if (packet_) packet_(*packet);
      return true;
    }
    if (const auto* range = std::get_if<MapRange>(&message)) {
      if (map_range_) map_range_(*range);
      return true;
    }
    if (const auto* state = std::get_if<StateTransfer>(&message)) {
      if (state_) state_(*state);
      return true;
    }
    if (const auto* cstate = std::get_if<ClientStateTransfer>(&message)) {
      if (client_state_) client_state_(*cstate);
      return true;
    }
    if (const auto* reply = std::get_if<OwnerReply>(&message)) {
      if (owner_reply_) owner_reply_(*reply);
      return true;
    }
    if (const auto* update = std::get_if<AdmissionUpdate>(&message)) {
      if (admission_) admission_(*update);
      return true;
    }
    if (const auto* handoff = std::get_if<QueueHandoff>(&message)) {
      if (queue_handoff_) queue_handoff_(*handoff);
      return true;
    }
    return false;
  }

  [[nodiscard]] NodeId matrix_node() const { return matrix_node_; }

 private:
  /// Typed: no Message-variant copy per outbound call.  Stores only the
  /// frame's head; its zero tail travels as a count (net/message.h).
  template <typename Body>
  std::size_t send_body(const Body& body) {
    ByteWriter writer(network_->rent_buffer());
    const std::size_t zero_tail = encode_head_into(writer, body);
    return network_->send(self_, matrix_node_, writer.take(), zero_tail);
  }

  Network* network_;
  NodeId self_;
  NodeId matrix_node_;
  PacketHandler packet_;
  MapRangeHandler map_range_;
  StateHandler state_;
  ClientStateHandler client_state_;
  OwnerReplyHandler owner_reply_;
  AdmissionHandler admission_;
  QueueHandoffHandler queue_handoff_;
};

}  // namespace matrix
