// Base class for nodes that speak the Matrix wire protocol.
//
// Decodes each arriving envelope into a Message and dispatches it to the
// subclass; provides a typed `send` that encodes on the way out.  Malformed
// payloads are counted and dropped rather than crashing the process — a
// middleware that can be killed by one bad packet fails the paper's DoS
// design criterion (§2.1).
#pragma once

#include <cstdint>

#include "core/protocol.h"
#include "net/network.h"

namespace matrix {

class ProtocolNode : public Node {
 public:
  void handle_message(const Envelope& envelope) final {
    if (on_frame(envelope)) return;
    auto message = decode_message(envelope.payload);
    if (!message) {
      ++malformed_count_;
      return;
    }
    on_message(*message, envelope);
  }

  [[nodiscard]] std::uint64_t malformed_count() const {
    return malformed_count_;
  }

 protected:
  /// Typed dispatch point; `envelope` exposes src/timing metadata.
  virtual void on_message(const Message& message, const Envelope& envelope) = 0;

  /// Frame fast path, tried before the full decode: a subclass that can
  /// handle this frame from a zero-copy partial parse (protocol.h's
  /// parse_*_frame views) does so and returns true; returning false sends
  /// the message down the ordinary decode → on_message path.  Each parse
  /// accepts exactly the frames decode_message accepts as its type
  /// (protocol_test's *ViewMatchesFullDecode cases), so a type an override
  /// always handles on a valid parse never reaches on_message: a frame it
  /// rejects is counted malformed by the decode.  Such a type needs no
  /// on_message branch.
  virtual bool on_frame(const Envelope& envelope) {
    (void)envelope;
    return false;
  }

  /// Encodes and sends; returns wire bytes charged.
  std::size_t send(NodeId dst, const Message& message) {
    return std::visit([this, dst](const auto& body) { return send(dst, body); },
                      message);
  }

  /// Typed fast path: callers passing a concrete body (the common case)
  /// skip the Message-variant copy entirely.  Encodes into a buffer rented
  /// from the network's pool, so steady-state sends are allocation-free
  /// (the network reclaims the storage after delivery).  Only the frame's
  /// head is stored; its zero tail travels as a count (net/message.h).
  template <typename Body,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Body>, Message> &&
                std::is_constructible_v<Message, const Body&>>>
  std::size_t send(NodeId dst, const Body& body) {
    ByteWriter writer(network()->rent_buffer());
    const std::size_t zero_tail = encode_head_into(writer, body);
    return network()->send(node_id(), dst, writer.take(), zero_tail);
  }

  /// Relay fast path: forwards already-encoded wire bytes verbatim (e.g. a
  /// verified peer packet handed to the co-located game server), skipping
  /// the decode→re-encode round-trip.  Byte-equivalent to re-encoding the
  /// decoded message — encode∘decode is the identity on valid frames (the
  /// round-trip property protocol_test pins for every message type).
  std::size_t send_raw(NodeId dst, std::span<const std::uint8_t> bytes) {
    const auto head = bytes.first(bytes.size() - zero_tail_length(bytes));
    std::vector<std::uint8_t> buf = network()->rent_buffer();
    buf.assign(head.begin(), head.end());
    return network()->send(node_id(), dst, std::move(buf),
                           bytes.size() - head.size());
  }

  [[nodiscard]] SimTime now() const { return network()->now(); }

 private:
  std::uint64_t malformed_count_ = 0;
};

}  // namespace matrix
