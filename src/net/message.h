// Wire envelope.
//
// The network layer is payload-agnostic: it moves byte blobs between nodes
// and charges them against link latency/bandwidth and node service capacity.
// Protocol structure lives one layer up (core/protocol.h).
//
// Zero tails.  Many frames end in a long run of zero bytes: the game
// payloads that stand in for real game data are zero filler sized to model
// bandwidth (a 100k-client update tick puts ~100k such ~300-byte digests on
// the wire at once).  An envelope stores only a frame's head — every byte up
// to that trailing run — and carries the run as a count, `zero_tail`, in
// the manner of ns-3's packet "zero area" (Lacage & Henderson, WNS2 2006).
// Everything that measures a frame counts the tail: wire_size() and through
// it link stats, byte totals, transfer delay and service time, and the
// golden trace hash.  Senders trim (core/protocol_node.h, api/matrix_port.h);
// the network rebuilds the full frame in a per-shard scratch buffer for the
// length of the receiving handler only (Network::run_service), so every
// handler, decoder and frame view sees exactly the bytes that were sent.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/sim_time.h"

namespace matrix {

/// Fixed per-message framing overhead charged on the wire, approximating
/// UDP/IP headers.  Keeps tiny game packets from looking free.
inline constexpr std::size_t kWireHeaderBytes = 28;

struct Envelope {
  NodeId src;
  NodeId dst;
  /// The frame's head: all of it inside a receiving handler.
  std::vector<std::uint8_t> payload;
  SimTime sent_at{};
  SimTime delivered_at{};  // arrival at the destination's receive queue
  /// Zero bytes that follow `payload` in the frame (0 inside a handler).
  std::uint32_t zero_tail = 0;

  /// Bytes of the whole frame, stored head plus zero tail.
  [[nodiscard]] std::size_t frame_size() const {
    return payload.size() + zero_tail;
  }
  /// Bytes charged on the wire (frame + framing).
  [[nodiscard]] std::size_t wire_size() const {
    return frame_size() + kWireHeaderBytes;
  }
};

}  // namespace matrix
