// Wire-protocol tests (core/protocol.h): one randomized round-trip PROPERTY
// over every Message alternative (replacing the old hand-written
// per-message cases), canonical decoding of mutated frames, agreement of
// the zero-copy frame views with the full decode, decoder robustness
// against malformed input, and the ServerSet consistency-set container.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/protocol.h"
#include "core/server_set.h"
#include "util/rng.h"

namespace matrix {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// ServerSet
// ---------------------------------------------------------------------------

TEST(ServerSetTest, InsertKeepsSortedUnique) {
  ServerSet set;
  set.insert(ServerId(3));
  set.insert(ServerId(1));
  set.insert(ServerId(3));
  set.insert(ServerId(2));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.ids(),
            (std::vector<ServerId>{ServerId(1), ServerId(2), ServerId(3)}));
}

TEST(ServerSetTest, ContainsAndErase) {
  ServerSet set{ServerId(5), ServerId(9)};
  EXPECT_TRUE(set.contains(ServerId(5)));
  EXPECT_FALSE(set.contains(ServerId(6)));
  set.erase(ServerId(5));
  EXPECT_FALSE(set.contains(ServerId(5)));
  set.erase(ServerId(5));  // double-erase is a no-op
  EXPECT_EQ(set.size(), 1u);
}

TEST(ServerSetTest, MergeIsUnion) {
  ServerSet a{ServerId(1), ServerId(3)};
  const ServerSet b{ServerId(2), ServerId(3), ServerId(4)};
  a.merge(b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_TRUE(a.contains(ServerId(2)));
}

TEST(ServerSetTest, Intersect) {
  const ServerSet a{ServerId(1), ServerId(2), ServerId(3)};
  const ServerSet b{ServerId(2), ServerId(3), ServerId(4)};
  const ServerSet c = a.intersect(b);
  EXPECT_EQ(c, (ServerSet{ServerId(2), ServerId(3)}));
}

TEST(ServerSetTest, EqualityIsOrderIndependent) {
  ServerSet a, b;
  a.insert(ServerId(1));
  a.insert(ServerId(2));
  b.insert(ServerId(2));
  b.insert(ServerId(1));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Randomized round-trip property over EVERY Message alternative
// ---------------------------------------------------------------------------
//
// For any message m with randomized fields:
//   * decode(encode(m)) succeeds and equals m, so a member left out of its
//     field list in protocol.cpp is caught (it would come back defaulted);
//   * re-encoding the decoded message reproduces the original bytes
//     byte-for-byte (the codec is a bijection on its value space);
//   * message_name covers the alternative.
//
// One parameterized test instead of a hand-written case per message, and
// adding a NEW message breaks the static_assert below until the generator
// covers it.  The generator is written out by hand on purpose: deriving it
// from the schema would make the test agree with any schema mistake.

static_assert(std::variant_size_v<Message> == 39,
              "New Message alternative: extend random_message() below");

Vec2 rnd_vec(Rng& rng) {
  return {rng.next_double_in(-1000.0, 1000.0),
          rng.next_double_in(-1000.0, 1000.0)};
}

Rect rnd_rect(Rng& rng) {
  const double x0 = rng.next_double_in(-500.0, 500.0);
  const double y0 = rng.next_double_in(-500.0, 500.0);
  return Rect(x0, y0, x0 + rng.next_double_in(0.0, 800.0),
              y0 + rng.next_double_in(0.0, 800.0));
}

SimTime rnd_time(Rng& rng) {
  return SimTime::from_us(
      static_cast<std::int64_t>(rng.next_below(1'000'000'000'000ULL)));
}

std::optional<Vec2> rnd_opt_vec(Rng& rng) {
  if (rng.next_bool(0.5)) return std::nullopt;
  return rnd_vec(rng);
}

std::vector<std::uint8_t> rnd_blob(Rng& rng) {
  std::vector<std::uint8_t> blob(rng.next_below(64));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
  return blob;
}

std::string rnd_str(Rng& rng) {
  std::string s(rng.next_below(24), '\0');
  for (auto& c : s) {
    c = static_cast<char>('a' + rng.next_below(26));
  }
  return s;
}

std::uint8_t rnd_u8(Rng& rng) {
  return static_cast<std::uint8_t>(rng.next_below(256));
}
std::uint32_t rnd_u32(Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_u64());
}
double rnd_f64(Rng& rng) { return rng.next_double_in(-1.0e6, 1.0e6); }

template <typename IdType>
IdType rnd_id(Rng& rng) {
  return IdType(rng.next_u64());
}

/// A randomized instance of the `index`-th Message alternative.
Message random_message(std::size_t index, Rng& rng) {
  switch (index) {
    case 0: {
      TaggedPacket m;
      m.client = rnd_id<ClientId>(rng);
      m.entity = rnd_id<EntityId>(rng);
      m.origin = rnd_vec(rng);
      m.target = rnd_opt_vec(rng);
      m.radius_class = rnd_u8(rng);
      m.kind = rnd_u8(rng);
      m.seq = rnd_u32(rng);
      m.client_sent_at = rnd_time(rng);
      m.peer_forwarded = rng.next_bool(0.5);
      m.payload = rnd_blob(rng);
      return m;
    }
    case 1: {
      ClientHello m;
      m.client = rnd_id<ClientId>(rng);
      m.position = rnd_vec(rng);
      m.resume = rng.next_bool(0.5);
      m.redirect_seq = rnd_u32(rng);
      m.priority = rnd_u8(rng);
      return m;
    }
    case 2: {
      Welcome m;
      m.client = rnd_id<ClientId>(rng);
      m.avatar = rnd_id<EntityId>(rng);
      m.authority = rnd_rect(rng);
      m.redirect_seq = rnd_u32(rng);
      return m;
    }
    case 3: {
      ClientAction m;
      m.client = rnd_id<ClientId>(rng);
      m.kind = rnd_u8(rng);
      m.position = rnd_vec(rng);
      m.target = rnd_opt_vec(rng);
      m.seq = rnd_u32(rng);
      m.sent_at = rnd_time(rng);
      m.payload = rnd_blob(rng);
      return m;
    }
    case 4: {
      ServerUpdate m;
      m.kind = rnd_u8(rng);
      m.position = rnd_vec(rng);
      m.ack_seq = rnd_u32(rng);
      m.origin_sent_at = rnd_time(rng);
      m.payload = rnd_blob(rng);
      return m;
    }
    case 5: {
      Redirect m;
      m.new_game_node = rnd_id<NodeId>(rng);
      m.new_server = rnd_id<ServerId>(rng);
      m.redirect_seq = rnd_u32(rng);
      return m;
    }
    case 6: return ClientBye{rnd_id<ClientId>(rng)};
    case 7: {
      LoadReport m;
      m.client_count = rnd_u32(rng);
      m.queue_length = rnd_u32(rng);
      m.msgs_per_sec = rnd_f64(rng);
      m.median_position = rnd_vec(rng);
      m.waiting_count = rnd_u32(rng);
      return m;
    }
    case 8: {
      MapRange m;
      m.new_range = rnd_rect(rng);
      m.shed_range = rnd_rect(rng);
      m.shed_to_game = rnd_id<NodeId>(rng);
      m.shed_to_server = rnd_id<ServerId>(rng);
      m.reclaim = rng.next_bool(0.5);
      m.topology_epoch = rng.next_u64();
      return m;
    }
    case 9: return ShedDone{rng.next_u64(), rnd_u32(rng)};
    case 10: {
      OwnerQuery m;
      m.point = rnd_vec(rng);
      m.client = rnd_id<ClientId>(rng);
      m.seq = rnd_u32(rng);
      return m;
    }
    case 11: {
      OwnerReply m;
      m.client = rnd_id<ClientId>(rng);
      m.seq = rnd_u32(rng);
      m.found = rng.next_bool(0.5);
      m.server = rnd_id<ServerId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 12: {
      Adopt m;
      m.parent = rnd_id<ServerId>(rng);
      m.parent_matrix = rnd_id<NodeId>(rng);
      m.parent_game = rnd_id<NodeId>(rng);
      m.range = rnd_rect(rng);
      m.visibility_radius = rng.next_double_in(1.0, 500.0);
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        m.extra_radii.push_back(rng.next_double_in(1.0, 500.0));
      }
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        m.content_keys.push_back(rnd_str(rng));
      }
      m.topology_epoch = rng.next_u64();
      return m;
    }
    case 13: {
      PeerLoad m;
      m.server = rnd_id<ServerId>(rng);
      m.client_count = rnd_u32(rng);
      m.child_count = rnd_u32(rng);
      return m;
    }
    case 14: return ReclaimRequest{rng.next_u64()};
    case 15: return ReclaimDecline{rnd_id<ServerId>(rng), rng.next_u64()};
    case 16: {
      ReclaimDone m;
      m.child = rnd_id<ServerId>(rng);
      m.range = rnd_rect(rng);
      m.topology_epoch = rng.next_u64();
      return m;
    }
    case 17: {
      StateTransfer m;
      m.from_server = rnd_id<ServerId>(rng);
      m.to_game = rnd_id<NodeId>(rng);
      m.range = rnd_rect(rng);
      m.object_count = rnd_u32(rng);
      m.blob = rnd_blob(rng);
      return m;
    }
    case 18: {
      ClientStateTransfer m;
      m.client = rnd_id<ClientId>(rng);
      m.entity = rnd_id<EntityId>(rng);
      m.to_game = rnd_id<NodeId>(rng);
      m.blob = rnd_blob(rng);
      return m;
    }
    case 19: {
      ServerRegister m;
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      m.range = rnd_rect(rng);
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        m.radii.push_back(rng.next_double_in(1.0, 500.0));
      }
      return m;
    }
    case 20: return ServerUnregister{rnd_id<ServerId>(rng)};
    case 21: {
      OverlapTableMsg m;
      m.server = rnd_id<ServerId>(rng);
      m.partition = rnd_rect(rng);
      m.radius_class = rnd_u8(rng);
      m.radius = rng.next_double_in(1.0, 500.0);
      m.version = rng.next_u64();
      for (std::uint64_t r = rng.next_below(4); r > 0; --r) {
        OverlapRegionWire region;
        region.rect = rnd_rect(rng);
        // The peer vectors are parallel by protocol contract.
        for (std::uint64_t p = rng.next_below(4); p > 0; --p) {
          region.peer_servers.push_back(rnd_id<ServerId>(rng));
          region.peer_matrix_nodes.push_back(rnd_id<NodeId>(rng));
        }
        m.regions.push_back(std::move(region));
      }
      return m;
    }
    case 22: return PointLookup{rnd_vec(rng), rnd_u32(rng)};
    case 23: {
      PointOwner m;
      m.lookup_seq = rnd_u32(rng);
      m.found = rng.next_bool(0.5);
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 24:
      // Includes the load rules' need hint (0 = classic FCFS; positive
      // values bias contested-grant arbitration).
      return PoolAcquire{rnd_id<ServerId>(rng),
                         rng.next_bool(0.5) ? 0.0
                                            : rng.next_double_in(0.0, 64.0)};
    case 25: {
      PoolGrant m;
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 26: return PoolDeny{};
    case 27: {
      PoolRelease m;
      m.server = rnd_id<ServerId>(rng);
      m.matrix_node = rnd_id<NodeId>(rng);
      m.game_node = rnd_id<NodeId>(rng);
      return m;
    }
    case 28: return McAnnounce{rnd_id<NodeId>(rng), rng.next_u64()};
    case 29: return JoinDeny{rnd_id<ClientId>(rng), rnd_time(rng)};
    case 30: return JoinDefer{rnd_id<ClientId>(rng), rnd_time(rng)};
    case 31: {
      AdmissionUpdate m;
      m.state = rnd_u8(rng);
      m.seq = rng.next_u64();
      m.token_rate = rng.next_double_in(0.0, 1000.0);
      m.directive_active = rng.next_bool(0.5);
      return m;
    }
    case 32: return PoolStatus{rnd_u32(rng), rnd_u32(rng)};
    case 33: return PoolPressure{rnd_u32(rng), rnd_u32(rng)};
    case 34: {
      QueueUpdate m;
      m.client = rnd_id<ClientId>(rng);
      m.position = rnd_u32(rng);
      m.depth = rnd_u32(rng);
      m.eta = rnd_time(rng);
      return m;
    }
    case 35: {
      LoadDigest m;
      m.server = rnd_id<ServerId>(rng);
      m.client_count = rnd_u32(rng);
      m.queue_length = rnd_u32(rng);
      m.waiting_count = rnd_u32(rng);
      m.admission_state = rnd_u8(rng);
      return m;
    }
    case 36: {
      AdmissionDirective m;
      m.seq = rng.next_u64();
      m.floor = rnd_u8(rng);
      m.active = rng.next_bool(0.5);
      m.token_rate = rng.next_double_in(0.0, 1000.0);
      return m;
    }
    case 37: {
      QueueHandoff m;
      m.from_server = rnd_id<ServerId>(rng);
      m.to_game = rnd_id<NodeId>(rng);
      for (std::uint64_t i = rng.next_below(5); i > 0; --i) {
        QueueHandoffEntry entry;
        entry.client = rnd_id<ClientId>(rng);
        entry.client_node = rnd_id<NodeId>(rng);
        entry.position = rnd_vec(rng);
        entry.cls = rnd_u8(rng);
        entry.enqueued_at = rnd_time(rng);
        m.entries.push_back(entry);
      }
      return m;
    }
    case 38:
      return McHeartbeat{rnd_id<NodeId>(rng), rng.next_u64(), rng.next_u64()};
    default: break;
  }
  ADD_FAILURE() << "random_message: unhandled alternative " << index;
  return PoolDeny{};
}

class ProtocolRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolRoundTripProperty, EveryMessageSurvivesTheCodec) {
  Rng rng(GetParam());
  constexpr std::size_t kAlternatives = std::variant_size_v<Message>;
  for (std::size_t index = 0; index < kAlternatives; ++index) {
    for (int rep = 0; rep < 8; ++rep) {
      const Message in = random_message(index, rng);
      ASSERT_EQ(in.index(), index) << "generator built the wrong alternative";
      EXPECT_STRNE(message_name(in), "Unknown");
      const auto bytes = encode_message(in);
      const auto out = decode_message(bytes);
      ASSERT_TRUE(out.has_value())
          << message_name(in) << " failed to decode (seed " << GetParam()
          << ", rep " << rep << ")";
      EXPECT_EQ(out->index(), index) << message_name(in);
      EXPECT_TRUE(*out == in)
          << message_name(in) << " decoded to a different value (seed "
          << GetParam() << ", rep " << rep << ")";
      EXPECT_EQ(encode_message(*out), bytes)
          << message_name(in) << " re-encode mismatch (seed " << GetParam()
          << ", rep " << rep << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Pins decoded field VALUES for the fields most recently added to the
// protocol, from hand-picked inputs rather than the generator.
TEST(ProtocolTest, RecentFieldsSurviveDecoding) {
  const auto acquire =
      decode_message(encode_message(Message{PoolAcquire{ServerId(7), 3.25}}));
  ASSERT_TRUE(acquire.has_value());
  EXPECT_EQ(std::get<PoolAcquire>(*acquire).requester, ServerId(7));
  EXPECT_DOUBLE_EQ(std::get<PoolAcquire>(*acquire).need, 3.25);

  LoadReport report;
  report.client_count = 312;
  report.waiting_count = 41;
  const auto report_out = decode_message(encode_message(Message{report}));
  ASSERT_TRUE(report_out.has_value());
  EXPECT_EQ(std::get<LoadReport>(*report_out).client_count, 312u);
  EXPECT_EQ(std::get<LoadReport>(*report_out).waiting_count, 41u);

  AdmissionDirective directive;
  directive.seq = 9;
  directive.active = true;
  directive.token_rate = 13.75;
  const auto directive_out =
      decode_message(encode_message(Message{directive}));
  ASSERT_TRUE(directive_out.has_value());
  const auto& d = std::get<AdmissionDirective>(*directive_out);
  EXPECT_EQ(d.seq, 9u);
  EXPECT_TRUE(d.active);
  EXPECT_DOUBLE_EQ(d.token_rate, 13.75);

  AdmissionUpdate update;
  update.state = 1;
  update.seq = 17;
  update.token_rate = 6.5;
  update.directive_active = true;
  const auto update_out = decode_message(encode_message(Message{update}));
  ASSERT_TRUE(update_out.has_value());
  const auto& u = std::get<AdmissionUpdate>(*update_out);
  EXPECT_EQ(u.state, 1u);
  EXPECT_EQ(u.seq, 17u);
  EXPECT_DOUBLE_EQ(u.token_rate, 6.5);
  EXPECT_TRUE(u.directive_active);

  McHeartbeat beat;
  beat.mc_node = NodeId(21);
  beat.generation = 3;
  beat.seq = 117;
  const auto beat_out = decode_message(encode_message(Message{beat}));
  ASSERT_TRUE(beat_out.has_value());
  const auto& hb = std::get<McHeartbeat>(*beat_out);
  EXPECT_EQ(hb.mc_node, NodeId(21));
  EXPECT_EQ(hb.generation, 3u);
  EXPECT_EQ(hb.seq, 117u);
}

// ---------------------------------------------------------------------------
// Mutated frames
// ---------------------------------------------------------------------------

using Frame = std::vector<std::uint8_t>;

/// Every strict prefix of `frame`, the frame with one byte appended, and
/// the frame with each byte in turn replaced by three random other values.
std::vector<Frame> mutations(const Frame& frame, Rng& rng) {
  std::vector<Frame> out;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    out.emplace_back(frame.begin(), frame.begin() + len);
  }
  out.push_back(frame);
  out.back().push_back(rnd_u8(rng));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      out.push_back(frame);
      out.back()[i] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
  }
  return out;
}

// Decoding is canonical: no frame is accepted unless it is exactly the
// encoding of the message it decodes to.  That is what makes a raw relay
// (send_raw, the peer-flag flip) byte-identical to decode-then-re-encode.
TEST(ProtocolTest, MutatedFramesDecodeOnlyToTheirOwnEncoding) {
  Rng rng(4711);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    for (int rep = 0; rep < 4; ++rep) {
      const Message in = random_message(index, rng);
      const Frame frame = encode_message(in);
      const std::size_t prefixes = frame.size();
      const std::vector<Frame> mutated = mutations(frame, rng);
      for (std::size_t i = 0; i < mutated.size(); ++i) {
        const auto out = decode_message(mutated[i]);
        if (i <= prefixes) {
          EXPECT_FALSE(out.has_value())
              << message_name(in) << " accepted "
              << (i < prefixes ? "a strict prefix" : "an appended byte");
        } else if (out.has_value()) {
          EXPECT_EQ(encode_message(*out), mutated[i])
              << message_name(*out) << " accepted a non-canonical flip of "
              << "byte " << (i - prefixes - 1) / 3;
        }
      }
      constexpr int kLastType = std::variant_size_v<Message>;
      Frame retyped = frame;
      for (int type = 0; type < 256; ++type) {
        if (type >= 1 && type <= kLastType) continue;
        retyped[0] = static_cast<std::uint8_t>(type);
        EXPECT_FALSE(decode_message(retyped).has_value()) << "type " << type;
      }
    }
  }
}

// A count or length prefix of 2^62 must fail on the bytes left, never
// reach an allocation sized by the count (which would throw, or abort
// under ASan).
TEST(ProtocolTest, HugeCountsFailWithoutAllocating) {
  constexpr std::uint64_t kHuge = 1ULL << 62;
  ByteWriter handoff;  // QueueHandoff.entries
  handoff.u8(wire_type<QueueHandoff>);
  handoff.id(ServerId(1));
  handoff.id(NodeId(2));
  handoff.varint(kHuge);
  ByteWriter reg;  // ServerRegister.radii
  reg.u8(wire_type<ServerRegister>);
  for (int i = 0; i < 3; ++i) reg.varint(i + 1);
  for (int i = 0; i < 4; ++i) reg.f64(0.0);
  reg.varint(kHuge);
  ByteWriter table;  // OverlapTableMsg.regions[0].peer_servers
  table.u8(wire_type<OverlapTableMsg>);
  table.varint(1);
  for (int i = 0; i < 4; ++i) table.f64(0.0);
  table.u8(0);
  table.f64(1.0);
  table.u64(1);
  table.varint(1);
  for (int i = 0; i < 4; ++i) table.f64(0.0);
  table.varint(kHuge);
  ByteWriter transfer;  // StateTransfer.blob
  transfer.u8(wire_type<StateTransfer>);
  transfer.varint(1);
  transfer.varint(2);
  for (int i = 0; i < 4; ++i) transfer.f64(0.0);
  transfer.u32(0);
  transfer.varint(kHuge);
  for (const ByteWriter* w : {&handoff, &reg, &table, &transfer}) {
    EXPECT_FALSE(decode_message(w->bytes()).has_value());
  }
}

// Non-canonical frames: a trailing byte, a flag byte other than 0/1, and a
// varint with a redundant zero group.
TEST(ProtocolTest, NonCanonicalFramesAreRejected) {
  LoadReport report;
  report.client_count = 3;
  Frame trailing = encode_message(Message{report});
  trailing.push_back(0);
  EXPECT_FALSE(decode_message(trailing).has_value());
  EXPECT_FALSE(parse_load_report_frame(trailing).has_value());

  ClientHello hello;
  hello.resume = true;
  Frame flag = encode_message(Message{hello});
  const std::size_t resume_at = 1 + 1 + 16;  // type, client varint, position
  ASSERT_EQ(flag[resume_at], 1);
  flag[resume_at] = 7;
  EXPECT_FALSE(decode_message(flag).has_value());

  // ClientBye{client = 5} with the id as a two-byte varint.
  const Frame overlong{wire_type<ClientBye>, 0x85, 0x00};
  EXPECT_FALSE(decode_message(overlong).has_value());
}

// ---------------------------------------------------------------------------
// Zero-copy frame fast paths
// ---------------------------------------------------------------------------
// Each parse_*_frame view must agree field-for-field with the full decode of
// the same bytes and accept exactly the frames the full decode accepts as
// its type.  The on_frame overrides rely on that: a frame of a fast-path
// type reaches on_message only if the full decode rejects it too, so these
// types need no decoded-struct handler there.

template <typename T>
constexpr std::size_t index_of() {
  return wire_type<T> - 1u;
}

bool same_payload(std::span<const std::uint8_t> view, const PayloadBytes& m) {
  return std::ranges::equal(view, std::span<const std::uint8_t>(m));
}

void expect_same(const TaggedPacketView& v, const TaggedPacket& m) {
  EXPECT_EQ(v.client, m.client);
  EXPECT_EQ(v.entity, m.entity);
  EXPECT_EQ(v.origin, m.origin);
  EXPECT_EQ(v.target, m.target);
  EXPECT_EQ(v.radius_class, m.radius_class);
  EXPECT_EQ(v.kind, m.kind);
  EXPECT_EQ(v.seq, m.seq);
  EXPECT_EQ(v.client_sent_at, m.client_sent_at);
  EXPECT_EQ(v.peer_forwarded, m.peer_forwarded);
  EXPECT_TRUE(same_payload(v.payload, m.payload));
  EXPECT_TRUE(v.materialize() == m);
}

void expect_same(const ClientActionView& v, const ClientAction& m) {
  EXPECT_EQ(v.client, m.client);
  EXPECT_EQ(v.kind, m.kind);
  EXPECT_EQ(v.position, m.position);
  EXPECT_EQ(v.target, m.target);
  EXPECT_EQ(v.seq, m.seq);
  EXPECT_EQ(v.sent_at, m.sent_at);
  EXPECT_TRUE(same_payload(v.payload, m.payload));
}

void expect_same(const ServerUpdateView& v, const ServerUpdate& m) {
  EXPECT_EQ(v.kind, m.kind);
  EXPECT_EQ(v.position, m.position);
  EXPECT_EQ(v.ack_seq, m.ack_seq);
  EXPECT_EQ(v.origin_sent_at, m.origin_sent_at);
  EXPECT_TRUE(same_payload(v.payload, m.payload));
}

/// LoadReport and QueueUpdate parse to the message itself.
template <typename T>
void expect_same(const T& v, const T& m) {
  EXPECT_TRUE(v == m);
}

/// Runs `parse` over valid and mutated random `T` frames against
/// decode_message; returns how many frames both accepted.
template <typename T, typename Parse>
std::size_t check_fast_path(Parse parse, Rng& rng) {
  std::size_t accepted = 0;
  for (int rep = 0; rep < 16; ++rep) {
    const Frame frame = encode_message(random_message(index_of<T>(), rng));
    std::vector<Frame> frames = mutations(frame, rng);
    frames.push_back(frame);
    frames.push_back(encode_message(Message{PoolDeny{}}));
    for (const Frame& f : frames) {
      const auto full = decode_message(f);
      const auto view = parse(f);
      const bool is_t = full.has_value() && std::holds_alternative<T>(*full);
      EXPECT_EQ(view.has_value(), is_t) << ::testing::PrintToString(f);
      if (!view || !is_t) continue;
      ++accepted;
      expect_same(*view, std::get<T>(*full));
    }
  }
  return accepted;
}

TEST(ProtocolTest, TaggedPacketViewMatchesFullDecode) {
  Rng rng(31);
  EXPECT_GT(check_fast_path<TaggedPacket>(
                [](const Frame& f) { return parse_tagged_packet_frame(f); },
                rng),
            16u);
  // A relay that flips the flag in place sends exactly the re-encoding of
  // the packet with peer_forwarded set.
  for (int rep = 0; rep < 32; ++rep) {
    const Message in = random_message(index_of<TaggedPacket>(), rng);
    Frame frame = encode_message(in);
    const auto view = parse_tagged_packet_frame(frame);
    ASSERT_TRUE(view.has_value());
    frame[view->peer_flag_offset] = 1;
    TaggedPacket forwarded = std::get<TaggedPacket>(in);
    forwarded.peer_forwarded = true;
    EXPECT_EQ(frame, encode_message(Message{forwarded}));
  }
}

TEST(ProtocolTest, ClientActionViewMatchesFullDecode) {
  Rng rng(32);
  EXPECT_GT(check_fast_path<ClientAction>(
                [](const Frame& f) { return parse_client_action_frame(f); },
                rng),
            16u);
}

TEST(ProtocolTest, ServerUpdateViewMatchesFullDecode) {
  Rng rng(33);
  EXPECT_GT(check_fast_path<ServerUpdate>(
                [](const Frame& f) { return parse_server_update_frame(f); },
                rng),
            16u);
}

TEST(ProtocolTest, LoadReportViewMatchesFullDecode) {
  Rng rng(34);
  EXPECT_GT(check_fast_path<LoadReport>(
                [](const Frame& f) { return parse_load_report_frame(f); },
                rng),
            16u);
}

TEST(ProtocolTest, QueueUpdateViewMatchesFullDecode) {
  Rng rng(35);
  EXPECT_GT(check_fast_path<QueueUpdate>(
                [](const Frame& f) { return parse_queue_update_frame(f); },
                rng),
            16u);
}

TEST(ProtocolTest, RelayViewExtractsDestinationForAllRelayLegs) {
  StateTransfer st;
  st.from_server = ServerId(3);
  st.to_game = NodeId(44);
  st.range = Rect::from_corners({0, 0}, {10, 10});
  st.object_count = 2;
  st.blob = {1, 2, 3, 4};

  ClientStateTransfer cst;
  cst.client = ClientId(9);
  cst.entity = EntityId(12);
  cst.to_game = NodeId(45);
  cst.blob = {5, 6};

  QueueHandoff handoff;
  handoff.from_server = ServerId(8);
  handoff.to_game = NodeId(46);
  handoff.entries.push_back(
      {ClientId(1), NodeId(100), {1.0, 2.0}, 1, SimTime::from_ms(5)});

  const struct {
    Message message;
    std::uint8_t wire_type;
    NodeId to_game;
  } cases[] = {
      {Message{st}, wire_type<StateTransfer>, st.to_game},
      {Message{cst}, wire_type<ClientStateTransfer>, cst.to_game},
      {Message{handoff}, wire_type<QueueHandoff>, handoff.to_game},
  };
  for (const auto& c : cases) {
    const auto bytes = encode_message(c.message);
    const auto view = parse_relay_frame(bytes);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->wire_type, c.wire_type);
    EXPECT_EQ(view->to_game, c.to_game);
  }
  // Any non-relay type is refused — the relay fast path must never trigger
  // on a frame whose second field is not a destination.
  EXPECT_FALSE(parse_relay_frame(encode_message(Message{PoolDeny{}})));
  EXPECT_FALSE(parse_relay_frame({}));
}

TEST(ProtocolTest, RelayViewAcceptsExactlyTheFramesDecodeAccepts) {
  // The relay validates the whole frame in place: a malformed tail (a short
  // or overlong blob, a bad handoff entry, a trailing byte) fails it as it
  // fails the full decode, and an accepted frame names the destination the
  // decode finds.
  Rng rng(36);
  std::size_t accepted = 0;
  for (const std::size_t index :
       {index_of<StateTransfer>(), index_of<ClientStateTransfer>(),
        index_of<QueueHandoff>()}) {
    for (int rep = 0; rep < 16; ++rep) {
      const Frame frame = encode_message(random_message(index, rng));
      std::vector<Frame> frames = mutations(frame, rng);
      frames.push_back(frame);
      for (const Frame& f : frames) {
        const auto full = decode_message(f);
        const auto view = parse_relay_frame(f);
        const std::optional<NodeId> to_game =
            full ? std::visit(
                       [](const auto& m) -> std::optional<NodeId> {
                         using M = std::decay_t<decltype(m)>;
                         if constexpr (std::is_same_v<M, StateTransfer> ||
                                       std::is_same_v<M, ClientStateTransfer> ||
                                       std::is_same_v<M, QueueHandoff>) {
                           return m.to_game;
                         } else {
                           return std::nullopt;
                         }
                       },
                       *full)
                 : std::nullopt;
        EXPECT_EQ(view.has_value(), to_game.has_value())
            << ::testing::PrintToString(f);
        if (!view || !to_game) continue;
        ++accepted;
        EXPECT_EQ(view->to_game, *to_game);
        EXPECT_EQ(view->wire_type, full->index() + 1);
      }
    }
  }
  EXPECT_GT(accepted, 48u);
}

// ---------------------------------------------------------------------------
// Zero tails
// ---------------------------------------------------------------------------

/// What a sender stores for `message`: encode_head_into's head and count.
std::pair<Frame, std::size_t> encode_head(const Message& message) {
  ByteWriter writer;
  const std::size_t tail = std::visit(
      [&writer](const auto& body) { return encode_head_into(writer, body); },
      message);
  return {writer.take(), tail};
}

TEST(ProtocolTest, EncodeHeadIsTheFrameLessItsZeroTail) {
  // For every message type, with random payloads, all-zero filler payloads,
  // empty ones and zero-valued fields last: the head is a prefix of the
  // full encoding and the count is exactly the run of zeros that ends it.
  Rng rng(37);
  std::vector<Message> cases;
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    for (int rep = 0; rep < 8; ++rep) {
      cases.push_back(random_message(index, rng));
    }
  }
  for (const std::size_t n : {0, 1, 12, 127, 128, 268, 300}) {
    ServerUpdate digest;
    digest.position = {1.0, 2.0};
    digest.payload.assign(n, 0);
    cases.push_back(digest);
    TaggedPacket packet = std::get<TaggedPacket>(random_message(0, rng));
    packet.payload.assign(n, 0);
    cases.push_back(packet);
    StateTransfer transfer;
    transfer.to_game = NodeId(4);
    transfer.blob.assign(n, 0);
    if (n > 1) transfer.blob[n / 2] = 9;
    cases.push_back(transfer);
  }
  cases.push_back(ServerUpdate{});
  cases.push_back(ShedDone{});
  cases.push_back(PoolDeny{});
  for (const Message& m : cases) {
    const Frame full = encode_message(m);
    const auto [head, tail] = encode_head(m);
    ASSERT_EQ(head.size() + tail, full.size()) << message_name(m);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), full.begin()))
        << message_name(m);
    EXPECT_EQ(tail, zero_tail_length(full)) << message_name(m);
  }
  // A filler digest's zeros are never allocated: 32 bytes hold the frame.
  ServerUpdate digest;
  digest.payload.assign(268, 0);
  const auto [head, tail] = encode_head(Message{digest});
  EXPECT_EQ(head.size(), 32u);
  EXPECT_EQ(tail, 268u);
  EXPECT_LT(head.capacity(), 64u);
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(ProtocolTest, EmptyBufferFailsToDecode) {
  EXPECT_FALSE(decode_message({}).has_value());
}

TEST(ProtocolTest, UnknownTypeTagFailsToDecode) {
  const std::vector<std::uint8_t> bytes{0xFF, 0x00};
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(ProtocolTest, TruncatedMessagesFailToDecodeNotCrash) {
  // Property: any prefix of a valid encoding either decodes to the same type
  // or fails cleanly — never crashes.  Run over every alternative.
  Rng rng(99);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    const Message m = random_message(index, rng);
    const auto bytes = encode_message(m);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::uint8_t> prefix(bytes.data(), len);
      (void)decode_message(prefix);  // must not crash; value irrelevant
    }
  }
  SUCCEED();
}

TEST(ProtocolTest, RandomBytesNeverCrashDecoder) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)decode_message(junk);
  }
  SUCCEED();
}

TEST(ProtocolTest, MessageNameCoversAllAlternatives) {
  Rng rng(7);
  for (std::size_t index = 0; index < std::variant_size_v<Message>; ++index) {
    EXPECT_STRNE(message_name(random_message(index, rng)), "Unknown");
  }
  EXPECT_STREQ(message_name(Message{TaggedPacket{}}), "TaggedPacket");
  EXPECT_STREQ(message_name(Message{PoolDeny{}}), "PoolDeny");
  EXPECT_STREQ(message_name(Message{PoolAcquire{}}), "PoolAcquire");
  EXPECT_STREQ(message_name(Message{AdmissionDirective{}}),
               "AdmissionDirective");
  EXPECT_STREQ(message_name(Message{QueueHandoff{}}), "QueueHandoff");
}

TEST(ProtocolTest, WireSizeTracksPayload) {
  TaggedPacket small, big;
  small.payload.assign(10, 0);
  big.payload.assign(500, 0);
  EXPECT_GT(encode_message(Message{big}).size(),
            encode_message(Message{small}).size() + 480);
}

}  // namespace
}  // namespace matrix
