#include "core/protocol.h"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>

namespace matrix {

namespace {

// ---- schema ----------------------------------------------------------------
//
// One field list per wire struct, in wire order: fields(m, f) calls f with
// the members of `m`.  A frame view shares its message's list (the members
// have the same names; only the payload is a span), so the two can never
// drift apart.  Everything below is generic over these lists.

template <typename M, typename... Ts>
concept Of = (std::is_same_v<std::remove_const_t<M>, Ts> || ...);

auto fields(Of<Vec2> auto& m, auto&& f) { return f(m.x, m.y); }
auto fields(Of<QueueHandoffEntry> auto& m, auto&& f) {
  return f(m.client, m.client_node, m.position, m.cls, m.enqueued_at);
}

auto fields(Of<TaggedPacket, TaggedPacketView> auto& m, auto&& f) {
  return f(m.client, m.entity, m.origin, m.target, m.radius_class, m.kind,
           m.seq, m.client_sent_at, m.peer_forwarded, m.payload);
}
auto fields(Of<ClientHello> auto& m, auto&& f) {
  return f(m.client, m.position, m.resume, m.redirect_seq, m.priority);
}
auto fields(Of<Welcome> auto& m, auto&& f) {
  return f(m.client, m.avatar, m.authority, m.redirect_seq);
}
auto fields(Of<ClientAction, ClientActionView> auto& m, auto&& f) {
  return f(m.client, m.kind, m.position, m.target, m.seq, m.sent_at,
           m.payload);
}
auto fields(Of<ServerUpdate, ServerUpdateView> auto& m, auto&& f) {
  return f(m.kind, m.position, m.ack_seq, m.origin_sent_at, m.payload);
}
auto fields(Of<Redirect> auto& m, auto&& f) {
  return f(m.new_game_node, m.new_server, m.redirect_seq);
}
auto fields(Of<ClientBye> auto& m, auto&& f) { return f(m.client); }
auto fields(Of<LoadReport> auto& m, auto&& f) {
  return f(m.client_count, m.queue_length, m.msgs_per_sec, m.median_position,
           m.waiting_count);
}
auto fields(Of<MapRange> auto& m, auto&& f) {
  return f(m.new_range, m.shed_range, m.shed_to_game, m.shed_to_server,
           m.reclaim, m.topology_epoch);
}
auto fields(Of<ShedDone> auto& m, auto&& f) {
  return f(m.topology_epoch, m.clients_redirected);
}
auto fields(Of<OwnerQuery> auto& m, auto&& f) {
  return f(m.point, m.client, m.seq);
}
auto fields(Of<OwnerReply> auto& m, auto&& f) {
  return f(m.client, m.seq, m.found, m.server, m.game_node);
}
auto fields(Of<Adopt> auto& m, auto&& f) {
  return f(m.parent, m.parent_matrix, m.parent_game, m.range,
           m.visibility_radius, m.extra_radii, m.content_keys,
           m.topology_epoch);
}
auto fields(Of<PeerLoad> auto& m, auto&& f) {
  return f(m.server, m.client_count, m.child_count);
}
auto fields(Of<ReclaimRequest> auto& m, auto&& f) {
  return f(m.topology_epoch);
}
auto fields(Of<ReclaimDecline> auto& m, auto&& f) {
  return f(m.child, m.topology_epoch);
}
auto fields(Of<ReclaimDone> auto& m, auto&& f) {
  return f(m.child, m.range, m.topology_epoch);
}
auto fields(Of<StateTransfer> auto& m, auto&& f) {
  return f(m.from_server, m.to_game, m.range, m.object_count, m.blob);
}
auto fields(Of<ClientStateTransfer> auto& m, auto&& f) {
  return f(m.client, m.entity, m.to_game, m.blob);
}
auto fields(Of<ServerRegister> auto& m, auto&& f) {
  return f(m.server, m.matrix_node, m.game_node, m.range, m.radii);
}
auto fields(Of<ServerUnregister> auto& m, auto&& f) { return f(m.server); }
auto fields(Of<OverlapTableMsg> auto& m, auto&& f) {
  return f(m.server, m.partition, m.radius_class, m.radius, m.version,
           m.regions);
}
auto fields(Of<PointLookup> auto& m, auto&& f) {
  return f(m.point, m.lookup_seq);
}
auto fields(Of<PointOwner> auto& m, auto&& f) {
  return f(m.lookup_seq, m.found, m.server, m.matrix_node, m.game_node);
}
auto fields(Of<PoolAcquire> auto& m, auto&& f) {
  return f(m.requester, m.need);
}
auto fields(Of<PoolGrant, PoolRelease> auto& m, auto&& f) {
  return f(m.server, m.matrix_node, m.game_node);
}
auto fields(Of<PoolDeny> auto&, auto&& f) { return f(); }
auto fields(Of<McAnnounce> auto& m, auto&& f) {
  return f(m.mc_node, m.generation);
}
auto fields(Of<JoinDeny, JoinDefer> auto& m, auto&& f) {
  return f(m.client, m.retry_after);
}
auto fields(Of<AdmissionUpdate> auto& m, auto&& f) {
  return f(m.state, m.seq, m.token_rate, m.directive_active);
}
auto fields(Of<PoolStatus, PoolPressure> auto& m, auto&& f) {
  return f(m.idle, m.total);
}
auto fields(Of<QueueUpdate> auto& m, auto&& f) {
  return f(m.client, m.position, m.depth, m.eta);
}
auto fields(Of<LoadDigest> auto& m, auto&& f) {
  return f(m.server, m.client_count, m.queue_length, m.waiting_count,
           m.admission_state);
}
auto fields(Of<AdmissionDirective> auto& m, auto&& f) {
  return f(m.seq, m.floor, m.active, m.token_rate);
}
auto fields(Of<QueueHandoff> auto& m, auto&& f) {
  return f(m.from_server, m.to_game, m.entries);
}
auto fields(Of<McHeartbeat> auto& m, auto&& f) {
  return f(m.mc_node, m.generation, m.seq);
}

template <typename M>
concept HasFields = requires(M& m) { fields(m, [](auto&...) {}); };

/// A field's type as its message stores it: a frame view's payload span
/// stands in for the message's PayloadBytes.
template <typename T>
struct StoredAs {
  using type = T;
};
template <>
struct StoredAs<std::span<const std::uint8_t>> {
  using type = PayloadBytes;
};

/// A field-list visitor that yields the visited members' types.
struct TypesOf {
  template <typename... F>
  auto operator()(F&...) const {
    return std::type_identity<
        std::tuple<typename StoredAs<std::remove_cvref_t<F>>::type...>>{};
  }
};

/// The member types a field list visits, in wire order.
template <typename M>
using FieldTypes =
    typename decltype(fields(std::declval<M&>(), TypesOf{}))::type;

// A view reads its message's list, so the two lists have the same names in
// the same order; these pin the same arity and member types as well.
static_assert(std::is_same_v<FieldTypes<TaggedPacketView>,
                             FieldTypes<TaggedPacket>>);
static_assert(std::is_same_v<FieldTypes<ClientActionView>,
                             FieldTypes<ClientAction>>);
static_assert(std::is_same_v<FieldTypes<ServerUpdateView>,
                             FieldTypes<ServerUpdate>>);

// ---- generic codec ---------------------------------------------------------
//
// Field types map onto util/codec.h primitives.  `put` runs twice per
// frame: into a ByteCounter for the exact size, then into a ByteCursor over
// storage of that size.  `get` is its canonical inverse.  They are static
// members so the overloads can recurse into each other regardless of
// declaration order.

struct Wire {
  static void put(auto& w, bool v) { w.u8(v ? 1 : 0); }
  static void put(auto& w, std::uint8_t v) { w.u8(v); }
  static void put(auto& w, std::uint32_t v) { w.u32(v); }
  static void put(auto& w, std::uint64_t v) { w.u64(v); }
  static void put(auto& w, double v) { w.f64(v); }
  static void put(auto& w, SimTime v) { w.i64(v.us()); }
  template <typename Tag>
  static void put(auto& w, Id<Tag> v) {
    w.id(v);
  }
  static void put(auto& w, const Rect& v) {
    put(w, v.lo());
    put(w, v.hi());
  }
  static void put(auto& w, const std::optional<Vec2>& v) {
    put(w, v.has_value());
    if (v) put(w, *v);
  }
  static void put(auto& w, const PayloadBytes& v) { w.raw(v); }
  static void put(auto& w, const std::vector<std::uint8_t>& v) { w.raw(v); }
  static void put(auto& w, const std::string& v) { w.str(v); }
  template <typename T>
  static void put(auto& w, const std::vector<T>& v) {
    w.varint(v.size());
    for (const T& element : v) put(w, element);
  }
  static void put(auto& w, const HasFields auto& m) {
    fields(m, [&w](const auto&... f) { (put(w, f), ...); });
  }

  static void get(ByteReader& r, bool& v) { v = r.flag(); }
  static void get(ByteReader& r, std::uint8_t& v) { v = r.u8(); }
  static void get(ByteReader& r, std::uint32_t& v) { v = r.u32(); }
  static void get(ByteReader& r, std::uint64_t& v) { v = r.u64(); }
  static void get(ByteReader& r, double& v) { v = r.f64(); }
  static void get(ByteReader& r, SimTime& v) { v = SimTime::from_us(r.i64()); }
  template <typename Tag>
  static void get(ByteReader& r, Id<Tag>& v) {
    v = r.id<Id<Tag>>();
  }
  static void get(ByteReader& r, Rect& v) {
    Vec2 lo;
    Vec2 hi;
    get(r, lo);
    get(r, hi);
    v = Rect::from_corners(lo, hi);
  }
  static void get(ByteReader& r, std::optional<Vec2>& v) {
    if (r.flag()) get(r, v.emplace());
  }
  static void get(ByteReader& r, PayloadBytes& v) { v = r.raw_payload(); }
  static void get(ByteReader& r, std::span<const std::uint8_t>& v) {
    v = r.raw_span();
  }
  static void get(ByteReader& r, std::vector<std::uint8_t>& v) { v = r.raw(); }
  static void get(ByteReader& r, std::string& v) { v = r.str(); }
  template <typename T>
  static void get(ByteReader& r, std::vector<T>& v) {
    v.resize(r.count());
    for (T& element : v) get(r, element);
  }
  static void get(ByteReader& r, HasFields auto& m) {
    fields(m, [&r](auto&... f) { (get(r, f), ...); });
  }

  // put() of a frame's last field less its last `skipped` bytes, all zeros
  // (encode_head_into); `skipped` is 0 for every other field.
  static void put_head(auto& w, const auto& v, std::size_t) { put(w, v); }
  static void put_head(auto& w, const PayloadBytes& v, std::size_t skipped) {
    w.raw_head(v, v.size() - skipped);
  }
  static void put_head(auto& w, const std::vector<std::uint8_t>& v,
                       std::size_t skipped) {
    w.raw_head(v, v.size() - skipped);
  }

  // walk() makes get()'s reads, and so accepts exactly what get() accepts,
  // without get()'s allocations: byte strings are skipped by their length
  // and list elements are read one at a time into one scratch element.
  static void walk(ByteReader& r, auto& v) { get(r, v); }
  static void walk(ByteReader& r, std::vector<std::uint8_t>&) {
    r.raw_span();
  }
  template <typename T>
  static void walk(ByteReader& r, std::vector<T>&) {
    T scratch;
    for (std::size_t n = r.count(); n != 0; --n) walk(r, scratch);
  }
  static void walk(ByteReader& r, HasFields auto& m) {
    fields(m, [&r](auto&... f) { (walk(r, f), ...); });
  }

  // An overlap region ships one count and then interleaved (server, matrix
  // node) pairs, not two lists, so it keeps a hand-written codec.
  static void put(auto& w, const OverlapRegionWire& v) {
    put(w, v.rect);
    w.varint(v.peer_servers.size());
    for (std::size_t i = 0; i < v.peer_servers.size(); ++i) {
      put(w, v.peer_servers[i]);
      put(w, v.peer_matrix_nodes[i]);
    }
  }
  static void get(ByteReader& r, OverlapRegionWire& v) {
    get(r, v.rect);
    const std::size_t peers = r.count();
    v.peer_servers.resize(peers);
    v.peer_matrix_nodes.resize(peers);
    for (std::size_t i = 0; i < peers; ++i) {
      get(r, v.peer_servers[i]);
      get(r, v.peer_matrix_nodes[i]);
    }
  }
};

/// Reads into `out` the body of a frame whose type byte `r` has consumed:
/// true when it is well-formed and ends exactly at the frame's end.
bool read_body(ByteReader& r, auto& out) {
  Wire::get(r, out);
  return r.ok() && r.at_end();
}

/// The frame parsers: `View` is read with the field list of message `Body`.
template <typename View, typename Body = View>
std::optional<View> parse_frame(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  std::optional<View> view(std::in_place);
  if (r.u8() != wire_type<Body> || !read_body(r, *view)) view.reset();
  return view;
}

template <typename T>
std::optional<Message> decode_as(ByteReader& r) {
  std::optional<Message> message(std::in_place, std::in_place_type<T>);
  if (!read_body(r, std::get<T>(*message))) message.reset();
  return message;
}

/// The zeros that end field `f` when it is a byte string, else 0.
std::size_t zero_tail_of(const auto&) { return 0; }
std::size_t zero_tail_of(const PayloadBytes& f) { return zero_tail_length(f); }
std::size_t zero_tail_of(const std::vector<std::uint8_t>& f) {
  return zero_tail_length(f);
}

/// A relay frame whose type byte `r` has consumed, walked to its end.  Its
/// byte strings and lists stay empty: walk() fills neither.
template <typename Body>
std::optional<RelayFrameView> walk_relay_frame(ByteReader& r) {
  Body body;
  Wire::walk(r, body);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return RelayFrameView{wire_type<Body>, body.to_game};
}

/// A view's field copied into its message (payload spans are copied out).
void copy_field(auto& out, const auto& in) { out = in; }
void copy_field(PayloadBytes& out, std::span<const std::uint8_t> in) {
  out.assign(in.data(), in.size());
}

// byte2msg: type byte b decodes as Message alternative b - 1.
constexpr auto kDecoders = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array{&decode_as<std::variant_alternative_t<I, Message>>...};
}(std::make_index_sequence<std::variant_size_v<Message>>());

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& message) {
  ByteWriter w;
  std::visit([&w](const auto& body) { encode_one_into(w, body); }, message);
  return w.take();
}

template <typename Body>
void encode_one_into(ByteWriter& writer, const Body& body) {
  ByteCounter size;
  Wire::put(size, body);
  ByteCursor out = writer.extend(1 + size.size());
  out.u8(wire_type<Body>);
  Wire::put(out, body);
}

template <typename Body>
std::size_t encode_head_into(ByteWriter& writer, const Body& body) {
  return fields(body, [&writer](const auto&... f) {
    std::size_t skipped = 0;  // the zeros ending the last field
    ((skipped = zero_tail_of(f)), ...);
    ByteCounter size;
    (Wire::put(size, f), ...);
    ByteCursor out = writer.extend(1 + size.size() - skipped);
    out.u8(wire_type<Body>);
    [[maybe_unused]] std::size_t left = sizeof...(f);
    (Wire::put_head(out, f, --left == 0 ? skipped : 0), ...);
    // The head may itself end in zeros: an empty last byte string's zero
    // length, or zero-valued fields after the last byte string.
    return skipped + writer.trim_zero_tail();
  });
}

std::optional<Message> decode_message(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint8_t type = r.u8();
  if (type == 0 || type > kDecoders.size()) return std::nullopt;
  return kDecoders[type - 1](r);
}

// ---- zero-copy frame fast paths --------------------------------------------

TaggedPacket TaggedPacketView::materialize() const {
  TaggedPacket packet;
  fields(packet, [this](auto&... out) {
    fields(*this, [&](const auto&... in) { (copy_field(out, in), ...); });
  });
  return packet;
}

std::optional<TaggedPacketView> parse_tagged_packet_frame(
    std::span<const std::uint8_t> frame) {
  auto view = parse_frame<TaggedPacketView, TaggedPacket>(frame);
  // The flag is the last byte before the payload's length prefix.
  if (view) {
    view->peer_flag_offset = frame.size() - view->payload.size() -
                             varint_size(view->payload.size()) - 1;
  }
  return view;
}

std::optional<ClientActionView> parse_client_action_frame(
    std::span<const std::uint8_t> frame) {
  return parse_frame<ClientActionView, ClientAction>(frame);
}

std::optional<ServerUpdateView> parse_server_update_frame(
    std::span<const std::uint8_t> frame) {
  return parse_frame<ServerUpdateView, ServerUpdate>(frame);
}

std::optional<LoadReport> parse_load_report_frame(
    std::span<const std::uint8_t> frame) {
  return parse_frame<LoadReport>(frame);
}

std::optional<QueueUpdate> parse_queue_update_frame(
    std::span<const std::uint8_t> frame) {
  return parse_frame<QueueUpdate>(frame);
}

std::optional<RelayFrameView> parse_relay_frame(
    std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  switch (r.u8()) {
    case wire_type<StateTransfer>:
      return walk_relay_frame<StateTransfer>(r);
    case wire_type<ClientStateTransfer>:
      return walk_relay_frame<ClientStateTransfer>(r);
    case wire_type<QueueHandoff>:
      return walk_relay_frame<QueueHandoff>(r);
    default:
      return std::nullopt;
  }
}

// One instantiation per Message alternative, so the typed fast path is
// available to every sender without pulling the codec into the header.
#define MATRIX_MESSAGE_TYPES(X)                                              \
  X(TaggedPacket) X(ClientHello) X(Welcome) X(ClientAction) X(ServerUpdate)  \
  X(Redirect) X(ClientBye) X(LoadReport) X(MapRange) X(ShedDone)             \
  X(OwnerQuery) X(OwnerReply) X(Adopt) X(PeerLoad) X(ReclaimRequest)         \
  X(ReclaimDecline) X(ReclaimDone) X(StateTransfer) X(ClientStateTransfer)   \
  X(ServerRegister) X(ServerUnregister) X(OverlapTableMsg) X(PointLookup)    \
  X(PointOwner) X(PoolAcquire) X(PoolGrant) X(PoolDeny) X(PoolRelease)       \
  X(McAnnounce) X(JoinDeny) X(JoinDefer) X(AdmissionUpdate) X(PoolStatus)    \
  X(PoolPressure) X(QueueUpdate) X(LoadDigest) X(AdmissionDirective)         \
  X(QueueHandoff) X(McHeartbeat)

#define MATRIX_INSTANTIATE_ENCODE(T)                      \
  template void encode_one_into<T>(ByteWriter&, const T&); \
  template std::size_t encode_head_into<T>(ByteWriter&, const T&);
MATRIX_MESSAGE_TYPES(MATRIX_INSTANTIATE_ENCODE)
#undef MATRIX_INSTANTIATE_ENCODE

namespace {
// Indexed by wire type, so the list's order does not matter; a type missing
// from it leaves a null name and fails the assert.
constexpr auto kMessageNames = [] {
  std::array<const char*, std::variant_size_v<Message>> names{};
#define MATRIX_NAME(T) names[wire_type<T> - 1] = #T;
  MATRIX_MESSAGE_TYPES(MATRIX_NAME)
#undef MATRIX_NAME
  return names;
}();
static_assert(std::ranges::none_of(kMessageNames,
                                   [](const char* n) { return n == nullptr; }),
              "MATRIX_MESSAGE_TYPES out of sync with Message");
}  // namespace
#undef MATRIX_MESSAGE_TYPES

const char* message_name(const Message& message) {
  return kMessageNames[message.index()];
}

}  // namespace matrix
