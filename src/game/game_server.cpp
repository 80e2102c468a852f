#include "game/game_server.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/hash_mix.h"

namespace matrix {

namespace {

/// Retry hint carried by JoinDeny: a HARD valve's client backs off this
/// long before asking again.
constexpr SimTime kDenyRetry = SimTime::from_sec(10.0);

/// Round a coordinate into a visibility-radius-sized bucket (for the
/// approximate visible-entity count used to size update digests).
std::int64_t bucket(double v, double cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

}  // namespace

void GameServer::grid_prepare() {
  if (grid_keys_.empty()) {
    constexpr std::size_t kInitialSlots = 64;
    grid_keys_.assign(kInitialSlots, 0);
    grid_counts_.assign(kInitialSlots, 0);
    grid_stamps_.assign(kInitialSlots, 0);
  }
  ++grid_epoch_;
  grid_used_ = 0;
}

void GameServer::grid_bump(std::uint64_t key) {
  const std::size_t mask = grid_keys_.size() - 1;
  std::size_t i = splitmix64(key) & mask;
  while (grid_stamps_[i] == grid_epoch_) {
    if (grid_keys_[i] == key) {
      ++grid_counts_[i];
      return;
    }
    i = (i + 1) & mask;
  }
  grid_stamps_[i] = grid_epoch_;
  grid_keys_[i] = key;
  grid_counts_[i] = 1;
  if (++grid_used_ * 2 > grid_keys_.size()) grid_grow();  // load ≤ 50%
}

void GameServer::grid_grow() {
  // Grow-only: shrinking on cell-count dips would re-allocate every tick
  // when the count straddles a power-of-two boundary.  Only this epoch's
  // cells move; the fresh stamps (all 0) read as empty to every epoch ≥ 1.
  const std::vector<std::uint64_t> keys = std::move(grid_keys_);
  const std::vector<std::uint32_t> counts = std::move(grid_counts_);
  const std::vector<std::uint32_t> stamps = std::move(grid_stamps_);
  const std::size_t size = keys.size() * 2;
  grid_keys_.assign(size, 0);
  grid_counts_.assign(size, 0);
  grid_stamps_.assign(size, 0);
  const std::size_t mask = size - 1;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (stamps[j] != grid_epoch_) continue;
    std::size_t i = splitmix64(keys[j]) & mask;
    while (grid_stamps_[i] == grid_epoch_) i = (i + 1) & mask;
    grid_stamps_[i] = grid_epoch_;
    grid_keys_[i] = keys[j];
    grid_counts_[i] = counts[j];
  }
}

std::uint32_t GameServer::grid_count(std::uint64_t key) const {
  const std::size_t mask = grid_keys_.size() - 1;
  std::size_t i = splitmix64(key) & mask;
  while (grid_stamps_[i] == grid_epoch_) {
    if (grid_keys_[i] == key) return grid_counts_[i];
    i = (i + 1) & mask;
  }
  return 0;
}

std::string GameServer::name() const {
  std::ostringstream oss;
  oss << "game-" << id_.value();
  return oss.str();
}

void GameServer::wire(NodeId matrix_node) {
  port_ = std::make_unique<MatrixPort>(network(), node_id(), matrix_node);
  port_->on_map_range([this](const MapRange& r) { handle_map_range(r); });
  port_->on_state_transfer(
      [this](const StateTransfer& t) { handle_state_transfer(t); });
  port_->on_client_state(
      [this](const ClientStateTransfer& t) { handle_client_state(t); });
  port_->on_owner_reply([this](const OwnerReply& r) { handle_owner_reply(r); });
  port_->on_admission(
      [this](const AdmissionUpdate& u) { handle_admission(u); });
  port_->on_queue_handoff(
      [this](const QueueHandoff& h) { handle_queue_handoff(h); });
}

void GameServer::handle_admission(const AdmissionUpdate& update) {
  if (control_plane_.admit(now(), {ControlKind::kAdmissionUpdate, 0,
                                   update.seq}) != ControlVerdict::kApply) {
    return;  // reordered/stale update
  }
  admission_state_ = admission_state_from_wire(update.state);
  // The directive's budget share, or the local rate back on a rescind.
  // Only a real change touches the bucket: set_rate settles accrual at
  // `now`, and an update that only moves the state must not.
  if (update.token_rate != join_bucket_.rate()) {
    join_bucket_.set_rate(now(), update.token_rate);
  }
  directive_active_ = update.directive_active;
  // A relaxed valve or a fatter share is a drain opportunity: NORMAL
  // empties the waiting room outright, SOFT lets it spend whatever the
  // bucket has accrued.
  if (!surge_queue_.empty()) {
    drain_surge_queue();
    if (!surge_queue_.empty()) schedule_queue_tick();
  }
}

void GameServer::trace_join_deferred(ClientId client) {
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kClientDeferred, client.value(),
                node_id().value());
  tracer.close_span(now(), obs::SpanKind::kQueueWait, client.value(),
                    /*success=*/false);
  tracer.close_span(now(), obs::SpanKind::kAdmit, client.value(),
                    /*success=*/false);
}

void GameServer::trace_join_denied(ClientId client) {
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kClientDenied, client.value(),
                node_id().value());
  tracer.close_span(now(), obs::SpanKind::kQueueWait, client.value(),
                    /*success=*/false);
  tracer.close_span(now(), obs::SpanKind::kAdmit, client.value(),
                    /*success=*/false);
}

bool GameServer::admit_join(const ClientHello& hello, NodeId client_node) {
  if (!config_.admission.enabled) return true;
  if (hello.resume) {
    // Redirects and boundary migrations carry a live session; the valve
    // only sheds NEW load — a resume always passes, even to a server that
    // currently owns no range (seed behaviour).
    if (admission_state_ != AdmissionState::kNormal) {
      ++stats_.resumes_admitted;
    }
    return true;
  }
  if (authority_.empty()) {
    // Parked (reclaimed) or not yet activated: this server owns no range,
    // so a fresh session created here would play against nobody.
    // Reachable when a deferred client's retry races a reclaim; defer
    // again — if the server is re-granted the retry lands normally,
    // otherwise the client keeps backing off exactly as it would against
    // a full deployment.
    ++stats_.joins_deferred;
    trace_join_deferred(hello.client);
    send(client_node, JoinDefer{hello.client, config_.admission.defer_retry});
    return false;
  }
  if (config_.fault.swallow_gated_join_every != 0 &&
      admission_state_ != AdmissionState::kNormal &&
      ++fault_gated_seen_ % config_.fault.swallow_gated_join_every == 0) {
    // TEST-ONLY: the gated hello black-holes — no reply, no park, no trace
    // resolution.  The blackhole invariant must catch this.
    return false;
  }
  const bool waiting_room = config_.admission.priority.queue_enabled;
  switch (admission_state_) {
    case AdmissionState::kNormal:
      return true;
    case AdmissionState::kSoft:
      // While anyone is parked, a fresh join may not race the waiting room
      // to the bucket — the queue owns the drain order.
      if ((!waiting_room || surge_queue_.empty()) &&
          join_bucket_.try_take(now())) {
        return true;
      }
      if (waiting_room) {
        park_join(hello, client_node);
        return false;
      }
      ++stats_.joins_deferred;
      trace_join_deferred(hello.client);
      send(client_node, JoinDefer{hello.client, config_.admission.defer_retry});
      return false;
    case AdmissionState::kHard:
      if (waiting_room) {
        // The waiting room replaces the outright refusal: the client parks
        // and is admitted when the valve reopens, instead of giving up.
        park_join(hello, client_node);
        return false;
      }
      ++stats_.joins_denied;
      trace_join_denied(hello.client);
      send(client_node, JoinDeny{hello.client, kDenyRetry});
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Surge queue (src/control/surge_queue.h)
// ---------------------------------------------------------------------------

void GameServer::park_join(const ClientHello& hello, NodeId client_node) {
  if (surge_queue_.contains(hello.client)) {
    // Duplicate hello (an impatient client re-asking): refresh its view of
    // the line rather than double-parking or bouncing it.
    send_queue_update(hello.client, client_node,
                      surge_queue_.position_of(hello.client, now()),
                      static_cast<std::uint32_t>(surge_queue_.size()));
    return;
  }
  const PriorityClass cls = hello.resume
                                ? PriorityClass::kResume
                                : priority_class_from_wire(hello.priority);
  if (!surge_queue_.enqueue(now(), hello.client, client_node, hello.position,
                            cls)) {
    // The waiting room itself is bounded; past capacity we are back to the
    // hard refusal (overflow is tallied in SurgeQueue::Stats).
    ++stats_.joins_denied;
    trace_join_denied(hello.client);
    send(client_node, JoinDeny{hello.client, kDenyRetry});
    return;
  }
  {
    obs::Tracer& tracer = network()->tracer();
    tracer.record(now(), obs::TraceKind::kClientQueued, hello.client.value(),
                  node_id().value(), static_cast<std::int64_t>(cls));
    tracer.open_span(now(), obs::SpanKind::kQueueWait, hello.client.value());
  }
  send_queue_update(hello.client, client_node,
                    surge_queue_.position_of(hello.client, now()),
                    static_cast<std::uint32_t>(surge_queue_.size()));
  schedule_queue_tick();
}

void GameServer::admit_session(ClientId client, NodeId client_node,
                               Vec2 position, std::uint32_t redirect_seq) {
  Session session;
  session.client_node = client_node;
  session.avatar = avatar_entity_id(client);
  session.position = position;
  if (auto it = pending_avatars_.find(client); it != pending_avatars_.end()) {
    // The avatar state beat the client here (normal handoff order).  The
    // client's own position report wins — it is fresher.
    pending_avatars_.erase(it);
  }
  sessions_[client] = session;

  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kClientAdmitted, client.value(),
                node_id().value(), redirect_seq);
  if (redirect_seq != 0) {
    // A resumed session: the client followed a Redirect here, closing the
    // handoff that redirect_client opened.
    tracer.close_span(now(), obs::SpanKind::kHandoff, client.value());
  } else {
    // A fresh admit (direct or drained from the waiting room): the wait is
    // over — both spans resolve into their latency histograms.
    tracer.close_span(now(), obs::SpanKind::kQueueWait, client.value());
    tracer.close_span(now(), obs::SpanKind::kAdmit, client.value());
  }

  Welcome welcome;
  welcome.client = client;
  welcome.avatar = session.avatar;
  welcome.authority = authority_;
  welcome.redirect_seq = redirect_seq;
  send(client_node, welcome);
}

void GameServer::drain_surge_queue() {
  // Paid-priority fairness: bound the VIP-effective share of the drain
  // while the room stays occupied.  The tallies persist ACROSS drain
  // calls (a token-bound drain may admit one entry per tick — per-call
  // counters would then skip VIPs on every tick for any cap < 1, turning
  // the bound into "VIPs always last") and reset when the room empties.
  // The ceil() allowance admits the first VIP of an episode for any
  // cap > 0.  The cap acts on EFFECTIVE class: RESUME (and anything aged
  // to RESUME) always passes, a NORMAL aged to VIP is capped like a paid
  // VIP; when the cap binds and a NORMAL entry waits, the NORMAL entry
  // takes the slot instead.
  const double vip_cap = config_.admission.priority.vip_drain_cap;
  while (!surge_queue_.empty() && !authority_.empty()) {
    if (admission_state_ == AdmissionState::kHard) break;
    if (admission_state_ == AdmissionState::kSoft &&
        !join_bucket_.try_take(now())) {
      break;
    }
    bool skip_vip = false;
    if (vip_cap < 1.0) {
      const double allowed = std::ceil(
          vip_cap * static_cast<double>(drain_total_ + 1) - 1e-9);
      skip_vip = static_cast<double>(drain_vip_ + 1) > allowed;
    }
    std::optional<SurgeEntry> entry = surge_queue_.pop(now(), skip_vip);
    if (!entry) {
      // Only VIP-effective entries remain; admitting one beats wasting the
      // token (the cap throttles VIPs relative to waiting NORMALs, it is
      // not a quota against an empty lane).
      entry = surge_queue_.pop(now());
    }
    if (!entry) break;
    ++drain_total_;
    if (surge_queue_.effective_class_at(*entry, now()) == PriorityClass::kVip) {
      ++drain_vip_;
    }
    admit_session(entry->client, entry->client_node, entry->position,
                  /*redirect_seq=*/0);
  }
  reset_drain_fairness_if_empty();
}

void GameServer::reset_drain_fairness_if_empty() {
  if (!surge_queue_.empty()) return;
  drain_vip_ = 0;
  drain_total_ = 0;
}

void GameServer::send_queue_update(ClientId client, NodeId client_node,
                                   std::uint32_t position,
                                   std::uint32_t depth) {
  QueueUpdate update;
  update.client = client;
  update.position = position;
  update.depth = depth;
  // Best-effort ETA at the SOFT drain rate — the bucket's CURRENT rate,
  // which is the directive's token-budget share while one is in force.  A
  // valve stuck in HARD drains nothing, so the hint is a floor, not a
  // promise.
  const double rate = join_bucket_.rate();
  update.eta = rate > 0.0
                   ? SimTime::from_sec(static_cast<double>(position) / rate)
                   : config_.admission.defer_retry;
  send(client_node, update);
  ++stats_.queue_updates_sent;
}

void GameServer::schedule_queue_tick() {
  if (queue_tick_scheduled_) return;
  queue_tick_scheduled_ = true;
  set_timer(config_.admission.priority.update_interval, kQueueTimer);
}

void GameServer::queue_tick() {
  queue_tick_scheduled_ = false;
  drain_surge_queue();
  if (surge_queue_.empty()) return;
  const auto order = surge_queue_.ordered(now());
  const auto depth = static_cast<std::uint32_t>(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    send_queue_update(order[i]->client, order[i]->client_node,
                      static_cast<std::uint32_t>(i + 1), depth);
  }
  schedule_queue_tick();
}

void GameServer::flush_surge_queue() {
  // Parked joins cannot be admitted by a server that owns no range; hand
  // them back to the client-side retry loop (JoinDefer is transient — if
  // this server is re-granted, the retry lands normally).
  for (const SurgeEntry& entry : surge_queue_.flush(now())) {
    ++stats_.joins_deferred;
    trace_join_deferred(entry.client);
    send(entry.client_node,
         JoinDefer{entry.client, config_.admission.defer_retry});
  }
  reset_drain_fairness_if_empty();
}

bool GameServer::queue_handoff_active() const {
  return config_.admission.priority.queue_enabled &&
         config_.admission.global.enabled &&
         config_.admission.global.queue_handoff && directive_active_;
}

void GameServer::send_queue_handoff(std::vector<SurgeEntry> entries,
                                    NodeId to_game) {
  if (entries.empty()) return;
  QueueHandoff handoff;
  handoff.from_server = id_;
  handoff.to_game = to_game;
  handoff.entries.reserve(entries.size());
  obs::Tracer& tracer = network()->tracer();
  for (const SurgeEntry& entry : entries) {
    QueueHandoffEntry wire;
    wire.client = entry.client;
    wire.client_node = entry.client_node;
    wire.position = entry.position;
    wire.cls = static_cast<std::uint8_t>(entry.cls);
    wire.enqueued_at = entry.enqueued_at;
    handoff.entries.push_back(wire);
    // One sent event per entry: the conservation invariant
    // (src/fuzz/invariants.cpp) matches each against an adopt / defer /
    // duplicate-drop at the destination, and b carries the accrued-age
    // baseline the adopt-side event must reproduce.
    tracer.record(now(), obs::TraceKind::kQueueHandoffSent,
                  entry.client.value(), node_id().value(),
                  static_cast<std::int64_t>(to_game.value()),
                  entry.enqueued_at.us());
  }
  if (config_.fault.drop_queue_handoff) return;  // TEST-ONLY: entries vanish
  port_->transfer_queue(handoff);
  ++stats_.queue_handoffs_sent;
}

void GameServer::handle_queue_handoff(const QueueHandoff& handoff) {
  bool adopted_any = false;
  for (const QueueHandoffEntry& wire : handoff.entries) {
    // A client can race its own handoff (gave up and re-helloed here, or
    // was already admitted): never double-park, never demote a session.
    if (sessions_.count(wire.client) != 0 ||
        surge_queue_.contains(wire.client)) {
      network()->tracer().record(
          now(), obs::TraceKind::kQueueHandoffDrop, wire.client.value(),
          node_id().value(), sessions_.count(wire.client) != 0 ? 1 : 2);
      continue;
    }
    SurgeEntry entry;
    entry.client = wire.client;
    entry.client_node = wire.client_node;
    entry.position = wire.position;
    entry.cls = priority_class_from_handoff_wire(wire.cls);
    entry.enqueued_at = wire.enqueued_at;
    if (config_.fault.reset_handoff_age) {
      entry.enqueued_at = now();  // TEST-ONLY: accrued age lost in transit
    }
    const bool can_adopt = config_.admission.priority.queue_enabled &&
                           !authority_.empty() && surge_queue_.adopt(entry);
    if (!can_adopt) {
      // No waiting room to re-park in (capacity, no range, queue off):
      // fall back to client-side retry, exactly like a flush would have.
      ++stats_.queue_handoff_rejected;
      ++stats_.joins_deferred;
      trace_join_deferred(wire.client);
      send(wire.client_node,
           JoinDefer{wire.client, config_.admission.defer_retry});
      continue;
    }
    adopted_any = true;
    network()->tracer().record(
        now(), obs::TraceKind::kQueueHandoff, wire.client.value(),
        handoff.from_server.value(),
        static_cast<std::int64_t>(node_id().value()),
        entry.enqueued_at.us());
    send_queue_update(wire.client, wire.client_node,
                      surge_queue_.position_of(wire.client, now()),
                      static_cast<std::uint32_t>(surge_queue_.size()));
  }
  if (adopted_any) {
    drain_surge_queue();
    if (!surge_queue_.empty()) schedule_queue_tick();
  }
}

void GameServer::start() {
  if (started_) return;
  started_ = true;
  ++started_epoch_;
  last_report_at_ = now();
  schedule_load_report();
  schedule_update_tick();
  control_plane_.bind(&network()->tracer_for(node_id()), node_id().value());
}

void GameServer::on_timer(std::uint8_t timer, std::uint64_t epoch) {
  if (timer == kQueueTimer) {
    queue_tick();
    return;
  }
  if (!started_ || started_epoch_ != epoch) return;
  switch (timer) {
    case kLoadReportTimer:
      load_report_tick();
      break;
    case kUpdateTimer:
      update_tick();
      break;
    default:
      break;
  }
}

void GameServer::spawn_map_objects(std::size_t count, const Rect& area,
                                   Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    Entity object;
    object.id = EntityId(0x4000'0000'0000'0000ULL + next_object_serial_++);
    object.kind = EntityKind::kMapObject;
    object.position = {rng.next_double_in(area.x0(), area.x1()),
                       rng.next_double_in(area.y0(), area.y1())};
    object.variant = static_cast<std::uint32_t>(rng.next_below(8));
    map_objects_.emplace(object.id, object);
  }
}

bool GameServer::on_frame(const Envelope& envelope) {
  const std::vector<std::uint8_t>& frame = envelope.payload;
  if (frame.empty()) return false;
  if (frame[0] == wire_type<TaggedPacket>) {
    // Remote events arrive only here; an unwired server has no port, so
    // the generic path (which drops the packet) handles the frame instead.
    if (port_ == nullptr) return false;
    const auto view = parse_tagged_packet_frame(frame);
    if (!view) return false;  // malformed: the generic path counts it
    ++msgs_since_report_;
    apply_remote_event(view->entity, view->client, view->origin,
                       view->client_sent_at);
    return true;
  }
  if (frame[0] == wire_type<ClientAction>) {
    const auto view = parse_client_action_frame(frame);
    if (!view) return false;
    ++msgs_since_report_;
    handle_action(view->client, view->kind, view->position, view->target,
                  view->seq, view->sent_at, envelope);
    return true;
  }
  return false;
}

void GameServer::on_message(const Message& message, const Envelope& envelope) {
  ++msgs_since_report_;
  if (port_ != nullptr && port_->try_dispatch(message)) return;

  if (const auto* hello = std::get_if<ClientHello>(&message)) {
    handle_hello(*hello, envelope);
  } else if (const auto* bye = std::get_if<ClientBye>(&message)) {
    handle_bye(*bye);
  }
}

// ---------------------------------------------------------------------------
// Client traffic
// ---------------------------------------------------------------------------

void GameServer::handle_hello(const ClientHello& hello,
                              const Envelope& envelope) {
  ++stats_.hellos;
  {
    obs::Tracer& tracer = network()->tracer();
    tracer.record(now(), obs::TraceKind::kClientHello, hello.client.value(),
                  node_id().value(), hello.resume ? 1 : 0);
    // One admit span per fresh join attempt, opened at the valve.  A
    // deferred client's retry opens a new one; open_span keeps the earliest
    // start for a client already parked in the waiting room.
    if (!hello.resume) {
      tracer.open_span(now(), obs::SpanKind::kAdmit, hello.client.value());
    }
  }
  if (!admit_join(hello, envelope.src)) return;  // no session was created
  admit_session(hello.client, envelope.src, hello.position,
                hello.redirect_seq);
}

void GameServer::handle_action(ClientId client, std::uint8_t kind_byte,
                               Vec2 position,
                               const std::optional<Vec2>& target,
                               std::uint32_t seq, SimTime sent_at,
                               const Envelope& envelope) {
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    // Client is mid-switch and this packet raced the redirect; its new home
    // will see the next one.
    ++stats_.unknown_client_actions;
    return;
  }
  ++stats_.actions;
  Session& session = it->second;
  session.client_node = envelope.src;
  session.position = position;

  const auto kind = static_cast<ActionKind>(kind_byte);
  const std::uint8_t radius_class = radius_class_for(client);

  // Tag with world coordinates and hand to Matrix — the single line of
  // integration the paper's API story hinges on.
  TaggedPacket packet;
  packet.client = client;
  packet.entity = session.avatar;
  packet.origin = position;
  packet.target = target;
  packet.radius_class = radius_class;
  packet.kind = kind_byte;
  packet.seq = seq;
  packet.client_sent_at = sent_at;
  packet.payload.assign(spec_.payload_size(kind), 0);
  port_->send_packet(packet);

  // Immediate ack to the actor: this is the "response latency" the paper's
  // user study measures (action → observed reaction).
  ServerUpdate ack;
  ack.kind = kind_byte;
  ack.position = position;
  ack.ack_seq = seq;
  ack.origin_sent_at = sent_at;
  send(envelope.src, ack);
  ++stats_.acks_sent;

  // Everyone nearby sees the event (and a shot's impact) at the next
  // update tick.
  note_pending(sent_at);

  maybe_migrate(client, session);
}

void GameServer::handle_bye(const ClientBye& bye) {
  obs::Tracer& tracer = network()->tracer();
  // a records whether the bye found a live session: a bye that finds none
  // where the trace says one lives means the session vanished untraced
  // (every legitimate erasure — redirect, shed, bye — records an event).
  tracer.record(now(), obs::TraceKind::kClientBye, bye.client.value(),
                node_id().value(),
                sessions_.count(bye.client) != 0 ? 1 : 0);
  tracer.close_span(now(), obs::SpanKind::kQueueWait, bye.client.value(),
                    /*success=*/false);
  tracer.close_span(now(), obs::SpanKind::kAdmit, bye.client.value(),
                    /*success=*/false);
  tracer.close_span(now(), obs::SpanKind::kHandoff, bye.client.value(),
                    /*success=*/false);
  surge_queue_.remove(bye.client);  // gave up while waiting
  reset_drain_fairness_if_empty();
  sessions_.erase(bye.client);
  pending_avatars_.erase(bye.client);
}

void GameServer::maybe_migrate(ClientId client, Session& session) {
  if (authority_.empty() || session.migrate_query_seq != 0) return;
  if (authority_.contains(session.position)) return;
  // Hysteresis: only migrate once clearly outside (half a visibility radius
  // of slack) so boundary jitter doesn't ping-pong the client.
  const double margin =
      metric_distance(config_.metric, session.position, authority_);
  if (margin < spec_.visibility_radius * 0.25) return;
  session.migrate_query_seq = next_query_seq_++;
  OwnerQuery query;
  query.point = session.position;
  query.client = client;
  query.seq = session.migrate_query_seq;
  port_->query_owner(query);
}

void GameServer::handle_owner_reply(const OwnerReply& reply) {
  auto it = sessions_.find(reply.client);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (session.migrate_query_seq != reply.seq) return;  // stale answer
  session.migrate_query_seq = 0;
  if (!reply.found || reply.game_node == node_id()) return;
  // Re-check: the client may have wandered back meanwhile.
  if (authority_.contains(session.position)) return;
  ++stats_.clients_migrated;
  redirect_client(reply.client, session, reply.game_node, reply.server);
  sessions_.erase(it);
}

void GameServer::redirect_client(ClientId client, Session& session,
                                 NodeId to_game, ServerId to_server) {
  // Avatar state travels server→server via Matrix; the client is told to
  // reconnect.  Both carry the redirect_seq so switch latency is measurable
  // end-to-end.
  Entity avatar;
  avatar.id = session.avatar;
  avatar.kind = EntityKind::kAvatar;
  avatar.position = session.position;
  avatar.owner = client;

  ClientStateTransfer transfer;
  transfer.client = client;
  transfer.entity = session.avatar;
  transfer.to_game = to_game;
  ByteWriter w;
  avatar.encode(w);
  transfer.blob = w.take();
  port_->transfer_client_state(transfer);

  Redirect redirect;
  redirect.new_game_node = to_game;
  redirect.new_server = to_server;
  redirect.redirect_seq = next_redirect_seq_++;
  send(session.client_node, redirect);
  ++stats_.clients_redirected;
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kClientRedirected, client.value(),
                node_id().value(), static_cast<std::int64_t>(to_game.value()));
  tracer.open_span(now(), obs::SpanKind::kHandoff, client.value());
}

// ---------------------------------------------------------------------------
// Matrix callbacks
// ---------------------------------------------------------------------------

void GameServer::apply_remote_event(EntityId entity, ClientId client,
                                    Vec2 origin, SimTime sent_at) {
  ++stats_.remote_events;
  // Maintain a ghost replica of the remote avatar so local players "see"
  // across the partition boundary — the localized consistency the paper's
  // overlap regions exist to provide.
  Entity& ghost = ghosts_.upsert(entity);
  ghost.kind = EntityKind::kGhost;
  ghost.position = origin;
  ghost.owner = client;

  // Local clients see it (and a non-proximal interaction landing in our
  // range: teleport arrival, remote shot impact) at the next update tick.
  note_pending(sent_at);
}

void GameServer::handle_map_range(const MapRange& range) {
  const bool shedding = !range.shed_range.empty() || range.reclaim;
  if (!range.reclaim) {
    authority_ = range.new_range;
    if (!started_ && !authority_.empty()) start();
  }

  if (!shedding) return;
  ++stats_.sheds;

  // 1. Map-object state in the shed range moves to the successor.
  std::vector<Entity> moving;
  for (auto it = map_objects_.begin(); it != map_objects_.end();) {
    if (range.reclaim || range.shed_range.contains(it->second.position)) {
      moving.push_back(it->second);
      it = map_objects_.erase(it);
    } else {
      ++it;
    }
  }
  if (!moving.empty()) {
    StateTransfer transfer;
    transfer.from_server = id_;
    transfer.to_game = range.shed_to_game;
    transfer.range = range.reclaim ? authority_ : range.shed_range;
    transfer.object_count = static_cast<std::uint32_t>(moving.size());
    transfer.blob = encode_entities(moving);
    port_->transfer_state(transfer);
    stats_.state_objects_sent += moving.size();
  }

  // 2. Clients standing in the shed range are handed off.
  std::uint32_t redirected = 0;
  bool fault_leaked = false;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (range.reclaim || range.shed_range.contains(it->second.position)) {
      if (config_.fault.leak_session_on_shed && !fault_leaked) {
        // TEST-ONLY: drop the session without a Redirect — the trace last
        // saw this client admitted here, the server forgot it.  The
        // client-count conservation invariant must catch this.
        fault_leaked = true;
        it = sessions_.erase(it);
        continue;
      }
      redirect_client(it->first, it->second, range.shed_to_game,
                      range.shed_to_server);
      it = sessions_.erase(it);
      ++redirected;
    } else {
      ++it;
    }
  }

  // 3. Parked joins whose region moved: while a global-admission directive
  // is active they re-park on the new owner (class + age preserved);
  // otherwise they stay here (split) or are flushed to retry (reclaim),
  // the PR-2 behaviour.
  if (!range.reclaim && queue_handoff_active() && !surge_queue_.empty()) {
    send_queue_handoff(surge_queue_.extract_range(range.shed_range, now()),
                       range.shed_to_game);
    reset_drain_fairness_if_empty();
  }

  if (range.reclaim) {
    authority_ = Rect{};
    ghosts_.clear();
    pending_any_ = false;
    if (queue_handoff_active() && !surge_queue_.empty()) {
      // The whole room follows the range back to the parent instead of
      // being dumped into client-side retry.
      send_queue_handoff(surge_queue_.extract_all(now()),
                         range.shed_to_game);
      reset_drain_fairness_if_empty();
    } else {
      flush_surge_queue();
    }
  }

  ShedDone done;
  done.topology_epoch = range.topology_epoch;
  done.clients_redirected = redirected;
  port_->shed_done(done);
}

void GameServer::handle_state_transfer(const StateTransfer& transfer) {
  for (Entity& entity : decode_entities(transfer.blob)) {
    map_objects_[entity.id] = entity;
    ++stats_.state_objects_received;
  }
}

void GameServer::handle_client_state(const ClientStateTransfer& transfer) {
  ByteReader r(transfer.blob);
  const Entity avatar = Entity::decode(r);
  if (sessions_.count(transfer.client) != 0) return;  // hello won the race
  pending_avatars_[transfer.client] = avatar;
}

// ---------------------------------------------------------------------------
// Periodic work
// ---------------------------------------------------------------------------

std::uint8_t GameServer::radius_class_for(ClientId client) const {
  if (spec_.extra_radii.empty() || spec_.exceptional_radius_fraction <= 0.0) {
    return 0;
  }
  // SplitMix64 finalizer over the id: uniform, stable, server-independent.
  const std::uint64_t z = splitmix64(client.value() + 0x9E3779B97F4A7C15ULL);
  const double u =
      static_cast<double>(z >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return u < spec_.exceptional_radius_fraction ? 1 : 0;
}

LoadSignals GameServer::local_signals() const {
  LoadSignals signals;
  signals.client_count = static_cast<std::uint32_t>(sessions_.size());
  signals.queue_length =
      static_cast<std::uint32_t>(network()->queue_length(node_id()));
  signals.waiting_count = static_cast<std::uint32_t>(surge_queue_.size());
  return signals;
}

LoadReport GameServer::build_load_report() {
  const LoadSignals signals = local_signals();
  LoadReport report;
  report.client_count = signals.client_count;
  report.queue_length = signals.queue_length;
  const double interval_sec = (now() - last_report_at_).sec();
  report.msgs_per_sec =
      interval_sec > 0.0
          ? static_cast<double>(msgs_since_report_) / interval_sec
          : 0.0;
  report.waiting_count = signals.waiting_count;

  if (!sessions_.empty()) {
    std::vector<double> xs, ys;
    xs.reserve(sessions_.size());
    ys.reserve(sessions_.size());
    for (const auto& [client, session] : sessions_) {
      xs.push_back(session.position.x);
      ys.push_back(session.position.y);
    }
    const auto mid = xs.size() / 2;
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                     xs.end());
    std::nth_element(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(mid),
                     ys.end());
    report.median_position = {xs[mid], ys[mid]};
  }
  return report;
}

void GameServer::schedule_load_report() {
  set_timer(config_.load_report_interval, kLoadReportTimer, started_epoch_);
}

void GameServer::load_report_tick() {
  port_->report_load(build_load_report());
  ++stats_.load_reports;
  msgs_since_report_ = 0;
  last_report_at_ = now();

  // Prune ghosts that drifted far from our range (their owners moved
  // away; no further updates will refresh them).
  const double keep_radius = spec_.visibility_radius * 1.5;
  ghosts_.prune([&](const Entity& ghost) {
    return authority_.empty() ||
           metric_distance(config_.metric, ghost.position, authority_) <=
               keep_radius;
  });
  schedule_load_report();
}

void GameServer::schedule_update_tick() {
  set_timer(spec_.update_tick, kUpdateTimer, started_epoch_);
}

void GameServer::update_tick() {
  if (!sessions_.empty()) {
    // Approximate each client's visible-entity count with an R-sized
    // bucket grid (sum over the 3×3 neighbourhood); sizes the digest.
    const double cell = std::max(spec_.visibility_radius, 1.0);
    grid_prepare();
    auto key = [cell](Vec2 p) {
      const auto ix = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(bucket(p.x, cell)));
      const auto iy = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(bucket(p.y, cell)));
      return (ix << 32) | iy;
    };
    for (const auto& [client, session] : sessions_) {
      grid_bump(key(session.position));
    }
    ghosts_.for_each(
        [&](const Entity& ghost) { grid_bump(key(ghost.position)); });

    SimTime oldest = now();
    if (pending_any_) oldest = std::min(oldest, pending_oldest_);

    for (const auto& [client, session] : sessions_) {
      std::uint32_t visible = 0;
      const auto bx = bucket(session.position.x, cell);
      const auto by = bucket(session.position.y, cell);
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          const auto ix = static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(bx + dx));
          const auto iy = static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(by + dy));
          visible += grid_count((ix << 32) | iy);
        }
      }
      ServerUpdate update;
      update.kind = 0;  // digest
      update.position = session.position;
      update.ack_seq = 0;
      update.origin_sent_at = pending_any_ ? oldest : now();
      update.payload.assign(
          12 + 8 * std::min<std::uint32_t>(visible, 32), 0);
      send(session.client_node, update);
      ++stats_.updates_sent;
    }
  }
  pending_any_ = false;
  schedule_update_tick();
}

}  // namespace matrix
