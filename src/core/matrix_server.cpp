#include "core/matrix_server.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/log.h"

namespace matrix {

std::string MatrixServer::name() const {
  std::ostringstream oss;
  oss << "matrix-" << id_.value();
  return oss.str();
}

void MatrixServer::activate_root(const Rect& range,
                                 std::vector<double> radii) {
  active_ = true;
  range_ = range;
  radii_ = radii.empty() ? std::vector<double>{config_.visibility_radius}
                         : std::move(radii);
  parent_ = ServerId{};
  ++activation_epoch_;
  topology_epoch_ = 0;
  clear_pool_denial_episode();
  admission_.reset(now());
  reset_directive();
  start_failsafe(now());
  register_with_mc();
  push_range_to_game(Rect{}, NodeId{}, ServerId{}, /*reclaim=*/false);
}

const OverlapRegionWire* MatrixServer::lookup(Vec2 point,
                                              std::uint8_t rc) const {
  if (rc >= tables_.size()) rc = 0;
  if (rc >= tables_.size()) return nullptr;
  return tables_[rc].find(point);
}

void MatrixServer::on_message(const Message& message,
                              const Envelope& /*envelope*/) {
  // TaggedPackets and LoadReports never get here: on_frame handles every
  // valid one, and one it rejects fails the full decode too.
  if (const auto* grant = std::get_if<PoolGrant>(&message)) {
    handle_pool_grant(*grant);
  } else if (std::holds_alternative<PoolDeny>(message)) {
    ++stats_.split_denied_no_server;
    split_pending_ = false;
    network()->tracer().record(now(), obs::TraceKind::kPoolDenied,
                               id_.value());
    network()->tracer().close_span(now(), obs::SpanKind::kSplit, id_.value(),
                                   /*success=*/false);
    // Exponential backoff before asking the pool again (doubling per
    // consecutive denial, capped): the episode semantics live in the policy
    // layer (policy/denial_episode.h), this server just applies the wait.
    cooldown_until_ = now() + denial_episode_.on_denied();
    stats_.split_denied_streak = denial_episode_.streak();
    stats_.pool_backoff_us = denial_episode_.backoff_us();
    // A denied split is also an admission signal: the pool is exhausted
    // and this server is still hot.
    observe_admission();
  } else if (const auto* pressure = std::get_if<PoolPressure>(&message)) {
    // While the failsafe is degraded the pool view stays FROZEN: a pressure
    // broadcast that limped in from a possibly-dead MC must not steer the
    // valve.  (Failsafe off ⇒ always applied, the historical behaviour.)
    if (control_plane_.admit(now(), {ControlKind::kPoolPressure, 0, 0}) ==
        ControlVerdict::kApply) {
      pool_idle_fraction_ =
          pressure->total > 0 ? static_cast<double>(pressure->idle) /
                                    static_cast<double>(pressure->total)
                              : -1.0;
      // A spare is idle again: the doubled wait describes a pool that no
      // longer exists, so allow a prompt retry — but keep the streak.  The
      // pool broadcasts occupancy on every change (including grants to other
      // servers that leave idle > 0); if the freed spare is snatched before
      // our retry lands, the next denial must keep doubling from where the
      // episode left off.  Only a calm report or a grant ends the episode
      // (policy/denial_episode.h; regression-pinned in policy_test.cpp).
      if (pressure->idle > 0 && denial_episode_.idle_allows_prompt_retry()) {
        cooldown_until_ =
            std::min(cooldown_until_, now() + config_.topology_cooldown);
      }
    }
    if (active_) {
      observe_admission();
    }
  } else if (const auto* directive = std::get_if<AdmissionDirective>(&message)) {
    handle_mc_directive(*directive);
  } else if (const auto* beat = std::get_if<McHeartbeat>(&message)) {
    handle_mc_heartbeat(*beat);
  } else if (const auto* adopt = std::get_if<Adopt>(&message)) {
    handle_adopt(*adopt);
  } else if (const auto* table = std::get_if<OverlapTableMsg>(&message)) {
    handle_overlap_table(*table);
  } else if (const auto* load = std::get_if<PeerLoad>(&message)) {
    handle_peer_load(*load);
  } else if (const auto* request = std::get_if<ReclaimRequest>(&message)) {
    handle_reclaim_request(*request);
  } else if (const auto* decline = std::get_if<ReclaimDecline>(&message)) {
    handle_reclaim_decline(*decline);
  } else if (const auto* done = std::get_if<ReclaimDone>(&message)) {
    handle_reclaim_done(*done);
  } else if (const auto* shed = std::get_if<ShedDone>(&message)) {
    handle_shed_done(*shed);
  } else if (const auto* owner = std::get_if<PointOwner>(&message)) {
    handle_point_owner(*owner);
  } else if (const auto* query = std::get_if<OwnerQuery>(&message)) {
    // Game server asks who owns a point (client migration).  Resolve via
    // the MC; the reply comes back through handle_point_owner.
    ++stats_.nonproximal_lookups;
    park_lookup(query->point, *query);
  } else if (const auto* announce = std::get_if<McAnnounce>(&message)) {
    // Coordinator fail-over: adopt the new MC and re-register so it can
    // rebuild the partition map from our (authoritative) local range.  The
    // control plane rejects a superseded generation and — on a newer one —
    // flips the epoch atomically: every per-kind seq counter resets in the
    // same admit() call, so no directive numbered by the dead MC can ever
    // outrank its successor's.
    if (control_plane_.admit(now(),
                             {ControlKind::kAnnounce, announce->generation,
                              0}) != ControlVerdict::kApply) {
      return;  // stale announce
    }
    wiring_.mc_node = announce->mc_node;
    // In-flight lookups died with the MC.
    lookup_base_ += static_cast<std::uint32_t>(lookups_.size());
    for (ParkedLookup& slot : lookups_) clear_slot(slot);
    lookups_.clear();
    // The old MC's directive died with it: drop the floor (the standby
    // re-clamps within a digest round if pressure persists); its successor
    // numbers directives from 1 in the new epoch.
    reset_directive();
    if (active_) {
      sync_game_admission();
      register_with_mc();
    }
  }
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

bool MatrixServer::on_frame(const Envelope& env) {
  if (env.payload.empty()) return false;
  switch (env.payload[0]) {
    case wire_type<TaggedPacket>: {
      const auto view = parse_tagged_packet_frame(env.payload);
      if (!view) return false;  // malformed: the generic path counts it
      route_tagged_frame(*view, env);
      return true;
    }
    case wire_type<LoadReport>: {
      // Per-interval report from every game server: all fixed-width fields,
      // so skip the Message variant on the floor's steadiest control stream.
      const auto report = parse_load_report_frame(env.payload);
      if (!report) return false;
      handle_load_report(*report);
      return true;
    }
    case wire_type<StateTransfer>:
    case wire_type<ClientStateTransfer>:
    case wire_type<QueueHandoff>: {
      // Relay legs (paper §3.2.2: state and parked joins are forwarded "via
      // Matrix"): the frame — shed blobs included — is validated in place
      // and forwarded verbatim, never decoded or copied through a struct.
      // parse_relay_frame accepts exactly what decode_message accepts, so a
      // frame it rejects goes down the generic path, which counts it as
      // malformed and drops it; a valid one never reaches on_message.
      const auto relay = parse_relay_frame(env.payload);
      if (!relay) return false;
      send_raw(relay->to_game, env.payload);
      return true;
    }
    default:
      return false;
  }
}

std::size_t MatrixServer::send_peer_frame(NodeId peer,
                                          const std::vector<std::uint8_t>& frame,
                                          std::size_t flag_offset) {
  // Only the head is stored, and it is cut after the flag is set: with an
  // empty payload the unset flag lies in the frame's zero tail.
  const std::size_t head =
      std::max(frame.size() - zero_tail_length(frame), flag_offset + 1);
  std::vector<std::uint8_t> buf = network()->rent_buffer();
  buf.assign(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(head));
  buf[flag_offset] = 1;  // peer_forwarded = true, flipped in place
  return network()->send(node_id(), peer, std::move(buf), frame.size() - head);
}

void MatrixServer::route_tagged_frame(const TaggedPacketView& view,
                                      const Envelope& env) {
  if (!active_) return;

  if (view.peer_forwarded) {
    // Arrived from a peer Matrix server: verify the packet's range before
    // handing it to our game server (paper §3.2.3).
    ++stats_.peer_packets_received;
    const double radius =
        view.radius_class < radii_.size() ? radii_[view.radius_class]
                                          : radii_.front();
    const bool origin_relevant =
        metric_distance(config_.metric, view.origin, range_) <= radius;
    const bool target_relevant =
        view.target.has_value() && range_.contains(*view.target);
    if (origin_relevant || target_relevant) {
      ++stats_.peer_packets_delivered;
      // Deliver the frame as received: the packet is forwarded unchanged,
      // so the arriving bytes are exactly what re-encoding would produce.
      send_raw(wiring_.game_node, env.payload);
    } else {
      ++stats_.peer_packets_rejected;
    }
    return;
  }

  // Arrived from our own game server: fan out along the consistency set.
  ++stats_.packets_from_game;

  if (!range_.contains(view.origin)) {
    // Handoff-window stray: the client's new home will route it properly.
    // Hand it to the point's owner via the MC (non-proximal machinery).
    ++stats_.origin_outside_range;
    ++stats_.nonproximal_lookups;
    TaggedPacket forwarded = view.materialize();
    forwarded.peer_forwarded = true;
    forwarded.target = view.origin;  // ensure delivery at the owner
    park_packet(view.origin, forwarded);
    return;
  }

  if (const OverlapRegionWire* region =
          lookup(view.origin, view.radius_class)) {
    for (NodeId peer : region->peer_matrix_nodes) {
      ++stats_.packets_fanned_out;
      send_peer_frame(peer, env.payload, view.peer_flag_offset);
    }
  }

  // Non-proximal interaction (paper §3.2.4): the target lies beyond our
  // partition; ask the MC who owns it, then forward directly.
  if (view.target.has_value() && !range_.contains(*view.target)) {
    const double radius =
        view.radius_class < radii_.size() ? radii_[view.radius_class]
                                          : radii_.front();
    // Targets within the origin's visibility radius were already covered by
    // the origin fan-out above.
    if (metric_distance(config_.metric, *view.target, view.origin) > radius) {
      ++stats_.nonproximal_lookups;
      TaggedPacket forwarded = view.materialize();
      forwarded.peer_forwarded = true;
      park_packet(*view.target, forwarded);
    }
  }
}

void MatrixServer::park_packet(Vec2 point, const TaggedPacket& packet) {
  // Encoded now, sent verbatim on PointOwner: the same bytes the send would
  // encode then, held in a buffer instead of a decoded packet.
  ByteWriter writer(network()->rent_buffer());
  ParkedFrame frame;
  frame.zero_tail = encode_head_into(writer, packet);
  frame.head = writer.take();
  park_lookup(point, std::move(frame));
}

void MatrixServer::clear_slot(ParkedLookup& slot) {
  if (auto* frame = std::get_if<ParkedFrame>(&slot.parked)) {
    parked_frame_bytes_ -= frame->head.capacity();
    network()->return_buffer(std::move(frame->head));
  }
  slot.parked = std::monostate{};
}

void MatrixServer::park_lookup(Vec2 point, ParkedLookup::Payload parked) {
  // Lazy expiry: a lookup unanswered for tau1 — the heartbeat silence after
  // which the MC is suspect — is dropped before the next one is parked.  A
  // reply that beats this never notices; one that does not is counted in
  // late_lookup_replies.
  const SimTime now_at = now();
  if (!config_.fault.never_expire_lookups) {
    while (!lookups_.empty() &&
           lookups_.front().issued_at + kFailsafeTau1 <= now_at) {
      clear_slot(lookups_.front());
      lookups_.pop_front();
      expired_end_ = ++lookup_base_;
      ++stats_.lookups_expired;
      drain_parked_lookups();
    }
  }
  if (!lookups_.empty()) {
    stats_.lookup_age_peak_us =
        std::max(stats_.lookup_age_peak_us,
                 static_cast<std::uint64_t>(
                     (now_at - lookups_.front().issued_at).us()));
  }
  const auto seq =
      lookup_base_ + static_cast<std::uint32_t>(lookups_.size());
  if (const auto* frame = std::get_if<ParkedFrame>(&parked)) {
    parked_frame_bytes_ += frame->head.capacity();
  }
  lookups_.push_back({now_at, std::move(parked)});
  stats_.pending_lookups_peak =
      std::max<std::uint64_t>(stats_.pending_lookups_peak, lookups_.size());
  stats_.pending_lookup_peak_bytes = std::max<std::uint64_t>(
      stats_.pending_lookup_peak_bytes, parked_lookup_bytes());
  send(wiring_.mc_node, PointLookup{point, seq});
}

void MatrixServer::drain_parked_lookups() {
  while (!lookups_.empty() &&
         std::holds_alternative<std::monostate>(lookups_.front().parked)) {
    lookups_.pop_front();
    ++lookup_base_;
  }
}

void MatrixServer::handle_point_owner(const PointOwner& owner) {
  const std::uint32_t index = owner.lookup_seq - lookup_base_;
  if (index >= lookups_.size()) {
    // Serial-number comparison: seq precedes expired_end_, wrap-safe.
    if (static_cast<std::int32_t>(owner.lookup_seq - expired_end_) < 0) {
      ++stats_.late_lookup_replies;
    }
    return;
  }
  auto parked = std::exchange(lookups_[index].parked, std::monostate{});
  drain_parked_lookups();
  if (auto* frame = std::get_if<ParkedFrame>(&parked)) {
    parked_frame_bytes_ -= frame->head.capacity();
    if (!owner.found) {
      network()->return_buffer(std::move(frame->head));
      return;
    }
    // The owner is us when the lookup raced a topology change.
    const NodeId to = owner.matrix_node != node_id() ? owner.matrix_node
                                                     : wiring_.game_node;
    network()->send(node_id(), to, std::move(frame->head), frame->zero_tail);
  } else if (const auto* query = std::get_if<OwnerQuery>(&parked)) {
    OwnerReply reply;
    reply.client = query->client;
    reply.seq = query->seq;
    reply.found = owner.found;
    reply.server = owner.server;
    reply.game_node = owner.game_node;
    send(wiring_.game_node, reply);
  }
}

// ---------------------------------------------------------------------------
// Load monitoring and splits (paper §3.2.3)
// ---------------------------------------------------------------------------

void MatrixServer::handle_load_report(const LoadReport& report) {
  if (!active_) return;
  last_report_ = report;
  stats_.surge_waiting = report.waiting_count;
  stats_.surge_waiting_peak =
      std::max(stats_.surge_waiting_peak, report.waiting_count);

  // Global admission (src/control/global_admission.h): mirror the report
  // to the MC as a LoadDigest — carrying the LOCAL valve state, so the
  // coordinator's floor never feeds back into its own pressure score.
  if (config_.admission.global.enabled) {
    LoadDigest digest;
    digest.server = id_;
    digest.client_count = report.client_count;
    digest.queue_length = report.queue_length;
    digest.waiting_count = report.waiting_count;
    digest.admission_state = static_cast<std::uint8_t>(admission_.state());
    send(wiring_.mc_node, digest);
    ++stats_.digests_sent;
  }

  // Lost-message recovery: re-send a long-outstanding reclaim request.
  // Idempotent at the child (already-shedding children ignore duplicates;
  // re-granted children see a stale token and decline).
  if (reclaim_pending_ && now() >= reclaim_retry_at_ && !children_.empty()) {
    reclaim_retry_at_ = now() + config_.topology_cooldown * 2;
    send(children_.back().matrix_node,
         ReclaimRequest{children_.back().adoption_token});
  }

  const bool overloaded =
      config_.overloaded(report.client_count, receive_queue_length());

  // A calm report ends the pool-denial episode: the streak and its backoff
  // describe the *current* run of denied splits, and with the overload gone
  // no further PoolAcquire (and hence no clearing PoolGrant) would ever be
  // sent — without this, one denial would latch the admission valve and
  // block reclaim forever.
  if (!overloaded) clear_pool_denial_episode();

  observe_admission();

  if (overloaded) {
    ++consecutive_overload_;
  } else {
    consecutive_overload_ = 0;
  }
  // The load rules decide: maybe_split consults them on EVERY report (the
  // directive rules may split proactively below the overload threshold),
  // reclaim only on calm reports.
  maybe_split();
  if (!overloaded) maybe_reclaim();
}

// ---------------------------------------------------------------------------
// Admission control (src/control/)
// ---------------------------------------------------------------------------

void MatrixServer::observe_admission() {
  if (!config_.admission.enabled) return;
  if (admission_.observe(now(), build_load_view())) sync_game_admission();
}

void MatrixServer::handle_mc_directive(const AdmissionDirective& directive) {
  if (!config_.admission.enabled || !config_.admission.global.enabled) return;
  // One staleness rule, one place: reordered/stale seqs (and, with the
  // failsafe degraded, anything from an untrusted MC) die here.
  if (control_plane_.admit(now(), {ControlKind::kDirective, 0,
                                   directive.seq}) != ControlVerdict::kApply) {
    return;
  }
  apply_mc_directive(directive);
  if (config_.fault.stale_directive_replay &&
      control_plane_.admit(now(), {ControlKind::kDirective, 0,
                                   directive.seq}) == ControlVerdict::kApply) {
    // Planted bug (docs/TESTING.md): the same directive acts twice.
    apply_mc_directive(directive);
  }
}

void MatrixServer::apply_mc_directive(const AdmissionDirective& directive) {
  directive_active_ = directive.active;
  directive_floor_ = directive.active
                         ? admission_state_from_wire(directive.floor)
                         : AdmissionState::kNormal;
  directive_token_rate_ = directive.active ? directive.token_rate : 0.0;
  ++stats_.directives_received;
  if (!active_) return;  // parked in the pool: remember seq, enforce nothing
  ++stats_.directives_applied;
  network()->tracer().record(
      now(), obs::TraceKind::kDirectiveApplied, id_.value(), 0,
      directive.active ? static_cast<std::int64_t>(directive.floor) : 0);
  sync_game_admission();
}

void MatrixServer::reset_directive() {
  directive_floor_ = AdmissionState::kNormal;
  directive_active_ = false;
  directive_token_rate_ = 0.0;
}

// ---------------------------------------------------------------------------
// Control-plane failsafe (src/control/control_plane.h)
// ---------------------------------------------------------------------------

void MatrixServer::handle_mc_heartbeat(const McHeartbeat& beat) {
  if (!config_.failsafe.enabled) return;
  control_plane_.admit(now(),
                       {ControlKind::kHeartbeat, beat.generation, beat.seq});
}

void MatrixServer::start_failsafe(SimTime at) {
  control_plane_.bind(&network()->tracer_for(node_id()), node_id().value());
  if (!config_.failsafe.enabled) return;
  control_plane_.start(at);
  schedule_failsafe_tick();
}

void MatrixServer::on_timer(std::uint8_t timer, std::uint64_t epoch) {
  if (!active_ || activation_epoch_ != epoch) return;
  if (timer == kFailsafeTimer) {
    failsafe_tick();
  } else {
    send_peer_load();
  }
}

void MatrixServer::schedule_failsafe_tick() {
  set_timer(kFailsafeCheckInterval, kFailsafeTimer,
            activation_epoch_);
}

void MatrixServer::failsafe_tick() {
  const bool was_fallback = control_plane_.fallback();
  if (control_plane_.tick(now()) && !was_fallback &&
      control_plane_.fallback()) {
    on_failsafe_degraded();
  }
  schedule_failsafe_tick();
}

void MatrixServer::on_failsafe_degraded() {
  // FALLBACK entry: deterministic local-only behaviour.  The frozen
  // directive is dropped — the game server hears the relaxed state and its
  // local token rate back in one update — and the local valve takes back
  // over.  Split/reclaim conservatism is enforced by the load rules
  // (policy/load_rules.h).
  reset_directive();
  if (active_) sync_game_admission();
  MATRIX_INFO("matrix", name() << " failsafe -> FALLBACK (MC silent)");
}

void MatrixServer::clear_pool_denial_episode() {
  if (denial_episode_.end()) {
    // A doubled backoff may still be holding the topology cooldown far in
    // the future; with the episode over, shrink it to the ordinary
    // cooldown so an underloaded server can reclaim (and a re-overloaded
    // one re-ask a refilled pool) promptly.  min() preserves any cooldown
    // a split/reclaim set through the normal hysteresis path.
    cooldown_until_ =
        std::min(cooldown_until_, now() + config_.topology_cooldown);
  }
  stats_.split_denied_streak = 0;
  stats_.pool_backoff_us = 0;
}

void MatrixServer::sync_game_admission(bool force) {
  // The game server enforces the COMPOSED state (local valve and the
  // coordinator's directive floor, strictest wins), the directive's token
  // share — or the local rate — and the directive flag: all of it rides one
  // update, sent only when it differs from the last one sent.
  const AdmissionState effective = effective_admission_state();
  AdmissionUpdate update;
  update.state = static_cast<std::uint8_t>(effective);
  update.seq = game_update_.seq;
  update.token_rate = directive_token_rate_ > 0.0
                          ? directive_token_rate_
                          : config_.admission.token_rate_per_sec;
  update.directive_active = directive_active_;
  if (!force && update == game_update_) return;
  ++update.seq;
  game_update_ = update;
  send(wiring_.game_node, update);
  ++stats_.admission_updates;
  network()->tracer().record(now(), obs::TraceKind::kAdmissionTransition,
                             id_.value(), 0,
                             static_cast<std::int64_t>(effective));
  MATRIX_INFO("matrix", name() << " admission -> "
                               << admission_state_name(effective));
}

bool MatrixServer::can_change_topology() const {
  return active_ && !split_pending_ && !reclaim_pending_ &&
         !being_reclaimed_ && now() >= cooldown_until_;
}

std::uint32_t MatrixServer::receive_queue_length() const {
  // "explicit load messages from the game server or via system performance
  // measurements": the reported queue, or what we observe now if deeper —
  // between reports (PoolDeny, PoolPressure) the report is up to one
  // interval stale.
  return std::max(last_report_.queue_length,
                  static_cast<std::uint32_t>(
                      network()->queue_length(wiring_.game_node)));
}

LoadView MatrixServer::build_load_view() const {
  LoadView view;
  view.load.client_count = last_report_.client_count;
  view.load.queue_length = receive_queue_length();
  view.load.waiting_count = last_report_.waiting_count;
  view.median_position = last_report_.median_position;
  view.range = range_;
  view.consecutive_overload = consecutive_overload_;
  view.split_denied_streak = denial_episode_.streak();
  view.pool_idle_fraction = pool_idle_fraction_;
  view.effective_valve = effective_admission_state();
  view.directive_active = directive_active_;
  view.failsafe = control_plane_.state();
  return view;
}

void MatrixServer::maybe_split() {
  if (!can_change_topology()) return;
  const LoadView view = build_load_view();
  const SplitDecision decision = decide_split(config_, view);
  if (!decision.split) return;
  split_pending_ = true;
  split_started_at_ = now();
  ++stats_.splits_initiated;
  if (decision.proactive) ++stats_.proactive_splits;
  // The need hint rides the request so the pool can arbitrate a contested
  // spare toward the most starved partition (0 ⇒ classic FCFS).
  const auto need = pool_need(config_, view);
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kSplitRequested, id_.value(), 0,
                decision.proactive ? 1 : 0, need);
  tracer.open_span(now(), obs::SpanKind::kSplit, id_.value());
  send(wiring_.pool_node, PoolAcquire{id_, need});
}

void MatrixServer::handle_pool_grant(const PoolGrant& grant) {
  if (!split_pending_ || !active_ || being_reclaimed_) {
    // We no longer want the server — most importantly when our parent's
    // ReclaimRequest overtook the grant: splitting now would change our
    // range mid-reclaim and the parent would merge a stale rectangle,
    // tearing the tiling invariant.  Return the grant.
    send(wiring_.pool_node,
         PoolRelease{grant.server, grant.matrix_node, grant.game_node});
    split_pending_ = false;
    network()->tracer().close_span(now(), obs::SpanKind::kSplit, id_.value(),
                                   /*success=*/false);
    return;
  }

  // The pool came through: clear the denial streak and its backoff.
  clear_pool_denial_episode();
  network()->tracer().record(now(), obs::TraceKind::kPoolGranted, id_.value(),
                             grant.server.value());

  const auto [give_away, keep] = split_ranges(config_, build_load_view());
  ++topology_epoch_;
  range_ = keep;

  children_.push_back({grant.server, grant.matrix_node, grant.game_node,
                       give_away, topology_epoch_});

  MATRIX_INFO("matrix", name() << " splits: keeps " << keep << ", hands "
                               << give_away << " to S" << grant.server.value());

  Adopt adopt;
  adopt.parent = id_;
  adopt.parent_matrix = node_id();
  adopt.parent_game = wiring_.game_node;
  adopt.range = give_away;
  adopt.visibility_radius = radii_.front();
  adopt.extra_radii.assign(radii_.begin() + 1, radii_.end());
  adopt.content_keys = content_keys_;
  adopt.topology_epoch = topology_epoch_;
  send(grant.matrix_node, adopt);

  register_with_mc();
  push_range_to_game(give_away, grant.game_node, grant.server,
                     /*reclaim=*/false);
}

void MatrixServer::handle_adopt(const Adopt& adopt) {
  active_ = true;
  being_reclaimed_ = false;
  split_pending_ = false;
  reclaim_pending_ = false;
  consecutive_overload_ = 0;
  children_.clear();
  tables_.clear();
  table_versions_.clear();
  range_ = adopt.range;
  parent_ = adopt.parent;
  parent_matrix_ = adopt.parent_matrix;
  parent_game_ = adopt.parent_game;
  radii_.clear();
  radii_.push_back(adopt.visibility_radius);
  radii_.insert(radii_.end(), adopt.extra_radii.begin(),
                adopt.extra_radii.end());
  content_keys_ = adopt.content_keys;
  topology_epoch_ = adopt.topology_epoch;
  // A fresh child should not immediately split/reclaim; give the handoff a
  // cooldown to settle.
  cooldown_until_ = now() + config_.topology_cooldown;
  ++activation_epoch_;
  // A re-granted pool server starts a fresh admission life (and tells its
  // game server so: the pair may have parted in SOFT/HARD, or under a
  // directive, last time).  The MC re-sends any directive in force on the
  // registration below.
  clear_pool_denial_episode();
  reset_directive();
  if (config_.admission.enabled) {
    admission_.reset(now());
    sync_game_admission(/*force=*/true);
  }
  network()->tracer().record(now(), obs::TraceKind::kAdopted, id_.value(),
                             parent_.value());

  MATRIX_INFO("matrix", name() << " adopted range " << range_ << " from S"
                               << parent_.value());

  start_failsafe(now());
  register_with_mc();
  push_range_to_game(Rect{}, NodeId{}, ServerId{}, /*reclaim=*/false);
  schedule_heartbeat();
}

void MatrixServer::schedule_heartbeat() {
  set_timer(config_.peer_load_interval, kPeerLoadTimer, activation_epoch_);
}

void MatrixServer::send_peer_load() {
  if (!parent_.valid()) return;
  PeerLoad load;
  load.server = id_;
  load.client_count = last_report_.client_count;
  load.child_count = static_cast<std::uint32_t>(children_.size());
  send(parent_matrix_, load);
  schedule_heartbeat();
}

void MatrixServer::handle_peer_load(const PeerLoad& load) {
  for (auto& child : children_) {
    if (child.server == load.server) {
      child.last_clients = load.client_count;
      child.last_children = load.child_count;
      child.load_known = true;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Reclamation (paper §3.2.3)
// ---------------------------------------------------------------------------

void MatrixServer::maybe_reclaim() {
  if (!can_change_topology()) return;
  if (children_.empty()) return;
  // Only the most recent child can be reclaimed: its range is the complement
  // of our latest split, so the merge below is exact.  Earlier children
  // become reclaimable as later ones are absorbed (LIFO collapse).
  const ChildInfo& child = children_.back();
  ChildView child_view;
  child_view.client_count = child.last_clients;
  child_view.child_count = child.last_children;
  child_view.load_known = child.load_known;
  if (!decide_reclaim(config_, build_load_view(), child_view)) return;
  reclaim_pending_ = true;
  reclaim_started_at_ = now();
  reclaim_retry_at_ = now() + config_.topology_cooldown * 2;
  ++stats_.reclaims_initiated;
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kReclaimRequested, id_.value(),
                child.server.value());
  tracer.open_span(now(), obs::SpanKind::kReclaim, id_.value());
  MATRIX_INFO("matrix", name() << " reclaiming child S"
                               << child.server.value());
  send(child.matrix_node, ReclaimRequest{child.adoption_token});
}

void MatrixServer::handle_reclaim_request(const ReclaimRequest& request) {
  if (!active_) return;
  if (being_reclaimed_) return;  // duplicate/retry while already shedding
  // Refuse unless fully quiescent.  A reclaim racing our own in-flight
  // split or reclaim would hand the parent a rectangle that is no longer
  // the complement of its range — merging it would gap or overlap the map.
  // A stale token means we were re-granted since that request was formed.
  if (split_pending_ || reclaim_pending_ ||
      request.topology_epoch != topology_epoch_) {
    send(parent_matrix_, ReclaimDecline{id_, request.topology_epoch});
    return;
  }
  being_reclaimed_ = true;
  // Shed everything we own to the parent's game server; ShedDone completes
  // the handback.
  push_range_to_game(range_, parent_game_, parent_, /*reclaim=*/true);
}

void MatrixServer::handle_reclaim_decline(const ReclaimDecline& decline) {
  if (!reclaim_pending_) return;
  if (children_.empty() || children_.back().server != decline.child) return;
  reclaim_pending_ = false;
  network()->tracer().record(now(), obs::TraceKind::kReclaimDeclined,
                             id_.value(), decline.child.value());
  network()->tracer().close_span(now(), obs::SpanKind::kReclaim, id_.value(),
                                 /*success=*/false);
  // Brief cooldown before considering the child again.
  cooldown_until_ = now() + config_.topology_cooldown;
}

void MatrixServer::handle_reclaim_done(const ReclaimDone& done) {
  if (!reclaim_pending_) return;
  auto it = std::find_if(children_.begin(), children_.end(),
                         [&](const ChildInfo& c) { return c.server == done.child; });
  if (it == children_.end()) return;
  range_ = Rect::bounding(range_, done.range);
  children_.erase(it);
  reclaim_pending_ = false;
  cooldown_until_ = now() + config_.topology_cooldown;
  ++stats_.reclaims_completed;
  stats_.reclaim_latency_us_sum +=
      static_cast<std::uint64_t>((now() - reclaim_started_at_).us());
  network()->tracer().record(now(), obs::TraceKind::kReclaimCompleted,
                             id_.value(), done.child.value());
  network()->tracer().close_span(now(), obs::SpanKind::kReclaim, id_.value());
  MATRIX_INFO("matrix", name() << " reclaimed range, now " << range_);
  register_with_mc();
  push_range_to_game(Rect{}, NodeId{}, ServerId{}, /*reclaim=*/false);
}

void MatrixServer::handle_shed_done(const ShedDone& done) {
  if (being_reclaimed_) {
    // Child side: everything is handed back; return ourselves to the pool.
    ReclaimDone reclaim_done;
    reclaim_done.child = id_;
    reclaim_done.range = range_;
    reclaim_done.topology_epoch = done.topology_epoch;
    send(parent_matrix_, reclaim_done);
    send(wiring_.mc_node, ServerUnregister{id_});
    send(wiring_.pool_node, PoolRelease{id_, node_id(), wiring_.game_node});
    deactivate();
    return;
  }
  if (split_pending_) {
    // Parent side: the shed that completes a split has finished.
    split_pending_ = false;
    consecutive_overload_ = 0;
    cooldown_until_ = now() + config_.topology_cooldown;
    ++stats_.splits_completed;
    stats_.split_latency_us_sum +=
        static_cast<std::uint64_t>((now() - split_started_at_).us());
    obs::Tracer& tracer = network()->tracer();
    tracer.record(now(), obs::TraceKind::kSplitCompleted, id_.value(),
                  children_.empty() ? 0 : children_.back().server.value());
    tracer.close_span(now(), obs::SpanKind::kSplit, id_.value());
  }
}

void MatrixServer::deactivate() {
  obs::Tracer& tracer = network()->tracer();
  tracer.record(now(), obs::TraceKind::kDeactivated, id_.value());
  // A deactivating server abandons any split/reclaim in flight.
  tracer.close_span(now(), obs::SpanKind::kSplit, id_.value(),
                    /*success=*/false);
  tracer.close_span(now(), obs::SpanKind::kReclaim, id_.value(),
                    /*success=*/false);
  active_ = false;
  being_reclaimed_ = false;
  split_pending_ = false;
  reclaim_pending_ = false;
  consecutive_overload_ = 0;
  range_ = Rect{};
  parent_ = ServerId{};
  children_.clear();
  tables_.clear();
  table_versions_.clear();
  // Parked packets are abandoned; parked owner queries are still answered.
  for (ParkedLookup& slot : lookups_) {
    if (std::holds_alternative<ParkedFrame>(slot.parked)) clear_slot(slot);
  }
  drain_parked_lookups();
  last_report_ = LoadReport{};
  clear_pool_denial_episode();
  admission_.reset(now());
  // A directive the game latched is rescinded; nothing else is sent to a
  // parking pair (its next Adopt re-sends the whole state).
  const bool directive_was_active = directive_active_;
  reset_directive();
  if (directive_was_active) sync_game_admission();
  ++activation_epoch_;
}

// ---------------------------------------------------------------------------
// Control plumbing
// ---------------------------------------------------------------------------

void MatrixServer::handle_overlap_table(const OverlapTableMsg& table) {
  if (!active_ || table.server != id_) return;
  const std::size_t rc = table.radius_class;
  if (tables_.size() <= rc) {
    tables_.resize(rc + 1);
    table_versions_.resize(rc + 1, 0);
  }
  if (table.version < table_versions_[rc]) return;  // stale push
  table_versions_[rc] = table.version;
  tables_[rc] = RegionIndex(table.partition, table.regions);
  ++stats_.table_updates;
}

void MatrixServer::register_with_mc() {
  ServerRegister reg;
  reg.server = id_;
  reg.matrix_node = node_id();
  reg.game_node = wiring_.game_node;
  reg.range = range_;
  reg.radii = radii_;
  send(wiring_.mc_node, reg);
}

void MatrixServer::push_range_to_game(const Rect& shed_range,
                                      NodeId shed_to_game,
                                      ServerId shed_to_server, bool reclaim) {
  MapRange msg;
  msg.new_range = reclaim ? Rect{} : range_;
  msg.shed_range = shed_range;
  msg.shed_to_game = shed_to_game;
  msg.shed_to_server = shed_to_server;
  msg.reclaim = reclaim;
  msg.topology_epoch = topology_epoch_;
  send(wiring_.game_node, msg);
}

}  // namespace matrix
