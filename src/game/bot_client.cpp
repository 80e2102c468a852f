#include "game/bot_client.h"

#include <algorithm>
#include <sstream>

namespace matrix {

std::string BotClient::name() const {
  std::ostringstream oss;
  oss << "client-" << id_.value();
  return oss.str();
}

void BotClient::join(NodeId game_server, Vec2 position) {
  server_node_ = game_server;
  position_ = world_.clamp(position);
  waypoint_ = position_;
  playing_ = true;
  connected_ = false;
  defer_pending_ = false;
  queued_ = false;
  last_move_at_ = now();
  ++play_epoch_;
  if (!ever_joined_) {
    ever_joined_ = true;
    first_join_at_ = now();
  }

  ClientHello hello;
  hello.client = id_;
  hello.position = position_;
  hello.priority = vip_ ? 1 : 0;
  send(server_node_, hello);
  schedule_next_action();
}

void BotClient::leave() {
  if (!playing_ && !defer_pending_ && !queued_) return;
  playing_ = false;
  defer_pending_ = false;  // cancels a scheduled JoinDefer retry
  queued_ = false;         // ClientBye also removes us from the surge queue
  connected_ = false;
  ++play_epoch_;
  send(server_node_, ClientBye{id_});
}

void BotClient::pair_ack(std::uint32_t ack_seq) {
  if (const auto sent_at = ack_window_.take(ack_seq)) {
    metrics_.self_latency_ms.add((now() - *sent_at).ms());
  }
}

bool BotClient::on_frame(const Envelope& envelope) {
  const std::vector<std::uint8_t>& frame = envelope.payload;
  if (frame.empty()) return false;
  if (frame[0] == wire_type<QueueUpdate>) {
    // Waiting-room ping: sent to every parked client on every drain tick, so
    // a deep surge queue makes this the second-hottest client-bound frame.
    const auto view = parse_queue_update_frame(frame);
    if (!view) return false;  // malformed: the generic path counts it
    if ((!playing_ && !queued_) || connected_ || view->client != id_) {
      return true;
    }
    // Parked in the server's surge queue: stop acting and wait quietly —
    // the server owns the retry loop now and will Welcome us when a slot
    // opens.  No timer, no retry traffic.  The queue itself can move
    // between servers (handoff on split/merge); track whoever holds us so
    // a leave() reaches the right waiting room.
    server_node_ = envelope.src;
    ++metrics_.queue_updates;
    metrics_.max_queue_position =
        std::max(metrics_.max_queue_position, view->position);
    if (!queued_) {
      queued_ = true;
      playing_ = false;
      defer_pending_ = false;
      ++play_epoch_;  // parks the action loop
    }
    return true;
  }
  if (frame[0] != wire_type<ServerUpdate>) return false;
  const auto view = parse_server_update_frame(frame);
  if (!view) return false;  // malformed: the generic path counts it
  if (!playing_) return true;
  ++metrics_.updates_received;
  if (view->ack_seq != 0) {
    pair_ack(view->ack_seq);
  } else if (view->origin_sent_at.us() > 0) {
    metrics_.observer_latency_ms.add((now() - view->origin_sent_at).ms());
  }
  return true;
}

void BotClient::on_message(const Message& message, const Envelope& envelope) {
  if (const auto* welcome = std::get_if<Welcome>(&message)) {
    if (!ever_connected_) {
      metrics_.time_to_admit_ms = (now() - first_join_at_).ms();
    }
    // The admitting server may differ from the one we helloed (the surge
    // queue hands parked joins across servers on split/merge); follow it.
    server_node_ = envelope.src;
    connected_ = true;
    ever_connected_ = true;
    if (queued_) {
      // The surge queue drained us into a session: resume acting (the
      // action loop was parked along with the join).
      queued_ = false;
      playing_ = true;
      last_move_at_ = now();
      ++play_epoch_;
      schedule_next_action();
    }
    if (switch_pending_ && welcome->redirect_seq == switch_seq_) {
      switch_pending_ = false;
      metrics_.switch_latency_ms.add((now() - redirect_received_at_).ms());
      ++metrics_.switches;
    }
    return;
  }
  if (const auto* redirect = std::get_if<Redirect>(&message)) {
    if (!playing_) return;
    // Switch servers: reconnect, resuming our avatar.  The paper's design
    // makes this invisible to the player; switch latency tells us whether
    // that claim holds.
    switch_pending_ = true;
    switch_seq_ = redirect->redirect_seq;
    redirect_received_at_ = now();
    server_node_ = redirect->new_game_node;
    ClientHello hello;
    hello.client = id_;
    hello.position = position_;
    hello.resume = true;
    hello.redirect_seq = redirect->redirect_seq;
    hello.priority = vip_ ? 1 : 0;
    send(server_node_, hello);
    return;
  }
  if (const auto* deny = std::get_if<JoinDeny>(&message)) {
    if ((!playing_ && !queued_) || connected_ || deny->client != id_) return;
    // Refused at the valve (admission HARD, or the waiting room overflowed):
    // give up.  A real launcher would surface "servers full, retry later";
    // the scenario's measure is simply how many players were turned away.
    ++metrics_.joins_denied;
    playing_ = false;
    queued_ = false;
    ++play_epoch_;
    return;
  }
  if (const auto* defer = std::get_if<JoinDefer>(&message)) {
    if ((!playing_ && !queued_) || connected_ || defer->client != id_) return;
    // Throttled (admission SOFT), or flushed out of a waiting room whose
    // server lost its range: stop acting and retry after the server's
    // hint, jittered so a deferred cohort does not stampede back in phase.
    // A handoff the destination could not adopt defers from the NEW owner;
    // retry wherever the defer came from.
    server_node_ = envelope.src;
    ++metrics_.joins_deferred;
    playing_ = false;
    queued_ = false;
    defer_pending_ = true;
    const std::uint64_t epoch = ++play_epoch_;
    const double jitter = 1.0 + rng_.next_double() * 0.5;
    const auto delay =
        SimTime::from_ms(defer->retry_after.ms() * jitter);
    set_timer(delay, kJoinRetryTimer, epoch);
    return;
  }
}

void BotClient::on_timer(std::uint8_t timer, std::uint64_t epoch) {
  if (timer == kJoinRetryTimer) {
    if (playing_ || play_epoch_ != epoch || !defer_pending_) return;
    join(server_node_, position_);
    return;
  }
  if (!playing_ || play_epoch_ != epoch) return;
  act();
  schedule_next_action();
}

void BotClient::schedule_next_action() {
  const std::uint64_t epoch = play_epoch_;
  // Jittered inter-action gap: exponential with the model's mean, clamped
  // so a bot neither bursts unrealistically nor goes silent.
  const double mean_ms = spec_->action_interval.ms();
  const double gap_ms = std::clamp(rng_.next_exponential(mean_ms),
                                   mean_ms * 0.25, mean_ms * 4.0);
  set_timer(SimTime::from_ms(gap_ms), kActionTimer, epoch);
}

ActionKind BotClient::choose_kind() {
  const double roll = rng_.next_double();
  double acc = spec_->non_proximal_fraction;
  if (roll < acc) return ActionKind::kTeleport;
  acc += spec_->fire_fraction;
  if (roll < acc) return ActionKind::kFire;
  acc += spec_->chat_fraction;
  if (roll < acc) return ActionKind::kChat;
  acc += spec_->interact_fraction;
  if (roll < acc) return ActionKind::kInteract;
  return ActionKind::kMove;
}

void BotClient::move(double dt_sec) {
  // Waypoint wander, with the waypoint pinned near the attraction point
  // when a hotspot is active.
  const double arrive = std::max(2.0, spec_->move_speed * 0.2);
  if (Vec2::distance(position_, waypoint_) < arrive) {
    if (attraction_) {
      waypoint_ = world_.clamp(
          *attraction_ + Vec2{rng_.next_normal() * attraction_spread_,
                              rng_.next_normal() * attraction_spread_});
    } else {
      waypoint_ = {rng_.next_double_in(world_.x0(), world_.x1()),
                   rng_.next_double_in(world_.y0(), world_.y1())};
    }
  }
  const Vec2 direction = (waypoint_ - position_).normalized();
  const double step = std::min(spec_->move_speed * dt_sec,
                               Vec2::distance(position_, waypoint_));
  position_ = world_.clamp(position_ + direction * step);
}

void BotClient::act() {
  const double dt = (now() - last_move_at_).sec();
  last_move_at_ = now();
  move(dt);

  ClientAction action;
  action.client = id_;
  const ActionKind kind = choose_kind();
  action.kind = static_cast<std::uint8_t>(kind);
  action.position = position_;
  action.seq = ack_window_.push(now());
  action.sent_at = now();

  if (kind == ActionKind::kFire) {
    // Aim somewhere within visual range.
    action.target = world_.clamp(
        position_ + Vec2{rng_.next_double_in(-1.0, 1.0),
                         rng_.next_double_in(-1.0, 1.0)} *
                        (spec_->visibility_radius * 0.8));
  } else if (kind == ActionKind::kTeleport) {
    // Non-proximal: anywhere in the world (town portal, map ping, ...).
    action.target = Vec2{rng_.next_double_in(world_.x0(), world_.x1()),
                         rng_.next_double_in(world_.y0(), world_.y1())};
  }

  action.payload.assign(spec_->payload_size(kind), 0);
  send(server_node_, action);
  ++metrics_.actions_sent;
}

}  // namespace matrix
