#include "core/coordinator.h"

#include <algorithm>

#include "util/log.h"

namespace matrix {

namespace {

/// Coordinator → matrix-server McHeartbeat cadence while the failsafe is
/// enabled.
constexpr SimTime kHeartbeatInterval = SimTime::from_sec(1.0);

}  // namespace

void Coordinator::on_message(const Message& message, const Envelope& envelope) {
  if (const auto* reg = std::get_if<ServerRegister>(&message)) {
    register_server(*reg);
  } else if (const auto* unreg = std::get_if<ServerUnregister>(&message)) {
    unregister_server(unreg->server);
  } else if (const auto* lookup = std::get_if<PointLookup>(&message)) {
    ++lookups_;
    PointOwner reply;
    reply.lookup_seq = lookup->lookup_seq;
    if (const PartitionEntry* owner = map_.owner_of(lookup->point)) {
      reply.found = true;
      reply.server = owner->server;
      reply.matrix_node = owner->matrix_node;
      reply.game_node = owner->game_node;
    }
    send(envelope.src, reply);
  } else if (const auto* status = std::get_if<PoolStatus>(&message)) {
    const bool changed = status->idle != pool_status_.idle ||
                         status->total != pool_status_.total;
    pool_status_ = *status;
    if (changed) broadcast_pool_pressure();
    const bool floor_changed =
        global_admission_.observe_pool(now(), status->idle, status->total);
    maybe_broadcast_directives(floor_changed);
  } else if (const auto* digest = std::get_if<LoadDigest>(&message)) {
    GlobalAdmission::ServerDigest d;
    d.load.client_count = digest->client_count;
    d.load.queue_length = digest->queue_length;
    d.load.waiting_count = digest->waiting_count;
    d.state = admission_state_from_wire(digest->admission_state);
    const bool floor_changed =
        global_admission_.observe_server(now(), digest->server, d);
    maybe_broadcast_directives(floor_changed);
  }
}

void Coordinator::send_directive(ServerId server, NodeId matrix_node) {
  AdmissionDirective directive;
  directive.seq = ++directive_seq_;
  directive.floor =
      static_cast<std::uint8_t>(global_admission_.floor());
  directive.active = global_admission_.active();
  directive.token_rate =
      directive.active ? global_admission_.share_for(server) : 0.0;
  send(matrix_node, directive);
  ++directives_broadcast_;
  network()->tracer().record(now(), obs::TraceKind::kDirectiveBroadcast,
                             server.value(), 0,
                             directive.active
                                 ? static_cast<std::int64_t>(directive.floor)
                                 : 0);
}

void Coordinator::maybe_broadcast_directives(bool force) {
  if (!config_.admission.global.enabled) return;
  const bool active = global_admission_.active();
  // A relax to NORMAL still needs one rescinding round so servers drop the
  // stale floor and restore their local token rates.
  const bool rescind = !active && directive_in_force_;
  if (!force && !rescind && !global_admission_.broadcast_due(now())) return;
  for (const auto& entry : map_.entries()) {
    send_directive(entry.server, entry.matrix_node);
  }
  global_admission_.mark_broadcast(now());
  directive_in_force_ = active;
}

void Coordinator::start_heartbeats() {
  broadcast_heartbeat();
  schedule_heartbeat();
}

void Coordinator::broadcast_heartbeat() {
  for (const auto& entry : map_.entries()) {
    send(entry.matrix_node, McHeartbeat{node_id(), generation_,
                                        ++heartbeat_seq_});
    ++heartbeats_broadcast_;
  }
}

void Coordinator::schedule_heartbeat() {
  set_timer(kHeartbeatInterval, /*timer=*/0);
}

void Coordinator::on_timer(std::uint8_t, std::uint64_t) {
  broadcast_heartbeat();
  schedule_heartbeat();
}

void Coordinator::broadcast_pool_pressure() {
  if (pool_status_.total == 0) return;  // nothing heard from the pool yet
  for (const auto& entry : map_.entries()) {
    send(entry.matrix_node, PoolPressure{pool_status_.idle, pool_status_.total});
    ++pool_pressure_broadcasts_;
  }
}

void Coordinator::register_server(const ServerRegister& reg) {
  map_.upsert({reg.server, reg.matrix_node, reg.game_node, reg.range});
  // Radius classes are game-wide: merge every radius the game declares, in
  // declaration order, so radius_class indices stay stable for the game's
  // lifetime (exceptional radii append; they never reorder).
  for (double radius : reg.radii) {
    if (std::find(radii_.begin(), radii_.end(), radius) == radii_.end()) {
      radii_.push_back(radius);
    }
  }
  if (radii_.empty()) radii_.push_back(config_.visibility_radius);
  MATRIX_DEBUG("mc", "register " << reg.server << " range=" << reg.range);
  recompute_and_push();
  // A (re-)registered server also learns the current pool pressure, so a
  // freshly adopted child starts with the deployment-wide signal.
  if (pool_status_.total != 0) {
    send(reg.matrix_node, PoolPressure{pool_status_.idle, pool_status_.total});
    ++pool_pressure_broadcasts_;
  }
  // ...and the directive in force, so a mid-surge child is clamped from
  // its first join rather than after the next broadcast round.
  if (config_.admission.global.enabled && global_admission_.active()) {
    send_directive(reg.server, reg.matrix_node);
  }
  // ...and one immediate heartbeat, so a freshly (re-)registered server's
  // failsafe plane starts from "MC fresh" instead of waiting out the next
  // broadcast tick (control-plane failsafe).
  if (config_.failsafe.enabled) {
    send(reg.matrix_node, McHeartbeat{node_id(), generation_,
                                      ++heartbeat_seq_});
    ++heartbeats_broadcast_;
  }
}

void Coordinator::unregister_server(ServerId server) {
  map_.remove(server);
  MATRIX_DEBUG("mc", "unregister " << server);
  recompute_and_push();
  const bool floor_changed = global_admission_.forget_server(now(), server);
  maybe_broadcast_directives(floor_changed);
}

std::vector<OverlapTableMsg> Coordinator::compute_all_tables() const {
  std::vector<OverlapTableMsg> tables;
  for (const auto& entry : map_.entries()) {
    for (std::size_t rc = 0; rc < radii_.size(); ++rc) {
      OverlapTableMsg table;
      table.server = entry.server;
      table.partition = entry.range;
      table.radius_class = static_cast<std::uint8_t>(rc);
      table.radius = radii_[rc];
      table.version = version_;
      table.regions =
          build_overlap_regions(map_, entry.server, radii_[rc], config_.metric);
      tables.push_back(std::move(table));
    }
  }
  return tables;
}

void Coordinator::recompute_and_push() {
  ++version_;
  ++recomputes_;
  for (auto& table : compute_all_tables()) {
    const PartitionEntry* entry = map_.find(table.server);
    if (entry == nullptr) continue;
    table.version = version_;
    const NodeId dst = entry->matrix_node;
    ++tables_pushed_;
    table_bytes_pushed_ += send(dst, std::move(table));
  }
}

}  // namespace matrix
