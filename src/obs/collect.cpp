#include "obs/collect.h"

#include "obs/trace.h"
#include "sim/deployment.h"
#include "sim/metrics.h"

namespace matrix::obs {

Registry collect_registry(Deployment& deployment) {
  Registry registry;
  Network& net = deployment.network();

  // ---- engine ---------------------------------------------------------------
  const Network::EngineStats engine = net.engine_stats();
  registry.counter("engine.events_processed", engine.events_processed);
  registry.gauge("engine.event_peak_pending",
                 static_cast<double>(engine.event_peak_pending));
  registry.counter("engine.buffers_acquired", engine.buffers_acquired);
  registry.counter("engine.buffers_reused", engine.buffers_reused);
  registry.gauge("engine.buffers_idle",
                 static_cast<double>(engine.buffers_idle));
  registry.counter("engine.window_stall_us", engine.window_stall_us, "us");
  registry.counter("engine.window_imbalance_us", engine.window_imbalance_us,
                   "us");
  registry.gauge("engine.mem.node_table_bytes",
                 static_cast<double>(engine.node_table_bytes), "bytes");
  registry.gauge("engine.mem.link_table_bytes",
                 static_cast<double>(engine.link_table_bytes), "bytes");
  registry.gauge("engine.mem.receive_slab_bytes",
                 static_cast<double>(engine.receive_slab_bytes), "bytes");
  registry.gauge("engine.mem.inflight_envelope_bytes",
                 static_cast<double>(engine.inflight_envelope_bytes), "bytes");
  registry.gauge("engine.mem.event_slab_bytes",
                 static_cast<double>(engine.event_slab_bytes), "bytes");
  registry.gauge("engine.mem.sched_tier_bytes",
                 static_cast<double>(engine.sched_tier_bytes), "bytes");
  registry.gauge("engine.mem.buffer_pool_idle_bytes",
                 static_cast<double>(engine.buffer_pool_idle_bytes), "bytes");
  registry.gauge("engine.mem.payload_inflight_bytes",
                 static_cast<double>(engine.payload_inflight_bytes), "bytes");
  for (std::size_t i = 0; i < engine.shard_events.size(); ++i) {
    registry.counter("engine.shard." + std::to_string(i) + ".events",
                     engine.shard_events[i]);
  }

  // ---- network --------------------------------------------------------------
  registry.counter("net.messages", net.total_messages(), "msgs");
  registry.counter("net.bytes", net.total_bytes(), "bytes");
  registry.counter("net.dropped", net.total_dropped(), "msgs");
  const TrafficBreakdown traffic = collect_traffic(deployment);
  registry.counter("net.bytes.client_server", traffic.client_to_server,
                   "bytes");
  registry.counter("net.bytes.game_matrix", traffic.game_to_matrix, "bytes");
  registry.counter("net.bytes.matrix_matrix", traffic.matrix_to_matrix,
                   "bytes");
  registry.counter("net.bytes.matrix_mc", traffic.matrix_to_mc, "bytes");

  // ---- topology (Matrix control plane) --------------------------------------
  std::uint64_t splits_initiated = 0, splits_completed = 0;
  std::uint64_t proactive_splits = 0, split_denied = 0;
  std::uint64_t reclaims_initiated = 0, reclaims_completed = 0;
  std::uint64_t split_latency_us = 0, reclaim_latency_us = 0;
  std::uint64_t fanout = 0, nonproximal = 0, table_updates = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    const MatrixServer::Stats& s = server->stats();
    splits_initiated += s.splits_initiated;
    splits_completed += s.splits_completed;
    proactive_splits += s.proactive_splits;
    split_denied += s.split_denied_no_server;
    reclaims_initiated += s.reclaims_initiated;
    reclaims_completed += s.reclaims_completed;
    split_latency_us += s.split_latency_us_sum;
    reclaim_latency_us += s.reclaim_latency_us_sum;
    fanout += s.packets_fanned_out;
    nonproximal += s.nonproximal_lookups;
    table_updates += s.table_updates;
  }
  registry.counter("topology.splits_initiated", splits_initiated);
  registry.counter("topology.splits_completed", splits_completed);
  registry.counter("topology.proactive_splits", proactive_splits);
  registry.counter("topology.splits_denied", split_denied);
  registry.counter("topology.reclaims_initiated", reclaims_initiated);
  registry.counter("topology.reclaims_completed", reclaims_completed);
  registry.gauge("topology.split_latency_mean_ms",
                 splits_completed == 0
                     ? 0.0
                     : static_cast<double>(split_latency_us) / 1000.0 /
                           static_cast<double>(splits_completed),
                 "ms");
  registry.gauge("topology.reclaim_latency_mean_ms",
                 reclaims_completed == 0
                     ? 0.0
                     : static_cast<double>(reclaim_latency_us) / 1000.0 /
                           static_cast<double>(reclaims_completed),
                 "ms");
  registry.counter("topology.packets_fanned_out", fanout, "msgs");
  registry.counter("topology.nonproximal_lookups", nonproximal);
  registry.counter("topology.table_updates", table_updates);
  registry.gauge("topology.active_servers",
                 static_cast<double>(deployment.active_server_count()));

  // ---- strays and parked MC point lookups (summed over Matrix servers) ------
  std::uint64_t strays = 0, lookups_expired = 0, late_lookup_replies = 0;
  std::uint64_t lookups_peak = 0, lookup_bytes = 0, lookup_peak_bytes = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    const MatrixServer::Stats& s = server->stats();
    strays += s.origin_outside_range;
    lookups_expired += s.lookups_expired;
    late_lookup_replies += s.late_lookup_replies;
    lookups_peak += s.pending_lookups_peak;
    lookup_bytes += server->parked_lookup_bytes();
    lookup_peak_bytes += server->parked_lookup_peak_bytes();
  }
  registry.counter("core.route.strays", strays, "packets");
  registry.counter("core.route.lookups_expired", lookups_expired);
  registry.counter("core.route.late_lookup_replies", late_lookup_replies);
  registry.gauge("core.route.pending_lookups_peak",
                 static_cast<double>(lookups_peak));
  registry.gauge("core.mem.pending_lookup_bytes",
                 static_cast<double>(lookup_bytes), "bytes");
  registry.gauge("core.mem.pending_lookup_peak_bytes",
                 static_cast<double>(lookup_peak_bytes), "bytes");

  // ---- resource pool --------------------------------------------------------
  const ResourcePool& pool = deployment.pool();
  registry.counter("pool.grants", pool.grants());
  registry.counter("pool.denies", pool.denies());
  registry.counter("pool.releases", pool.releases());
  registry.counter("pool.arbitrated_requests", pool.arbitrated_requests());
  registry.counter("pool.contested_rounds", pool.contested_rounds());
  registry.gauge("pool.idle", static_cast<double>(pool.idle_count()));
  registry.gauge("pool.total", static_cast<double>(pool.total_count()));

  // ---- admission ------------------------------------------------------------
  const AdmissionSummary admission = collect_admission(deployment);
  registry.counter("admission.joins_denied", admission.joins_denied);
  registry.counter("admission.joins_deferred", admission.joins_deferred);
  registry.counter("admission.resumes_admitted", admission.resumes_admitted);
  registry.counter("admission.transitions", admission.transitions);
  registry.counter("admission.escalations", admission.escalations);
  registry.counter("admission.relaxations", admission.relaxations);
  registry.gauge("admission.timelines_valid",
                 admission.timelines_valid ? 1.0 : 0.0);
  registry.counter("admission.queue.parked", admission.joins_queued);
  registry.counter("admission.queue.admitted", admission.queue_admitted);
  registry.counter("admission.queue.overflow", admission.queue_overflow);
  registry.counter("admission.queue.flushed", admission.queue_flushed);
  registry.counter("admission.queue.handed_off", admission.queue_handed_off);
  registry.counter("admission.queue.adopted", admission.queue_adopted);
  registry.gauge("admission.queue.max_depth",
                 static_cast<double>(admission.max_queue_depth));
  registry.counter("admission.directives_broadcast",
                   admission.directives_broadcast);
  registry.counter("admission.directives_applied",
                   admission.directives_applied);

  // ---- clients --------------------------------------------------------------
  std::uint64_t hellos = 0, actions = 0, redirected = 0, migrated = 0;
  for (const GameServer* server : deployment.game_servers()) {
    const GameServer::Stats& s = server->stats();
    hellos += s.hellos;
    actions += s.actions;
    redirected += s.clients_redirected;
    migrated += s.clients_migrated;
  }
  registry.gauge("clients.connected",
                 static_cast<double>(deployment.total_clients()));
  registry.counter("clients.hellos", hellos);
  registry.counter("clients.actions", actions);
  registry.counter("clients.redirected", redirected);
  registry.counter("clients.migrated", migrated);

  // ---- game-side memory -----------------------------------------------------
  const GameMemory memory = collect_game_memory(deployment);
  registry.gauge("game.mem.bot_bytes", static_cast<double>(memory.bot_bytes),
                 "bytes");
  registry.gauge("game.mem.session_bytes",
                 static_cast<double>(memory.session_bytes), "bytes");
  registry.gauge("game.mem.ghost_bytes",
                 static_cast<double>(memory.ghost_bytes), "bytes");
  registry.gauge("game.mem.grid_bytes", static_cast<double>(memory.grid_bytes),
                 "bytes");

  // ---- bot-side latency -----------------------------------------------------
  const LatencySummary latency = collect_latency(deployment);
  registry.counter("latency.self.count", latency.self_ms.count());
  registry.gauge("latency.self.mean_ms", latency.self_ms.mean(), "ms");
  registry.gauge("latency.self.p99_ms", latency.self_ms.percentile(99.0),
                 "ms");
  registry.counter("latency.switch.count", latency.switch_ms.count());
  registry.gauge("latency.switch.mean_ms", latency.switch_ms.mean(), "ms");
  registry.gauge("latency.switch.p99_ms", latency.switch_ms.percentile(99.0),
                 "ms");

  // ---- trace spans (when the tracer ran) ------------------------------------
  const Tracer& tracer = net.tracer();
  if (tracer.enabled()) {
    registry.counter("trace.events_recorded", tracer.events_recorded());
    registry.counter("trace.span_drops", tracer.span_drops());
    for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount);
         ++k) {
      const auto kind = static_cast<SpanKind>(k);
      registry.histogram(std::string("trace.spans.") + span_kind_name(kind),
                         tracer.histogram(kind));
      registry.gauge(std::string("trace.spans.") + span_kind_name(kind) +
                         ".open",
                     static_cast<double>(tracer.open_span_count(kind)));
    }
  }

  return registry;
}

}  // namespace matrix::obs
