// Matrix Coordinator (MC), paper §3.2.4.
//
// Keeps the global partition map, recomputes every server's overlap table
// whenever the topology changes (a server registers, re-registers with a new
// range, or unregisters), and pushes the tables to the affected Matrix
// servers.  It also answers point-ownership lookups for the rare
// non-proximal interactions.  The MC is deliberately OFF the per-packet
// routing path — the paper's argument for why a central coordinator scales.
//
// For the admission subsystem (src/control/) the MC additionally relays the
// resource pool's occupancy: each PoolStatus from the pool is rebroadcast
// as PoolPressure to every registered Matrix server (and pushed to servers
// as they register), giving the per-server admission controllers the
// deployment-wide "can a split still be granted?" signal.
//
// With Config::admission.global.enabled the MC also runs coordinator-led
// global admission (src/control/global_admission.h): every LoadDigest and
// PoolStatus feeds a deployment-wide pressure score, and the resulting
// floor state + per-server token-budget shares are broadcast to every
// registered Matrix server as personalized AdmissionDirective messages —
// immediately on a floor change, on the directive_interval cadence for
// share drift, and to each server as it (re-)registers.
#pragma once

#include <cstdint>
#include <vector>

#include "control/global_admission.h"
#include "core/config.h"
#include "core/overlap.h"
#include "core/partition.h"
#include "core/protocol_node.h"

namespace matrix {

class Coordinator : public ProtocolNode {
 public:
  explicit Coordinator(Config config)
      : config_(std::move(config)),
        global_admission_(config_.admission.global,
                          config_.overload_clients) {}

  [[nodiscard]] std::string name() const override { return "mc"; }

  [[nodiscard]] const PartitionMap& partition_map() const { return map_; }
  [[nodiscard]] const std::vector<double>& radii() const { return radii_; }

  // ---- instrumentation (T-micro-coord) ------------------------------------
  [[nodiscard]] std::uint64_t recompute_count() const { return recomputes_; }
  [[nodiscard]] std::uint64_t tables_pushed() const { return tables_pushed_; }
  [[nodiscard]] std::uint64_t table_bytes_pushed() const {
    return table_bytes_pushed_;
  }
  [[nodiscard]] std::uint64_t lookups_served() const { return lookups_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::uint64_t pool_pressure_broadcasts() const {
    return pool_pressure_broadcasts_;
  }
  /// The global admission aggregate (src/control/global_admission.h);
  /// inert unless Config::admission.global.enabled.
  [[nodiscard]] const GlobalAdmission& global_admission() const {
    return global_admission_;
  }
  [[nodiscard]] std::uint64_t directives_broadcast() const {
    return directives_broadcast_;
  }
  [[nodiscard]] std::uint64_t heartbeats_broadcast() const {
    return heartbeats_broadcast_;
  }

  // ---- control-plane failsafe (src/control/control_plane.h) ----------------
  /// MC incarnation this coordinator announces and heartbeats under.  Set
  /// by the Deployment before attach; same counter as McAnnounce.generation.
  void set_generation(std::uint64_t generation) { generation_ = generation; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Starts the periodic McHeartbeat broadcast (only called when
  /// Config::failsafe.enabled).  The loop stops itself once this
  /// coordinator is detached from the network (killed or failed over) —
  /// a dead MC must fall silent, that silence IS the failure signal.
  void start_heartbeats();

  /// Builds (but does not send) all tables — exposed for the coordinator
  /// microbenchmark, which measures pure recompute cost vs. server count.
  [[nodiscard]] std::vector<OverlapTableMsg> compute_all_tables() const;

 protected:
  void on_message(const Message& message, const Envelope& envelope) override;
  /// The heartbeat timer (the coordinator's only one).  It stops when the
  /// coordinator is detached: the network drops a detached node's timers.
  void on_timer(std::uint8_t timer, std::uint64_t arg) override;

 private:
  void register_server(const ServerRegister& reg);
  void unregister_server(ServerId server);
  void recompute_and_push();
  void broadcast_pool_pressure();
  /// Broadcasts a personalized AdmissionDirective to every registered
  /// server when one is due (`force` after a floor change / rescind).
  void maybe_broadcast_directives(bool force);
  void send_directive(ServerId server, NodeId matrix_node);
  void broadcast_heartbeat();
  void schedule_heartbeat();

  Config config_;
  PartitionMap map_;
  std::vector<double> radii_;  ///< radius classes; index = radius_class
  std::uint64_t version_ = 0;
  std::uint64_t recomputes_ = 0;
  std::uint64_t tables_pushed_ = 0;
  std::uint64_t table_bytes_pushed_ = 0;
  std::uint64_t lookups_ = 0;
  /// Latest pool occupancy heard from the resource pool; total 0 ⇒ unknown.
  PoolStatus pool_status_;
  std::uint64_t pool_pressure_broadcasts_ = 0;

  // Coordinator-led global admission (src/control/global_admission.h).
  GlobalAdmission global_admission_;
  std::uint64_t directive_seq_ = 0;
  std::uint64_t directives_broadcast_ = 0;
  /// True while the last broadcast round carried an active directive —
  /// lets a relax-to-NORMAL send one final rescinding round.
  bool directive_in_force_ = false;

  // Control-plane failsafe (src/control/control_plane.h).
  std::uint64_t generation_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t heartbeats_broadcast_ = 0;
};

}  // namespace matrix
