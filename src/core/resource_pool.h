// Resource pool — the paper's "non-Matrix external entity" (§3.2.3) that a
// Matrix server consults for an available spare server when it decides to
// split.  Grants are (Matrix-server node, game-server node) pairs; reclaimed
// servers are released back and can be granted again.
//
// For the admission subsystem (src/control/) the pool additionally reports
// its occupancy to the Matrix Coordinator whenever it changes; the MC
// rebroadcasts the resulting pool-pressure signal to every Matrix server so
// servers nearing overload can pre-emptively throttle joins when no spare
// capacity remains.
//
// Grant arbitration follows the load rules (policy/load_rules.h): a
// PoolAcquire with need == 0 (the classic rules, or no coordinator
// directive in force) is answered the instant it arrives — strict FCFS, the
// historical behavior.  Under the directive rules a positive need asks the
// pool to HOLD the request for policy.grant_window, collect competing
// requesters, and hand the contested spares to the highest need first (the
// partition the global-admission pressure score says is most starved),
// denying the rest.
#pragma once

#include <deque>
#include <vector>

#include "core/protocol_node.h"
#include "policy/load_rules.h"

namespace matrix {

class ResourcePool : public ProtocolNode {
 public:
  struct Entry {
    ServerId server;
    NodeId matrix_node;
    NodeId game_node;
  };

  [[nodiscard]] std::string name() const override { return "pool"; }

  /// Installs the deployment's config, whose policy.kind and grant_window
  /// steer arbitration.  Optional: an unconfigured pool keeps a default
  /// Config, and answers need-0 requests at once either way.
  void configure(const Config& config) { config_ = config; }

  /// Points occupancy reports at the MC.  Optional: an unwired pool (unit
  /// harnesses, the static baseline) simply never reports.
  void wire(NodeId mc_node) {
    mc_node_ = mc_node;
    push_status();
  }

  /// Seeds the pool with a spare server pair (deployment-time).
  void add_entry(const Entry& entry) {
    idle_.push_back(entry);
    ++total_;
    push_status();
  }

  [[nodiscard]] std::size_t idle_count() const { return idle_.size(); }
  [[nodiscard]] std::size_t total_count() const { return total_; }
  [[nodiscard]] std::uint64_t grants() const { return grants_; }
  [[nodiscard]] std::uint64_t denies() const { return denies_; }
  [[nodiscard]] std::uint64_t releases() const { return releases_; }
  /// Requests that went through a held-window arbitration round.
  [[nodiscard]] std::uint64_t arbitrated_requests() const {
    return arbitrated_requests_;
  }
  /// Arbitration rounds where demand exceeded the idle supply (somebody
  /// need-weighted actually displaced somebody else).
  [[nodiscard]] std::uint64_t contested_rounds() const {
    return contested_rounds_;
  }

 protected:
  void on_message(const Message& message, const Envelope& envelope) override {
    if (const auto* acquire = std::get_if<PoolAcquire>(&message)) {
      PoolRequest request;
      request.requester = acquire->requester;
      request.reply_to = envelope.src;
      request.need = acquire->need;
      request.arrival = ++arrival_counter_;
      const SimTime hold = grant_hold(config_, request);
      if (hold.us() <= 0) {
        answer_now(request);
        return;
      }
      pending_.push_back(request);
      if (!arbitration_scheduled_) {
        arbitration_scheduled_ = true;
        set_timer(hold, /*timer=*/0);
      }
    } else if (const auto* release = std::get_if<PoolRelease>(&message)) {
      ++releases_;
      idle_.push_back(
          {release->server, release->matrix_node, release->game_node});
      push_status();
    }
  }

  /// The arbitration timer (the pool's only one).
  void on_timer(std::uint8_t, std::uint64_t) override { close_window(); }

 private:
  /// The immediate (classic / need-0) path: grant the oldest idle spare or
  /// deny on the spot.
  void answer_now(const PoolRequest& request) {
    if (idle_.empty()) {
      ++denies_;
      send(request.reply_to, PoolDeny{});
      return;
    }
    const Entry entry = idle_.front();
    idle_.pop_front();
    ++grants_;
    send(request.reply_to,
         PoolGrant{entry.server, entry.matrix_node, entry.game_node});
    push_status();
  }

  /// Window close: the load rules order the held requests; grants walk that
  /// order until the idle list runs dry, everyone else is denied.
  void close_window() {
    arbitration_scheduled_ = false;
    std::vector<PoolRequest> requests;
    requests.swap(pending_);
    if (requests.empty()) return;
    arbitrated_requests_ += requests.size();
    // Contested = actual competitors for too few spares; a solo request
    // against a dry pool is just a deny, not an arbitration outcome.
    if (requests.size() > 1 && requests.size() > idle_.size()) {
      ++contested_rounds_;
    }
    const std::vector<std::size_t> order = arbitrate(config_, requests);
    if (!order.empty()) {
      const PoolRequest& winner = requests[order.front()];
      network()->tracer().record(
          now(), obs::TraceKind::kPoolArbitrated, winner.requester.value(), 0,
          static_cast<std::int64_t>(requests.size()), winner.need);
    }
    for (std::size_t index : order) {
      answer_now(requests[index]);
    }
  }

  void push_status() {
    if (!mc_node_.valid() || network() == nullptr) return;
    send(mc_node_, PoolStatus{static_cast<std::uint32_t>(idle_.size()),
                              static_cast<std::uint32_t>(total_)});
  }

  std::deque<Entry> idle_;
  std::size_t total_ = 0;
  NodeId mc_node_;
  Config config_;
  std::vector<PoolRequest> pending_;
  bool arbitration_scheduled_ = false;
  std::uint64_t arrival_counter_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t denies_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t arbitrated_requests_ = 0;
  std::uint64_t contested_rounds_ = 0;
};

}  // namespace matrix
