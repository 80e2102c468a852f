// Simulated network.
//
// Stands in for the paper's LAN/WAN testbed (docs/ARCHITECTURE.md, "Reproduction
// substitutions").  Model:
//
//   * Links are contention-free pipes: delivery time = propagation latency +
//     wire_size / bandwidth.  Per-pair overrides allow "WAN" client links and
//     "LAN" server-to-server links in the same run.
//   * Each node has a FIFO receive queue and finite service capacity
//     (per-message + per-byte service time).  Overload therefore shows up as
//     receive-queue growth — exactly the observable in the paper's Fig. 2b.
//   * Optional per-link drop probability supports fault-injection tests.
//
// Everything is driven by per-shard EventQueues; the network never uses wall
// time inside a run, so runs are bit-deterministic for a given seed and shard
// count.
//
// Hot-path layout (docs/ARCHITECTURE.md, "Engine internals"): NodeIds are
// dense (monotonic from 1), so the node table is a flat vector indexed by id
// and every per-send lookup is O(1).  Per-pair link state (traffic counters
// plus the index of a config override, if any) lives in append-ordered
// record stores reached through per-source hashed link tables
// (net/link_table.h).  Receive queues are intrusive FIFOs threaded through
// one slab per shard, and messages on the wire are parked in a second one
// (net/envelope_slab.h); each pending delivery, service completion and node
// timer is a 16-byte typed event record carried inside its scheduler entry
// (net/event_queue.h).  Message
// payload storage is recycled through per-shard BufferPools once the
// receiving handler returns; only a frame's head is stored, its zero tail
// travels as a count (net/message.h).
//
// Parallel engine (docs/ARCHITECTURE.md, "Parallel engine"): nodes are
// partitioned into K shards, each owning an EventQueue + BufferPool + RNG
// stream + trace buffer + link-record store.  Shards synchronize with
// conservative lookahead windows: every shard runs freely up to the window
// horizon W (derived from the minimum cross-shard link latency), cross-shard
// sends land in per-(src,dst)-shard mailboxes, and mailboxes are merged at
// the barrier in deterministic (deliver time, src shard, send order) order.
// K=1 is the serial engine, byte-identical to the pre-sharding golden
// traces; any fixed K is run-to-run deterministic, threaded or not.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/event_queue.h"
#include "net/link_table.h"
#include "net/message.h"
#include "net/envelope_slab.h"
#include "obs/trace.h"
#include "util/buffer_pool.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace matrix {

class Network;

/// A process attached to the network.  Subclasses (Matrix server, game
/// server, coordinator, bot client) implement handle_message; it is invoked
/// when the node's service capacity reaches the message, not at raw arrival.
class Node {
 public:
  virtual ~Node() = default;

  [[nodiscard]] NodeId node_id() const { return node_id_; }
  [[nodiscard]] Network* network() const { return network_; }

  /// Human-readable name for logs and metrics ("matrix-3", "client-217").
  [[nodiscard]] virtual std::string name() const = 0;

  virtual void handle_message(const Envelope& envelope) = 0;

 protected:
  /// Arms timer `timer` to fire on_timer(timer, arg) `delay` from now, on
  /// the queue of the shard that owns this node (Network::schedule_timer).
  void set_timer(SimTime delay, std::uint8_t timer, std::uint64_t arg = 0);

  /// Fires a timer armed with set_timer: `timer` is the subclass's own
  /// timer id, `arg` the word it armed it with (typically an epoch that
  /// lets a stale timer recognise itself).  A detached node's timers are
  /// discarded.
  virtual void on_timer(std::uint8_t timer, std::uint64_t arg) {
    (void)timer;
    (void)arg;
  }

 private:
  friend class Network;
  NodeId node_id_;
  Network* network_ = nullptr;
};

/// Propagation/bandwidth/drop parameters for one directed link.
struct LinkConfig {
  SimTime latency = SimTime::from_us(500);      // one-way propagation
  double bandwidth_bytes_per_sec = 125e6;       // 1 Gbps default
  double drop_probability = 0.0;

  [[nodiscard]] SimTime transfer_delay(std::size_t wire_bytes) const {
    if (bandwidth_bytes_per_sec <= 0.0) return SimTime{};
    const double sec = static_cast<double>(wire_bytes) / bandwidth_bytes_per_sec;
    return SimTime::from_sec(sec);
  }

  bool operator==(const LinkConfig&) const = default;
};

/// Service capacity of one node; overload manifests as queue growth.
struct NodeConfig {
  SimTime service_per_message = SimTime::from_us(15);
  SimTime service_per_kb = SimTime::from_us(2);
  /// Receive queue capacity; std::nullopt = unbounded.  Bounded queues drop
  /// the newest message (tail drop) — used by the static-partitioning
  /// baseline to show what "the server just fails" looks like.
  std::optional<std::size_t> queue_capacity;

  [[nodiscard]] SimTime service_time(std::size_t wire_bytes) const {
    const auto kb = static_cast<std::int64_t>(wire_bytes) ;
    return service_per_message +
           SimTime::from_us(service_per_kb.us() * kb / 1024);
  }
};

/// Traffic counters for one directed node pair.
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped_messages = 0;
};

/// Process-level default for EngineConfig::threads: reads the
/// MATRIX_SHARD_THREADS environment variable once ("0"/"off"/"false" forces
/// sequential shard windows, "1"/"on"/"true" forces worker threads, unset
/// keeps `config_default`).  Same pattern as MATRIX_LOAD_POLICY.
[[nodiscard]] bool resolve_shard_threads(bool config_default);

/// Process-level default for EngineConfig::ladder_scheduler: reads the
/// MATRIX_EVENT_SCHEDULER environment variable once ("heap"/"0"/"off"
/// forces the reference 4-ary heap, "ladder"/"1"/"on" forces the calendar
/// queue, unset keeps `config_default`).  Pop order is identical either way
/// — the knob exists for A/B benchmarking and as a fallback.
[[nodiscard]] bool resolve_ladder_scheduler(bool config_default);

class Network : private EventQueue::Target {
 public:
  /// Defined in network.cpp: construction also registers this network as
  /// the Logger's sim-time clock (util/log.h) so log lines carry sim time.
  explicit Network(std::uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- sharding -----------------------------------------------------------

  /// Partitions the engine into `count` shards (clamped to ≥1).  Must be
  /// called before any node is attached or event scheduled; Deployment does
  /// so from Config::engine.  With one shard (the default) the engine is
  /// serial and byte-identical to the historical behavior.  `use_threads`
  /// runs shard 0's windows on the calling thread and shards 1..K−1's on
  /// persistent worker threads; results are identical either way (the
  /// determinism contract), threads only buy wall-clock.
  void configure_shards(std::size_t count, bool use_threads = true);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool sharded() const { return shards_.size() > 1; }
  /// Owning shard of `id` (0 for unknown ids): fixed at attach, never
  /// changes.
  [[nodiscard]] std::size_t shard_of(NodeId id) const {
    const NodeState* state = find_state(id);
    return state != nullptr ? state->shard : 0;
  }
  /// Conservative lookahead: min latency over the default link and every
  /// cross-shard override, floored at 1µs.  Shards are fixed at attach, so
  /// set_link folds each cross-shard override once, and no pair can start
  /// crossing shards later.
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  /// Selects the event-queue priority structure (ladder calendar queue vs
  /// the reference 4-ary heap) for every shard queue and the control queue.
  /// Pop order — and every golden hash — is identical for both.  Only
  /// callable while no event is pending; Deployment calls it right after
  /// configure_shards from Config::engine.ladder_scheduler.
  void set_scheduler(EventQueue::Scheduler scheduler);

  // ---- topology -----------------------------------------------------------

  /// Attaches `node` (not owned) to `shard` and assigns it a NodeId.  The
  /// shard index is clamped; with one shard the argument is irrelevant.
  NodeId attach(Node* node, NodeConfig config = {}, std::size_t shard = 0);

  /// Detaches a node: undelivered messages to it are dropped.  Used when a
  /// reclaimed server is returned to the resource pool.  Control-context
  /// only (never from inside a sharded window on a foreign shard).
  void detach(NodeId id);

  [[nodiscard]] bool attached(NodeId id) const {
    const NodeState* state = find_state(id);
    return state != nullptr && state->node != nullptr;
  }

  void set_default_link(LinkConfig config);
  void set_link(NodeId src, NodeId dst, LinkConfig config);
  /// Convenience: sets both directions.
  void set_link_bidirectional(NodeId a, NodeId b, LinkConfig config) {
    set_link(a, b, config);
    set_link(b, a, config);
  }

  [[nodiscard]] const LinkConfig& link(NodeId src, NodeId dst) const {
    const LinkRecord* record = find_link_record(src, dst);
    return record != nullptr ? config_of(*record) : default_link_;
  }

  // ---- data plane ---------------------------------------------------------

  /// Sends the frame `payload` followed by `zero_tail` zero bytes (stored
  /// as a count, see net/message.h) from `src` to `dst`.  Returns the wire
  /// size charged.  Messages to detached nodes are counted as drops.
  std::size_t send(NodeId src, NodeId dst, std::vector<std::uint8_t> payload,
                   std::size_t zero_tail = 0);

  /// Rents a recycled payload buffer (capacity intact, contents cleared) for
  /// encoding the next outgoing message; the network reclaims the storage
  /// after the receiving handler runs.  See util/buffer_pool.h.
  [[nodiscard]] std::vector<std::uint8_t> rent_buffer() {
    return current_shard().pool.acquire();
  }
  /// Hands back a rented buffer that will not be sent.
  void return_buffer(std::vector<std::uint8_t>&& buffer) {
    current_shard().pool.release(std::move(buffer));
  }

  // ---- time ---------------------------------------------------------------

  /// The event queue of the CURRENT execution context: the running shard's
  /// queue inside a window (thread-local routing — a node's self-scheduled
  /// ticks land on its own shard), the main-thread control queue between
  /// windows when sharded, and the one serial queue otherwise.  Scenario
  /// drivers and metrics samplers scheduling from outside a window therefore
  /// run on the main thread at window barriers, where topology mutation
  /// (attach/detach) is safe.
  [[nodiscard]] EventQueue& events() {
    if (tls_shard_ != nullptr) return tls_shard_->events;
    return sharded() ? control_queue_ : shards_.front()->events;
  }

  /// Arms node `id`'s timer `timer`: on_timer(timer, arg) runs `delay`
  /// from now.  The timer record goes on the queue OWNED by the node, where
  /// its periodic self-ticks belong regardless of which context first arms
  /// them.  A timer armed via events() from control context (Deployment
  /// bring-up, a scenario action calling join()) would land on the control
  /// queue and stay there through every re-arm, capping each conservative
  /// window at the next timer and serializing per-node work onto the main
  /// thread.  Only safe for a node scheduling for ITSELF (handlers run on
  /// the owning shard's thread) or from control context at a barrier
  /// (workers parked).
  void schedule_timer(NodeId id, SimTime delay, std::uint8_t timer,
                      std::uint64_t arg) {
    EventQueue& queue = shards_[shard_of(id)]->events;
    queue.schedule_record(queue.now() + delay,
                          EventQueue::Record::timer_tick(id, timer, arg));
  }

  [[nodiscard]] SimTime now() const {
    if (tls_shard_ != nullptr) return tls_shard_->events.now();
    return sharded() ? global_now_ : shards_.front()->events.now();
  }

  /// Advances the simulation to `t`.  Serial (one shard): runs the queue
  /// directly.  Sharded: the conservative barrier loop — pick the horizon
  /// W = min(t, next control event, earliest pending work + lookahead), run
  /// every shard's window to W (exclusive; inclusive on the final step so
  /// events AT `t` run, matching the serial engine), merge the cross-shard
  /// mailboxes deterministically, replay deferred trace ops, then run
  /// main-thread control events due at W.
  void run_until(SimTime t);

  // ---- instrumentation ----------------------------------------------------

  [[nodiscard]] std::size_t queue_length(NodeId id) const;
  /// Counters for one directed pair.  The reference is invalidated by the
  /// next send between a previously-unseen pair (the record store may grow).
  /// Sharded runs: cross-shard tail drops are aggregated per shard (see
  /// EngineStats::cross_tail_drops), not attributed to the pair.
  [[nodiscard]] const LinkStats& stats(NodeId src, NodeId dst) const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_dropped() const;

  /// Sum of bytes on links whose (src,dst) both satisfy `pred`.  Lets the
  /// bandwidth bench split traffic into client↔server vs server↔server etc.
  [[nodiscard]] std::uint64_t bytes_matching(
      const std::function<bool(NodeId, NodeId)>& pred) const;

  /// Engine hot-path counters (surfaced by the --json bench reports).
  struct EngineStats {
    std::uint64_t events_processed = 0;   ///< EventQueue events executed
    std::size_t event_peak_pending = 0;   ///< peak event-heap depth (max shard)
    std::uint64_t buffers_acquired = 0;   ///< payload buffers rented
    std::uint64_t buffers_reused = 0;     ///< rentals served from the freelist
    std::size_t buffers_idle = 0;         ///< freelist depth right now
    std::uint64_t cross_shard_messages = 0;  ///< sends merged through mailboxes
    std::uint64_t windows = 0;            ///< barrier windows executed
    /// Wall-clock µs shards spent at window barriers not running their own
    /// window: dispatch wall time × K − Σ shard active time (threaded runs
    /// only; 0 sequential).  Imbalance plus handoff.
    std::uint64_t window_stall_us = 0;
    /// The imbalance part of window_stall_us: Σ over windows of
    /// (K × slowest shard's active time − Σ shard active times), what the
    /// barrier would cost with a free handoff (threaded runs only).
    /// window_stall_us − window_imbalance_us is the handoff itself.
    std::uint64_t window_imbalance_us = 0;
    std::vector<std::uint64_t> shard_events;  ///< per-shard events executed
    /// Memory, in bytes of allocated capacity — a pure function of seed,
    /// Config and shard count.
    std::size_t node_table_bytes = 0;    ///< the dense NodeState table
    std::size_t link_table_bytes = 0;    ///< link tables, records, configs
    std::size_t receive_slab_bytes = 0;  ///< receive-queue slots, all shards
    std::size_t event_slab_bytes = 0;    ///< event records + cold closures
    std::size_t sched_tier_bytes = 0;    ///< scheduler heap/bucket entries
    std::size_t buffer_pool_idle_bytes = 0;  ///< pooled idle payload buffers
    /// In-flight envelope slots: messages on the wire, parked for their
    /// delivery events, all shards.
    std::size_t inflight_envelope_bytes = 0;
    /// Stored payload heads (allocated capacity; zero tails cost nothing)
    /// of messages sent but not yet handled or dropped: in delivery events,
    /// mailboxes and receive queues.
    std::size_t payload_inflight_bytes = 0;
  };
  [[nodiscard]] EngineStats engine_stats() const;

  /// Golden-trace hashing (tests/determinism_test.cpp): chains an FNV-1a
  /// hash over every send (time, src, dst, drop flag, frame length, frame
  /// bytes — zero tail included), one chain per SENDING shard so a fixed
  /// K>1 pins K stable hashes.
  void enable_trace_hash() { trace_hash_on_ = true; }
  /// Serial / K=1: the historical golden hash.  K>1: an FNV-1a fold of the
  /// per-shard hashes (order-stable; see shard_trace_hashes()).
  [[nodiscard]] std::uint64_t trace_hash() const;
  [[nodiscard]] std::vector<std::uint64_t> shard_trace_hashes() const;

  /// Structured tracing + flight recorder (src/obs/trace.h).  Disabled by
  /// default; Deployment enables it from Config::obs via enable_tracing().
  /// Inside a sharded window this returns the running shard's DEFERRED
  /// tracer (ops replayed into the master at each barrier); everywhere else
  /// — serial runs, control context, post-run inspection — the master.  The
  /// master reference is stable for the network's lifetime.
  [[nodiscard]] obs::Tracer& tracer() {
    return tls_shard_ != nullptr ? tls_shard_->tracer : tracer_;
  }
  [[nodiscard]] const obs::Tracer& tracer() const {
    return tls_shard_ != nullptr ? tls_shard_->tracer : tracer_;
  }
  /// The tracer a node should BIND (keep a pointer to) for records it emits
  /// later from inside its own handlers: the owning shard's deferred tracer
  /// when sharded, the master otherwise.  tracer() is context-sensitive —
  /// capturing it from control context (e.g. during Deployment bring-up)
  /// would capture the master and then race it from a worker thread.
  [[nodiscard]] obs::Tracer& tracer_for(NodeId id) {
    return sharded() ? shards_[shard_of(id)]->tracer : tracer_;
  }
  /// Enables tracing on the master and mirrors the enablement into every
  /// shard's deferred tracer.  Use instead of tracer().enable() so sharded
  /// deployments trace coherently.
  void enable_tracing(obs::TraceOptions options = {});

  [[nodiscard]] Rng& rng() { return current_shard().rng; }

 private:
  static constexpr std::uint32_t kNoOverride = UINT32_MAX;

  /// Per-directed-pair link state, stored once in the SOURCE-owner shard's
  /// record store: traffic counters plus, for a pair set_link gave its own
  /// config, that config's index in link_configs_.  There is one record
  /// per pair that ever carried traffic (~262k on a 100k-client run), so it
  /// holds nothing else: its (src, dst) pair is known to whoever reached it
  /// through a link table.
  struct LinkRecord {
    LinkStats stats;  // the only field every send writes
    std::uint32_t override_index = kNoOverride;
  };
  static_assert(sizeof(LinkRecord) <= 32);

  struct NodeState {
    Node* node = nullptr;
    NodeConfig config;
    EnvelopeSlab::Fifo queue;  // threaded through the owner shard's slab
    std::uint32_t shard = 0;  // owning shard index
    bool serving = false;
    std::uint64_t epoch = 0;  // bumped on detach to cancel stale service events
    /// Destination → this source's record index in its owner shard's link
    /// store.  Holds only the destinations this node has sent to.
    LinkTable out;
  };
  // Node-table growth must move, never deep-copy, every NodeState.
  static_assert(std::is_nothrow_move_constructible_v<NodeState>);
  // One slot per NodeId, 131,072 of them at 100k clients: keep it tight.
  static_assert(sizeof(NodeState) <= 88);

  /// One cross-shard message parked until the window barrier.
  struct Mail {
    SimTime deliver_at{};
    Envelope env;
  };

  /// Everything one shard owns.  All mutation of a node's state (receive
  /// queue as destination, link table and records as source) happens on
  /// its owner shard's thread — or on the main thread while workers idle —
  /// so shards share no mutable state inside a window.
  struct Shard {
    explicit Shard(std::uint32_t idx, std::uint64_t rng_seed)
        : index(idx), rng(rng_seed) {}

    std::uint32_t index = 0;
    EventQueue events;
    BufferPool pool;
    Rng rng;
    obs::Tracer tracer;  // deferred to the master when sharded
    std::uint64_t trace_hash = 0xcbf29ce484222325ULL;
    std::vector<LinkRecord> link_records;
    EnvelopeSlab receive;   // receive queues of the nodes this shard owns
    EnvelopeSlab inflight;  // envelopes of this queue's delivery records
    /// The frame a handler is reading, rebuilt from a stored head and its
    /// zero tail (run_service); all zeros between handlers.
    std::vector<std::uint8_t> frame_scratch;
    std::uint64_t total_bytes = 0;
    std::uint64_t total_messages = 0;
    std::uint64_t total_dropped = 0;
    /// Tail drops of foreign-shard traffic (per-pair stats live on the
    /// sending shard and must not be written from here).
    std::uint64_t cross_tail_drops = 0;
    std::uint64_t cross_sends = 0;
    /// Payload capacity this shard put in flight (send) minus what it
    /// returned (release_payload).  Cross-shard messages leave one shard's
    /// tally and return to another's, so only the sum over shards is the
    /// in-flight total.
    std::int64_t payload_inflight_bytes = 0;
    /// Wall-clock ns this shard spent actively running windows, in total
    /// and in the last window (threaded runs; written by the shard's own
    /// thread, read by the calling thread once the barrier has released).
    std::uint64_t active_wall_ns = 0;
    std::uint64_t window_active_ns = 0;
    /// outbox[k]: mail for shard k, in send order.
    std::vector<std::vector<Mail>> outbox;
  };

  [[nodiscard]] NodeState* find_state(NodeId id) {
    const std::size_t index = id.value();
    return index < nodes_.size() ? &nodes_[index] : nullptr;
  }
  [[nodiscard]] const NodeState* find_state(NodeId id) const {
    const std::size_t index = id.value();
    return index < nodes_.size() ? &nodes_[index] : nullptr;
  }
  /// The shard of the current execution context: the running window's shard
  /// on a worker, shard 0 otherwise (serial engine, or main-thread control
  /// context while workers idle).
  [[nodiscard]] Shard& current_shard() {
    return tls_shard_ != nullptr ? *tls_shard_ : *shards_.front();
  }
  NodeState& ensure_state(NodeId id);
  LinkRecord& link_record(NodeId src, NodeId dst);
  [[nodiscard]] const LinkRecord* find_link_record(NodeId src,
                                                   NodeId dst) const;
  [[nodiscard]] const LinkConfig& config_of(const LinkRecord& record) const {
    return record.override_index == kNoOverride
               ? default_link_
               : link_configs_[record.override_index];
  }
  /// Visits every link record as (src, dst, record), walking each source's
  /// link table.
  template <typename F>
  void for_each_link(F&& visit) const {
    for (std::size_t src = 0; src < nodes_.size(); ++src) {
      const NodeState& state = nodes_[src];
      const std::vector<LinkRecord>& store = shards_[state.shard]->link_records;
      state.out.for_each([&](NodeId dst, std::uint32_t slot) {
        visit(NodeId(src), dst, store[slot]);
      });
    }
  }
  void fold_lookahead(SimTime latency);

  /// Parks `envelope` in `shard`'s in-flight slab and schedules its
  /// delivery record on `shard`'s queue.
  static void schedule_delivery(Shard& shard, SimTime at,
                                Envelope&& envelope) {
    const NodeId dst = envelope.dst;
    shard.events.schedule_record(
        at, EventQueue::Record::delivery(
                dst, shard.inflight.park(std::move(envelope))));
  }
  /// A payload's last stop: back to `shard`'s pool, out of the in-flight
  /// byte tally.
  static void release_payload(Shard& shard,
                              std::vector<std::uint8_t>&& payload) {
    shard.payload_inflight_bytes -=
        static_cast<std::int64_t>(payload.capacity());
    shard.pool.release(std::move(payload));
  }
  void start_service(NodeId dst);
  void trace_record(Shard& shard, const Envelope& envelope, bool dropped);

  // ---- typed event records (EventQueue::Target) ---------------------------
  /// Takes the parked envelope out of the running shard's in-flight slab
  /// and queues it at its destination (or drops it: detached destination,
  /// full bounded queue).
  void run_delivery(std::uint32_t slot) override;
  void run_service(NodeId node, std::uint64_t epoch) override;
  void run_timer(NodeId node, std::uint8_t timer, std::uint64_t arg) override;

  // ---- sharded barrier loop (network.cpp) ---------------------------------
  void run_sharded(SimTime t);
  void run_windows(SimTime end, bool inclusive);
  void run_one_window(Shard& shard, SimTime end, bool inclusive);
  /// run_one_window, timed into the shard's active_wall_ns and
  /// window_active_ns.
  void run_timed_window(Shard& shard, SimTime end, bool inclusive);
  void merge_mailboxes();
  void merge_trace_ops();
  void start_workers();
  void stop_workers();
  void worker_loop(std::size_t index, std::uint32_t seen);

  // constinit: other translation units then read it directly instead of
  // through a TLS wrapper function (which UBSan flags as a null load).
  static constinit thread_local Shard* tls_shard_;

  std::vector<std::unique_ptr<Shard>> shards_;  // ≥1 always
  EventQueue control_queue_;   // main-thread events when sharded
  SimTime global_now_{};       // barrier time when sharded
  SimTime lookahead_ = SimTime::from_us(1);
  bool lookahead_seeded_ = false;
  bool use_threads_ = true;
  EventQueue::Scheduler scheduler_ = EventQueue::Scheduler::kLadder;
  std::uint64_t seed_ = 0;
  std::uint64_t windows_ = 0;
  /// Total wall-clock ns spent inside threaded window dispatches (calling
  /// thread measurement; engine_stats derives barrier stall from it).
  std::uint64_t windows_wall_ns_ = 0;
  /// Σ over threaded windows of K × max − Σ shard window_active_ns.
  std::uint64_t windows_imbalance_ns_ = 0;

  std::vector<NodeState> nodes_;       // dense, index = NodeId::value()
  LinkConfig default_link_;
  /// The distinct configs set_link was given, in first-use order; records
  /// name theirs by index.  A handful (LAN fabric, co-located pairs) serve
  /// the thousands of overridden infrastructure pairs.  Written only from
  /// control context, so windows read it race-free.
  std::vector<LinkConfig> link_configs_;
  IdGenerator<NodeId> node_ids_;
  bool trace_hash_on_ = false;
  obs::Tracer tracer_;
  std::vector<Mail> merge_scratch_;

  // ---- worker pool (sharded + threads) ------------------------------------
  // Shard 0 runs on the calling thread; workers_[i] serves shard i + 1.
  // One window = one generation: the calling thread publishes window_end_
  // and window_inclusive_, sets work_pending_ to K − 1 and bumps
  // work_generation_ (release); each worker counts work_pending_ down when
  // its window is done.  Both sides spin briefly, then park on the atomic
  // itself (futex-backed std::atomic::wait).
  std::vector<std::thread> workers_;
  std::atomic<std::uint32_t> work_generation_{0};
  std::atomic<std::uint32_t> work_pending_{0};
  SimTime window_end_{};
  bool window_inclusive_ = false;
  bool workers_stop_ = false;  // published by a generation bump
  int spin_budget_ = 0;  // the calling thread's (see await_change)
};

inline void Node::set_timer(SimTime delay, std::uint8_t timer,
                            std::uint64_t arg) {
  network_->schedule_timer(node_id_, delay, timer, arg);
}

}  // namespace matrix
