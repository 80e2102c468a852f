#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/log.h"

namespace matrix {

namespace {

/// Reserves geometric capacity before growing a dense id-indexed table to
/// cover `index`.  Ids arrive in increasing order (attach order, client
/// fan-out), so relying on the library's resize growth policy would make
/// table growth quadratic at 10k-node scale on implementations that size
/// exactly.
template <typename T>
void reserve_for_index(std::vector<T>& table, std::size_t index) {
  if (index < table.capacity()) return;
  std::size_t cap = table.capacity() < 16 ? 16 : table.capacity() * 2;
  while (cap <= index) cap *= 2;
  table.reserve(cap);
}

constexpr std::uint64_t kRngSalt = 0xA5A5A5A5DEADBEEFULL;
constexpr std::uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// Bounds of a barrier waiter's spin budget, in pause instructions (one is
/// ~18 ns on a Skylake-class Xeon: ~4.6 µs to ~0.6 ms).  A worker that
/// finished its window waits for the slowest shard and then the merge step,
/// ~0.15 ms per window on the 100k-client run at K=2, and should catch the
/// next window spinning: a futex wake-up costs more than that gap.  But a
/// spin only pays while the thread it waits for is running; on an
/// oversubscribed host it burns the core that thread needs (beside three
/// CPU hogs on four cores, a fixed ~36 µs spin ran a K=4 deployment 7x
/// slower than parking at once).  So each waiter doubles its budget after a
/// wait its spin satisfied and halves it after one that had to park.
constexpr int kSpinMin = 1 << 8;
constexpr int kSpinMax = 1 << 15;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `word` no longer holds `old` and returns the new value:
/// spins up to `budget` loads, then parks with std::atomic::wait, and
/// adapts `budget` (the caller's own, see kSpinMax) to how that went.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old, int& budget) {
  for (int i = 0; i < budget; ++i) {
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) {
      budget = std::min(budget * 2, kSpinMax);
      return now;
    }
    cpu_relax();
  }
  budget = std::max(budget / 2, kSpinMin);
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    const std::uint32_t now = word.load(std::memory_order_acquire);
    if (now != old) return now;
  }
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// kFnvPrime^n (mod 2^64), by squaring.
std::uint64_t fnv_prime_pow(std::uint64_t n) {
  std::uint64_t result = 1;
  for (std::uint64_t base = kFnvPrime; n != 0; n >>= 1, base *= base) {
    if ((n & 1) != 0) result *= base;
  }
  return result;
}

}  // namespace

constinit thread_local Network::Shard* Network::tls_shard_ = nullptr;

bool resolve_shard_threads(bool config_default) {
  const char* env = std::getenv("MATRIX_SHARD_THREADS");
  if (env == nullptr || *env == '\0') return config_default;
  const std::string value(env);
  if (value == "0" || value == "off" || value == "false" || value == "no") {
    return false;
  }
  return true;
}

bool resolve_ladder_scheduler(bool config_default) {
  const char* env = std::getenv("MATRIX_EVENT_SCHEDULER");
  if (env == nullptr || *env == '\0') return config_default;
  const std::string value(env);
  if (value == "heap" || value == "0" || value == "off" || value == "false") {
    return false;
  }
  return true;
}

Network::Network(std::uint64_t seed) : seed_(seed) {
  // Shard 0 seeds exactly like the historical serial engine, so one-shard
  // runs draw the identical RNG stream.
  shards_.push_back(std::make_unique<Shard>(0, seed ^ kRngSalt));
  shards_.front()->outbox.resize(1);
  scheduler_ = resolve_ladder_scheduler(true) ? EventQueue::Scheduler::kLadder
                                              : EventQueue::Scheduler::kHeap;
  shards_.front()->events.set_scheduler(scheduler_);
  shards_.front()->events.set_target(this);
  control_queue_.set_scheduler(scheduler_);
  // Sim-time-stamp all log output while this network lives (last network
  // constructed wins; owner matching in clear_clock keeps interleaved
  // lifetimes safe).
  Logger::instance().set_clock(this, [](const void* owner) {
    return static_cast<const Network*>(owner)->now();
  });
}

Network::~Network() {
  stop_workers();
  Logger::instance().clear_clock(this);
}

void Network::configure_shards(std::size_t count, bool use_threads) {
  if (count == 0) count = 1;
  // Sharding must be decided before any topology exists: shard assignment
  // happens at attach, and the one-shard fast paths assume it never changes
  // mid-run.
  assert(nodes_.empty() && "configure_shards must precede attach");
  assert(shards_.front()->events.empty() && control_queue_.empty());
  stop_workers();
  shards_.clear();
  const std::uint64_t base = seed_ ^ kRngSalt;
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        static_cast<std::uint32_t>(i),
        i == 0 ? base : base + kShardSeedStride * static_cast<std::uint64_t>(i)));
  }
  for (auto& shard : shards_) {
    shard->outbox.resize(count);
    shard->events.set_scheduler(scheduler_);
    shard->events.set_target(this);
  }
  use_threads_ = count > 1 && resolve_shard_threads(use_threads);
  if (tracer_.enabled() && sharded()) {
    for (auto& shard : shards_) shard->tracer.defer_like(tracer_);
  }
}

void Network::set_scheduler(EventQueue::Scheduler scheduler) {
  scheduler_ = scheduler;
  for (auto& shard : shards_) shard->events.set_scheduler(scheduler);
  control_queue_.set_scheduler(scheduler);
}

void Network::enable_tracing(obs::TraceOptions options) {
  tracer_.enable(options);
  if (sharded()) {
    for (auto& shard : shards_) shard->tracer.defer_like(tracer_);
  }
}

Network::NodeState& Network::ensure_state(NodeId id) {
  const std::size_t index = id.value();
  if (index >= nodes_.size()) {
    reserve_for_index(nodes_, index);
    nodes_.resize(index + 1);
  }
  return nodes_[index];
}

Network::LinkRecord& Network::link_record(NodeId src, NodeId dst) {
  NodeState& state = ensure_state(src);
  // The record lives in the SOURCE owner's shard store: only that shard
  // (or the main thread while workers idle) ever touches it.
  std::vector<LinkRecord>& store = shards_[state.shard]->link_records;
  std::int32_t slot = state.out.find(dst);
  if (slot == LinkTable::kAbsent) {
    slot = static_cast<std::int32_t>(store.size());
    state.out.insert(dst, static_cast<std::uint32_t>(slot));
    store.emplace_back();
  }
  return store[static_cast<std::size_t>(slot)];
}

const Network::LinkRecord* Network::find_link_record(NodeId src,
                                                     NodeId dst) const {
  const NodeState* state = find_state(src);
  if (state == nullptr) return nullptr;
  const std::int32_t slot = state->out.find(dst);
  if (slot == LinkTable::kAbsent) return nullptr;
  return &shards_[state->shard]->link_records[static_cast<std::size_t>(slot)];
}

NodeId Network::attach(Node* node, NodeConfig config, std::size_t shard) {
  const NodeId id = node_ids_.next();
  node->node_id_ = id;
  node->network_ = this;
  NodeState& state = ensure_state(id);
  state.node = node;
  state.config = config;
  state.shard = static_cast<std::uint32_t>(
      shard < shards_.size() ? shard : shards_.size() - 1);
  return id;
}

void Network::detach(NodeId id) {
  NodeState* state = find_state(id);
  if (state == nullptr) return;
  Shard& owner = *shards_[state->shard];
  owner.total_dropped += state->queue.size;
  while (!state->queue.empty()) {
    release_payload(owner, owner.receive.pop(state->queue).payload);
  }
  state->node = nullptr;
  state->serving = false;
  ++state->epoch;  // cancels any in-flight service completion
}

void Network::fold_lookahead(SimTime latency) {
  SimTime floor = SimTime::from_us(1);
  if (latency < floor) latency = floor;
  if (!lookahead_seeded_ || latency < lookahead_) lookahead_ = latency;
  lookahead_seeded_ = true;
}

void Network::set_default_link(LinkConfig config) {
  default_link_ = config;
  // Any pair without an override — including node pairs created later —
  // may ride the default link across shards, so it always bounds lookahead.
  fold_lookahead(config.latency);
}

void Network::set_link(NodeId src, NodeId dst, LinkConfig config) {
  const auto index = static_cast<std::size_t>(
      std::find(link_configs_.begin(), link_configs_.end(), config) -
      link_configs_.begin());
  if (index == link_configs_.size()) link_configs_.push_back(config);
  link_record(src, dst).override_index = static_cast<std::uint32_t>(index);
  if (sharded() && shard_of(src) != shard_of(dst)) {
    fold_lookahead(config.latency);
  }
}

std::size_t Network::send(NodeId src, NodeId dst,
                          std::vector<std::uint8_t> payload,
                          std::size_t zero_tail) {
  assert(zero_tail <= UINT32_MAX);
  Envelope envelope;
  envelope.src = src;
  envelope.dst = dst;
  envelope.payload = std::move(payload);
  envelope.sent_at = now();
  envelope.zero_tail = static_cast<std::uint32_t>(zero_tail);
  const std::size_t wire = envelope.wire_size();

  LinkRecord& record = link_record(src, dst);
  const LinkConfig& cfg = config_of(record);
  // Sender-side state (RNG stream, golden hash, totals, payload pool) lives
  // on the shard that owns `src`; inside a window that IS the running shard.
  Shard& sh = *shards_[find_state(src)->shard];

  const bool dropped =
      !attached(dst) ||
      (cfg.drop_probability > 0.0 && sh.rng.next_bool(cfg.drop_probability));
  if (trace_hash_on_) trace_record(sh, envelope, dropped);
  sh.payload_inflight_bytes +=
      static_cast<std::int64_t>(envelope.payload.capacity());
  obs::Tracer& tr = tracer();
  if (tr.records_sends()) {
    tr.record(envelope.sent_at, obs::TraceKind::kSend, src.value(),
              dst.value(), static_cast<std::int64_t>(wire), dropped ? 1 : 0);
  }
  if (dropped) {
    ++record.stats.dropped_messages;
    ++sh.total_dropped;
    release_payload(sh, std::move(envelope.payload));
    return wire;
  }

  record.stats.messages += 1;
  record.stats.bytes += wire;
  sh.total_bytes += wire;
  sh.total_messages += 1;

  const SimTime deliver_at =
      envelope.sent_at + cfg.latency + cfg.transfer_delay(wire);
  if (sharded() && tls_shard_ != nullptr &&
      shard_of(dst) != tls_shard_->index) {
    // Cross-shard: park in the mailbox; the barrier merges all mailboxes
    // for a destination in deterministic (time, src shard, order) order.
    // Conservative lookahead guarantees deliver_at is at or past the window
    // horizon, so the destination has not run past it.
    Shard& here = *tls_shard_;
    ++here.cross_sends;
    Mail mail;
    mail.deliver_at = deliver_at;
    mail.env = std::move(envelope);
    here.outbox[shard_of(dst)].push_back(std::move(mail));
    return wire;
  }
  // Same-shard inside a window, the serial engine, or the main-thread
  // control context (scenario drivers, revive paths — workers idle, so
  // scheduling straight onto the destination shard's queue is race-free).
  Shard& shard = !sharded()                ? *shards_.front()
                 : tls_shard_ != nullptr ? *tls_shard_
                                         : *shards_[shard_of(dst)];
  schedule_delivery(shard, deliver_at, std::move(envelope));
  return wire;
}

void Network::run_delivery(std::uint32_t slot) {
  Shard& here = current_shard();
  Envelope envelope = here.inflight.take(slot);
  envelope.delivered_at = now();
  const NodeId dst = envelope.dst;
  NodeState* state = find_state(dst);
  if (state == nullptr || state->node == nullptr) {
    ++here.total_dropped;
    release_payload(here, std::move(envelope.payload));
    return;  // node detached while the message was in flight
  }
  if (state->config.queue_capacity &&
      state->queue.size >= *state->config.queue_capacity) {
    ++here.total_dropped;
    // Per-pair stats live on the SENDING shard's store; only touch them when
    // that is us, else aggregate (engine_stats().cross_tail_drops).
    if (!sharded() || shard_of(envelope.src) == here.index) {
      ++link_record(envelope.src, dst).stats.dropped_messages;
    } else {
      ++here.cross_tail_drops;
    }
    release_payload(here, std::move(envelope.payload));
    return;  // tail drop: the overloaded-static-server failure mode
  }
  shards_[state->shard]->receive.push(state->queue, std::move(envelope));
  if (!state->serving) start_service(dst);
}

void Network::start_service(NodeId dst) {
  NodeState* state = find_state(dst);
  if (state == nullptr || state->node == nullptr || state->queue.empty()) {
    if (state != nullptr) state->serving = false;
    return;
  }
  state->serving = true;
  const std::uint64_t epoch = state->epoch;
  const SimTime service = state->config.service_time(
      shards_[state->shard]->receive.front(state->queue).wire_size());
  EventQueue& queue = current_shard().events;
  queue.schedule_record(queue.now() + service,
                        EventQueue::Record::service(dst, epoch));
}

void Network::run_service(NodeId node, std::uint64_t epoch) {
  NodeState* s = find_state(node);
  if (s == nullptr || s->epoch != epoch || s->node == nullptr ||
      s->queue.empty()) {
    return;
  }
  Envelope env = shards_[s->shard]->receive.pop(s->queue);
  Shard& here = current_shard();
  // The handler sees the whole frame: a stored head is rebuilt with its
  // zero tail in the shard's scratch buffer, and put back afterwards.  The
  // scratch buffer holds only zeros between handlers (resize zero-fills
  // what it adds), so a rebuild writes the head alone.
  const bool rebuilt = env.zero_tail != 0;
  const std::size_t head = env.payload.size();
  if (rebuilt) {
    here.frame_scratch.resize(env.frame_size());
    if (head != 0) {
      std::memcpy(here.frame_scratch.data(), env.payload.data(), head);
    }
    env.payload.swap(here.frame_scratch);
    env.zero_tail = 0;
  }
  // Handle *before* scheduling the next service so handlers observe a
  // queue that no longer contains the message being processed.
  s->node->handle_message(env);
  if (rebuilt) {
    env.payload.swap(here.frame_scratch);
    if (head != 0) std::memset(here.frame_scratch.data(), 0, head);
  }
  release_payload(here, std::move(env.payload));
  // The handler may have detached this node (e.g. reclamation) or attached
  // new ones (the node table may have grown) — re-resolve.
  s = find_state(node);
  if (s != nullptr && s->epoch == epoch) {
    start_service(node);
  }
}

void Network::run_timer(NodeId node, std::uint8_t timer, std::uint64_t arg) {
  NodeState* state = find_state(node);
  if (state != nullptr && state->node != nullptr) {
    state->node->on_timer(timer, arg);
  }
}

void Network::trace_record(Shard& shard, const Envelope& envelope,
                           bool dropped) {
  std::uint64_t h = shard.trace_hash;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  };
  mix(static_cast<std::uint64_t>(now().us()));
  mix(envelope.src.value());
  mix(envelope.dst.value());
  mix(dropped ? 1u : 0u);
  mix(envelope.frame_size());
  for (const std::uint8_t b : envelope.payload) {
    h ^= b;
    h *= kFnvPrime;
  }
  // Each zero of the tail is an FNV step whose xor is a no-op, so the tail
  // folds in as one multiply by kFnvPrime^zero_tail.
  h *= fnv_prime_pow(envelope.zero_tail);
  shard.trace_hash = h;
}

// ---------------------------------------------------------------------------
// Sharded barrier loop
// ---------------------------------------------------------------------------

void Network::run_until(SimTime t) {
  if (!sharded()) {
    shards_.front()->events.run_until(t);
    return;
  }
  run_sharded(t);
}

void Network::run_sharded(SimTime t) {
  // Catch up control events scheduled at or before the current barrier time
  // (e.g. a scenario wave registered for "now" between run_until calls).
  control_queue_.run_until(global_now_);
  while (global_now_ < t) {
    // Earliest pending shard work; the horizon may jump straight to it when
    // every shard idles (quiesce tails would otherwise spin empty windows).
    SimTime earliest = t;
    bool any = false;
    for (const auto& shard : shards_) {
      if (shard->events.empty()) continue;
      const SimTime next = shard->events.next_time();
      if (!any || next < earliest) earliest = next;
      any = true;
    }
    SimTime window = t;
    if (any) {
      const SimTime base = earliest > global_now_ ? earliest : global_now_;
      const SimTime horizon = base + lookahead_;
      if (horizon < window) window = horizon;
    }
    if (!control_queue_.empty() &&
        control_queue_.next_time() < window) {
      window = control_queue_.next_time();
    }
    // Final step runs INCLUSIVE so events landing exactly at `t` execute,
    // matching the serial engine's run_until contract.  Interior windows are
    // EXCLUSIVE: boundary events wait for the mailbox merge, so their order
    // against merged cross-shard mail is decided deterministically.
    const bool inclusive = window == t;
    run_windows(window, inclusive);
    merge_mailboxes();
    if (tracer_.enabled()) merge_trace_ops();
    global_now_ = window;
    ++windows_;
    control_queue_.run_until(window);
  }
}

void Network::run_one_window(Shard& shard, SimTime end, bool inclusive) {
  tls_shard_ = &shard;
  if (inclusive) {
    shard.events.run_until(end);
  } else {
    shard.events.run_window(end);
  }
  tls_shard_ = nullptr;
}

void Network::run_timed_window(Shard& shard, SimTime end, bool inclusive) {
  const auto start = std::chrono::steady_clock::now();
  run_one_window(shard, end, inclusive);
  shard.window_active_ns = elapsed_ns(start);
  shard.active_wall_ns += shard.window_active_ns;
}

void Network::run_windows(SimTime end, bool inclusive) {
  if (!use_threads_) {
    for (auto& shard : shards_) run_one_window(*shard, end, inclusive);
    return;
  }
  start_workers();
  const auto wall_start = std::chrono::steady_clock::now();
  window_end_ = end;
  window_inclusive_ = inclusive;
  work_pending_.store(static_cast<std::uint32_t>(workers_.size()),
                      std::memory_order_relaxed);
  // The release bump publishes the window (and the pending count) to every
  // worker that acquires the new generation.
  work_generation_.fetch_add(1, std::memory_order_release);
  work_generation_.notify_all();
  run_timed_window(*shards_.front(), end, inclusive);
  for (std::uint32_t pending = work_pending_.load(std::memory_order_acquire);
       pending != 0;) {
    pending = await_change(work_pending_, pending, spin_budget_);
  }
  windows_wall_ns_ += elapsed_ns(wall_start);
  std::uint64_t slowest = 0;
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    slowest = std::max(slowest, shard->window_active_ns);
    total += shard->window_active_ns;
  }
  windows_imbalance_ns_ += slowest * shards_.size() - total;
}

void Network::merge_mailboxes() {
  const std::size_t count = shards_.size();
  for (std::size_t d = 0; d < count; ++d) {
    merge_scratch_.clear();
    for (auto& src : shards_) {
      std::vector<Mail>& box = src->outbox[d];
      for (Mail& mail : box) merge_scratch_.push_back(std::move(mail));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // Stable sort on time alone: equal times keep concatenation order, i.e.
    // (deliver time, src shard, send order) — the determinism contract.
    std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                     [](const Mail& a, const Mail& b) {
                       return a.deliver_at < b.deliver_at;
                     });
    Shard& dest = *shards_[d];
    for (Mail& mail : merge_scratch_) {
      // Conservative lookahead means nothing lands behind the horizon the
      // destination already reached.
      assert(mail.deliver_at >= dest.events.now());
      schedule_delivery(dest, mail.deliver_at, std::move(mail.env));
    }
  }
  merge_scratch_.clear();
}

void Network::merge_trace_ops() {
  // K-way merge of the per-shard deferred-op buffers by (time, shard index);
  // each buffer is already time-sorted (sim time is monotone in a window).
  const std::size_t count = shards_.size();
  std::vector<std::size_t> pos(count, 0);  // one cursor per shard
  while (true) {
    std::size_t best = count;
    SimTime best_at{};
    for (std::size_t i = 0; i < count; ++i) {
      const auto& ops = shards_[i]->tracer.deferred_ops();
      if (pos[i] >= ops.size()) continue;
      const SimTime at = ops[pos[i]].at;
      if (best == count || at < best_at) {
        best = i;
        best_at = at;
      }
    }
    if (best == count) break;
    tracer_.apply(shards_[best]->tracer.deferred_ops()[pos[best]]);
    ++pos[best];
  }
  for (auto& shard : shards_) shard->tracer.deferred_ops().clear();
}

void Network::start_workers() {
  if (!workers_.empty()) return;
  // Each worker starts from the generation current at its spawn: one that
  // read it after starting could miss the first window's bump and wait for
  // a second one that never comes.
  const std::uint32_t spawned_at =
      work_generation_.load(std::memory_order_relaxed);
  spin_budget_ = kSpinMax;
  workers_.reserve(shards_.size() - 1);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i, spawned_at] { worker_loop(i, spawned_at); });
  }
}

void Network::stop_workers() {
  if (workers_.empty()) return;
  workers_stop_ = true;
  work_generation_.fetch_add(1, std::memory_order_release);
  work_generation_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  workers_stop_ = false;
}

void Network::worker_loop(std::size_t index, std::uint32_t seen) {
  Shard& shard = *shards_[index];
  int spin_budget = kSpinMax;
  for (;;) {
    seen = await_change(work_generation_, seen, spin_budget);
    if (workers_stop_) return;
    run_timed_window(shard, window_end_, window_inclusive_);
    // The last worker out wakes the calling thread if it parked; the
    // acq_rel decrement hands it this shard's window (and its timing).
    if (work_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      work_pending_.notify_one();
    }
  }
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

std::size_t Network::queue_length(NodeId id) const {
  const NodeState* state = find_state(id);
  return state != nullptr ? state->queue.size : 0;
}

const LinkStats& Network::stats(NodeId src, NodeId dst) const {
  static const LinkStats kEmpty;
  const LinkRecord* record = find_link_record(src, dst);
  return record != nullptr ? record->stats : kEmpty;
}

std::uint64_t Network::total_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_bytes;
  return sum;
}

std::uint64_t Network::total_messages() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_messages;
  return sum;
}

std::uint64_t Network::total_dropped() const {
  std::uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->total_dropped;
  return sum;
}

std::uint64_t Network::bytes_matching(
    const std::function<bool(NodeId, NodeId)>& pred) const {
  std::uint64_t sum = 0;
  for_each_link([&](NodeId src, NodeId dst, const LinkRecord& record) {
    if (pred(src, dst)) sum += record.stats.bytes;
  });
  return sum;
}

Network::EngineStats Network::engine_stats() const {
  EngineStats stats;
  std::uint64_t active_ns = 0;
  stats.shard_events.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.events_processed += shard->events.events_processed();
    stats.shard_events.push_back(shard->events.events_processed());
    if (shard->events.peak_pending() > stats.event_peak_pending) {
      stats.event_peak_pending = shard->events.peak_pending();
    }
    stats.buffers_acquired += shard->pool.counters().acquired;
    stats.buffers_reused += shard->pool.counters().reused;
    stats.buffers_idle += shard->pool.idle();
    stats.cross_shard_messages += shard->cross_sends;
    active_ns += shard->active_wall_ns;
  }
  stats.events_processed += control_queue_.events_processed();
  stats.node_table_bytes = nodes_.capacity() * sizeof(NodeState);
  stats.link_table_bytes = link_configs_.capacity() * sizeof(LinkConfig);
  for (const NodeState& state : nodes_) {
    stats.link_table_bytes += state.out.bytes();
  }
  std::int64_t inflight = 0;
  for (const auto& shard : shards_) {
    stats.link_table_bytes +=
        shard->link_records.capacity() * sizeof(LinkRecord);
    stats.receive_slab_bytes += shard->receive.bytes();
    stats.inflight_envelope_bytes += shard->inflight.bytes();
    stats.event_slab_bytes += shard->events.slab_bytes();
    stats.sched_tier_bytes += shard->events.tier_bytes();
    stats.buffer_pool_idle_bytes += shard->pool.idle_bytes();
    inflight += shard->payload_inflight_bytes;
  }
  stats.payload_inflight_bytes = static_cast<std::size_t>(inflight);
  if (sharded()) {
    stats.event_slab_bytes += control_queue_.slab_bytes();
    stats.sched_tier_bytes += control_queue_.tier_bytes();
  }
  stats.windows = windows_;
  // Stall = dispatch wall time summed over shards minus the time shards
  // actually ran: what every core spent waiting on the slowest sibling or
  // on the handoff itself.
  const std::uint64_t dispatched = windows_wall_ns_ * shards_.size();
  stats.window_stall_us =
      dispatched > active_ns ? (dispatched - active_ns) / 1000 : 0;
  stats.window_imbalance_us = windows_imbalance_ns_ / 1000;
  return stats;
}

std::uint64_t Network::trace_hash() const {
  if (!sharded()) return shards_.front()->trace_hash;
  std::uint64_t h = kFnvOffset;
  for (const auto& shard : shards_) {
    const std::uint64_t v = shard->trace_hash;
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  }
  return h;
}

std::vector<std::uint64_t> Network::shard_trace_hashes() const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(shards_.size());
  for (const auto& shard : shards_) hashes.push_back(shard->trace_hash);
  return hashes;
}

}  // namespace matrix
