// Structured tracing + flight recorder (docs/OBSERVABILITY.md).
//
// The observability substrate the ROADMAP's invariants harness needs: typed,
// sim-time-stamped trace events emitted from hooks in the core/control/game
// layers, a fixed-capacity ring buffer of the most recent events (the
// "flight recorder"), and span pairing so lifecycle latencies — time to
// admit, queue wait, split latency, handoff latency — fall out as
// histograms instead of ad-hoc bot bookkeeping.
//
// The contract that shapes every line here is PASSIVITY:
//
//   * Disabled (the default), every hook is a single predictable branch on
//     `enabled_`.  No allocation, no RNG draw, no message, no event — the
//     pinned golden-trace hashes in tests/determinism_test.cpp are the proof.
//   * Enabled, recording writes only into storage preallocated by enable():
//     the event ring, the open-span table, and fixed-bucket histograms.  The
//     hot path never allocates (same discipline as BufferPool) and never
//     sends, so traces describe the run without perturbing it — the
//     enabled-passivity determinism test pins that too.
//
// The Tracer lives on the Network (one per deployment, reachable from every
// Node via network()->tracer()), which also lets Network::send feed the ring
// on the same walk the FNV-1a golden-trace hasher already does.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace matrix::obs {

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// Every structured event the deployment can emit.  Grouped by lifecycle;
/// docs/OBSERVABILITY.md tabulates subject/actor/a/b semantics per kind.
enum class TraceKind : std::uint8_t {
  // ---- engine -------------------------------------------------------------
  kSend = 0,            ///< Network::send — subject=src, actor=dst, a=wire, b=dropped

  // ---- client lifecycle ---------------------------------------------------
  kClientHello,         ///< subject=client, actor=game node, a=resume flag
  kClientAdmitted,      ///< subject=client, actor=game node, a=redirect_seq
  kClientDenied,        ///< subject=client, actor=game node, a=deny reason
  kClientDeferred,      ///< subject=client, actor=game node, a=defer reason
  kClientQueued,        ///< subject=client, actor=game node, a=priority class
  kClientRedirected,    ///< subject=client, actor=old game node, a=new game node
  kClientBye,           ///< subject=client, actor=game node,
                        ///< a=1 a live session was found (0: none held)

  // ---- partition lifecycle ------------------------------------------------
  kSplitRequested,      ///< subject=server, a=proactive flag, b=need score
  kPoolGranted,         ///< subject=requesting server, actor=granted server
  kPoolDenied,          ///< subject=requesting server
  kPoolArbitrated,      ///< subject=winning server, a=contenders, b=winning need
  kSplitCompleted,      ///< subject=parent server, actor=child server
  kReclaimRequested,    ///< subject=parent server, actor=child server
  kReclaimDeclined,     ///< subject=parent server, actor=child server
  kReclaimCompleted,    ///< subject=parent server, actor=child server
  kAdopted,             ///< subject=child server, actor=new parent server
  kDeactivated,         ///< subject=server

  // ---- admission / directives ---------------------------------------------
  kAdmissionTransition, ///< subject=server, a=new state, b=old state
  kDirectiveBroadcast,  ///< subject=server targeted, a=floor state
  kDirectiveApplied,    ///< subject=server, a=floor state
  kQueueHandoff,        ///< adopted: subject=client, actor=source server,
                        ///< a=adopting game node, b=original enqueued_at µs
  kQueueHandoffSent,    ///< subject=client, actor=source game node,
                        ///< a=dst game node, b=enqueued_at µs
  kQueueHandoffDrop,    ///< duplicate-race skip at the destination:
                        ///< subject=client, actor=game node,
                        ///< a=1 already has session / 2 already queued

  // ---- control-plane failsafe ----------------------------------------------
  kFailsafeTransition,  ///< subject=node, a=new failsafe state, b=old state
  kControlEpochFlip,    ///< subject=node, a=new MC epoch, b=old epoch
  kControlStaleDrop,    ///< stale control update rejected: subject=node,
                        ///< actor=ControlKind, a=epoch, b=seq
  kControlApplied,      ///< sequenced control update applied: subject=node,
                        ///< actor=ControlKind, a=epoch, b=seq

  kCount,
};

[[nodiscard]] const char* trace_kind_name(TraceKind kind);

/// One recorded event.  POD, fixed size, so the flight-recorder ring is a
/// flat preallocated array and recording is a handful of stores.
struct TraceEvent {
  SimTime at{};
  TraceKind kind = TraceKind::kSend;
  std::uint64_t subject = 0;  ///< primary id (client, server, src node...)
  std::uint64_t actor = 0;    ///< secondary id (peer node, child server...)
  std::int64_t a = 0;         ///< kind-specific detail
  std::int64_t b = 0;         ///< kind-specific detail
};

// ---------------------------------------------------------------------------
// Allocation-free latency histogram
// ---------------------------------------------------------------------------

/// Fixed-bucket log2 histogram of microsecond durations.  util/stats.h's
/// Histogram stores every sample (it allocates on add — fine post-run, fatal
/// on the hot path); this one is 64 counters, so span closing stays
/// allocation-free.  Bucket i holds durations whose bit width is i, i.e.
/// [2^(i-1), 2^i); percentiles are bucket-upper-bound estimates while count,
/// sum, mean, and max are exact.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record_us(std::int64_t us) {
    if (us < 0) us = 0;
    const auto v = static_cast<std::uint64_t>(us);
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_us_ += v;
    if (v > max_us_) max_us_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum_us() const { return sum_us_; }
  [[nodiscard]] std::uint64_t max_us() const { return max_us_; }
  [[nodiscard]] double mean_ms() const {
    if (count_ == 0) return 0.0;
    return static_cast<double>(sum_us_) / static_cast<double>(count_) / 1000.0;
  }
  [[nodiscard]] double max_ms() const {
    return static_cast<double>(max_us_) / 1000.0;
  }
  /// Upper bound of the bucket containing percentile `p` (0..100), in ms.
  /// 0 when empty (matching util/stats.h Histogram::percentile).
  [[nodiscard]] double percentile_ms(double p) const;
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return i < kBuckets ? buckets_[i] : 0;
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    std::size_t bits = 0;
    while (v != 0) {
      ++bits;
      v >>= 1;
    }
    return bits < kBuckets ? bits : kBuckets - 1;
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_us_ = 0;
  std::uint64_t max_us_ = 0;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Paired open/close intervals whose durations feed per-kind histograms.
enum class SpanKind : std::uint8_t {
  kAdmit = 0,  ///< hello → Welcome (fresh admits; key = client id)
  kQueueWait,  ///< parked in the waiting room → drained (key = client id)
  kSplit,      ///< split initiated → shed acked (key = parent server id)
  kReclaim,    ///< reclaim requested → merge done (key = parent server id)
  kHandoff,    ///< Redirect sent → resumed on new server (key = client id)
  kCount,
};

[[nodiscard]] const char* span_kind_name(SpanKind kind);

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Sizing knobs; mirrored by Config::obs (core/config.h) so deployments can
/// set them without including this header everywhere.
struct TraceOptions {
  /// Flight-recorder depth: the ring keeps the most recent this-many events.
  std::size_t ring_capacity = 8192;
  /// Concurrently-open span capacity.  The table is open-addressed at ≤50%
  /// load; opens beyond that are counted in span_drops() and dropped.
  std::size_t span_capacity = 1 << 15;
  /// Record a kSend event for every Network::send.  The firehose: great for
  /// flight-recorder forensics, noisy for lifecycle timelines.
  bool record_sends = true;
};

/// The deployment-wide trace sink: flight-recorder ring + open-span table +
/// per-span-kind latency histograms.  Disabled by default; enable()
/// preallocates everything so recording never allocates.
///
/// Sharded engine (net/network.h): each worker shard gets a Tracer in
/// DEFERRED mode (defer_like()).  A deferred tracer buffers every
/// record/open/close as a DeferredOp instead of touching ring/span state;
/// the engine replays the per-shard buffers into the one master tracer at
/// every window barrier, k-way merged in (time, shard) order, so the master
/// stays coherent — and deterministic for a fixed shard count — without any
/// cross-thread writes.  Cross-shard spans (e.g. a kHandoff opened on one
/// server's shard and closed on another's) pair correctly because both ops
/// land in the same master table in time order.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turns recording on, preallocating the ring and span table.  Idempotent
  /// re-enable with the same options keeps existing data.
  void enable(TraceOptions options = {});
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Fast gate for Network::send's per-message hook.
  [[nodiscard]] bool records_sends() const {
    return enabled_ && options_.record_sends;
  }

  /// One buffered trace operation of a deferred (shard-local) tracer.
  struct DeferredOp {
    SimTime at{};
    std::uint8_t op = 0;  ///< 0 = record, 1 = open_span, 2 = close_span
    TraceKind kind = TraceKind::kSend;
    SpanKind span = SpanKind::kAdmit;
    bool success = true;
    std::uint64_t subject = 0;
    std::uint64_t actor = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
  };

  /// Puts this tracer in deferred mode, mirroring `master`'s enablement so
  /// the hot-path gates (enabled(), records_sends()) answer identically.
  void defer_like(const Tracer& master) {
    deferred_ = true;
    enabled_ = master.enabled_;
    options_ = master.options_;
    ops_.clear();
  }
  [[nodiscard]] bool deferred() const { return deferred_; }
  /// Buffered ops since the last barrier (time-sorted: sim time within one
  /// shard window is monotone).  The engine drains and clear()s this.
  [[nodiscard]] std::vector<DeferredOp>& deferred_ops() { return ops_; }
  /// Replays one drained op into this (master) tracer.
  void apply(const DeferredOp& op) {
    switch (op.op) {
      case 0: record(op.at, op.kind, op.subject, op.actor, op.a, op.b); break;
      case 1: open_span(op.at, op.span, op.subject); break;
      default: close_span(op.at, op.span, op.subject, op.success); break;
    }
  }

  /// Records one event into the ring.  A no-op branch when disabled.
  void record(SimTime at, TraceKind kind, std::uint64_t subject,
              std::uint64_t actor = 0, std::int64_t a = 0,
              std::int64_t b = 0) {
    if (!enabled_) return;
    if (deferred_) {
      ops_.push_back({at, 0, kind, SpanKind::kAdmit, true, subject, actor, a, b});
      return;
    }
    push(at, kind, subject, actor, a, b);
  }

  /// Opens a span of `kind` keyed by `key` (client or server id).  Opening
  /// an already-open span keeps the earlier start (first event wins — a
  /// retry does not erase the wait already served).
  void open_span(SimTime at, SpanKind kind, std::uint64_t key) {
    if (!enabled_) return;
    if (deferred_) {
      ops_.push_back({at, 1, TraceKind::kSend, kind, true, key, 0, 0, 0});
      return;
    }
    span_insert(at, kind, key);
  }

  /// Closes the span if open.  `success` feeds the duration into the kind's
  /// histogram; a failed close (deny/defer/bye) just retires the span.
  /// Returns whether a span was actually open (deferred mode cannot know
  /// yet and reports true; no caller branches on it mid-run).
  bool close_span(SimTime at, SpanKind kind, std::uint64_t key,
                  bool success = true) {
    if (!enabled_) return false;
    if (deferred_) {
      ops_.push_back({at, 2, TraceKind::kSend, kind, success, key, 0, 0, 0});
      return true;
    }
    return span_erase(at, kind, key, success);
  }

  [[nodiscard]] bool span_open(SpanKind kind, std::uint64_t key) const;
  /// Number of spans of `kind` currently open — the blackhole-invariant
  /// check is `open_span_count(kAdmit) == 0` at run end.
  [[nodiscard]] std::size_t open_span_count(SpanKind kind) const;
  /// Keys of the still-open spans of `kind` (diagnostics; allocates — post-
  /// run use only).
  [[nodiscard]] std::vector<std::uint64_t> open_span_keys(SpanKind kind) const;

  [[nodiscard]] const LogHistogram& histogram(SpanKind kind) const {
    return histograms_[static_cast<std::size_t>(kind)];
  }

  // ---- counters -----------------------------------------------------------
  [[nodiscard]] std::uint64_t events_recorded() const { return total_events_; }
  [[nodiscard]] std::uint64_t span_drops() const { return span_drops_; }

  // ---- flight-recorder dump ------------------------------------------------
  /// Events currently held, oldest first (≤ ring_capacity; allocates).
  [[nodiscard]] std::vector<TraceEvent> ring_snapshot() const;
  /// Dumps the ring as JSONL, one event per line, oldest first.
  void dump_jsonl(std::ostream& out) const;
  /// File variant; returns false if the path cannot be opened.
  bool dump_jsonl(const std::string& path) const;

 private:
  struct OpenSpan {
    std::uint64_t key = 0;
    SimTime opened_at{};
    SpanKind kind = SpanKind::kAdmit;
    bool used = false;
  };

  void push(SimTime at, TraceKind kind, std::uint64_t subject,
            std::uint64_t actor, std::int64_t a, std::int64_t b);
  void span_insert(SimTime at, SpanKind kind, std::uint64_t key);
  bool span_erase(SimTime at, SpanKind kind, std::uint64_t key, bool success);
  [[nodiscard]] std::size_t span_slot(SpanKind kind, std::uint64_t key) const;
  static std::uint64_t span_hash(SpanKind kind, std::uint64_t key);

  bool enabled_ = false;
  bool deferred_ = false;
  TraceOptions options_{};
  std::vector<DeferredOp> ops_;
  std::vector<TraceEvent> ring_;      // capacity fixed at enable()
  std::uint64_t total_events_ = 0;    // ring index = total % capacity
  std::vector<OpenSpan> spans_;       // open-addressed, linear probe
  std::size_t spans_open_ = 0;
  std::uint64_t span_drops_ = 0;
  LogHistogram histograms_[static_cast<std::size_t>(SpanKind::kCount)];
};

/// Process-level default for ObsConfig::trace_enabled.  Reads the
/// MATRIX_TRACE environment variable once ("1"/"on"/"true" ⇒ enabled), so
/// CI's obs-gate leg can run the whole suite traced without touching test
/// code — the same pattern as MATRIX_LOAD_POLICY.
[[nodiscard]] bool default_trace_enabled();

}  // namespace matrix::obs
