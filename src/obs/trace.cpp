#include "obs/trace.h"

#include <cstdlib>
#include <fstream>
#include <ostream>

namespace matrix::obs {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSend: return "send";
    case TraceKind::kClientHello: return "client_hello";
    case TraceKind::kClientAdmitted: return "client_admitted";
    case TraceKind::kClientDenied: return "client_denied";
    case TraceKind::kClientDeferred: return "client_deferred";
    case TraceKind::kClientQueued: return "client_queued";
    case TraceKind::kClientRedirected: return "client_redirected";
    case TraceKind::kClientBye: return "client_bye";
    case TraceKind::kSplitRequested: return "split_requested";
    case TraceKind::kPoolGranted: return "pool_granted";
    case TraceKind::kPoolDenied: return "pool_denied";
    case TraceKind::kPoolArbitrated: return "pool_arbitrated";
    case TraceKind::kSplitCompleted: return "split_completed";
    case TraceKind::kReclaimRequested: return "reclaim_requested";
    case TraceKind::kReclaimDeclined: return "reclaim_declined";
    case TraceKind::kReclaimCompleted: return "reclaim_completed";
    case TraceKind::kAdopted: return "adopted";
    case TraceKind::kDeactivated: return "deactivated";
    case TraceKind::kAdmissionTransition: return "admission_transition";
    case TraceKind::kDirectiveBroadcast: return "directive_broadcast";
    case TraceKind::kDirectiveApplied: return "directive_applied";
    case TraceKind::kQueueHandoff: return "queue_handoff";
    case TraceKind::kQueueHandoffSent: return "queue_handoff_sent";
    case TraceKind::kQueueHandoffDrop: return "queue_handoff_drop";
    case TraceKind::kFailsafeTransition: return "failsafe_transition";
    case TraceKind::kControlEpochFlip: return "control_epoch_flip";
    case TraceKind::kControlStaleDrop: return "control_stale_drop";
    case TraceKind::kControlApplied: return "control_applied";
    case TraceKind::kCount: break;
  }
  return "?";
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdmit: return "admit";
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kSplit: return "split";
    case SpanKind::kReclaim: return "reclaim";
    case SpanKind::kHandoff: return "handoff";
    case SpanKind::kCount: break;
  }
  return "?";
}

double LogHistogram::percentile_ms(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the target sample (1-based), then walk buckets to find it.
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Upper bound of bucket i is 2^i - 1 µs (bucket 0 holds exactly 0).
      const std::uint64_t upper = i == 0 ? 0 : (1ULL << i) - 1;
      const double bounded =
          static_cast<double>(upper < max_us_ ? upper : max_us_);
      return bounded / 1000.0;
    }
  }
  return max_ms();
}

namespace {

/// Smallest power of two ≥ n (and ≥ 16).
std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap *= 2;
  return cap;
}

}  // namespace

void Tracer::enable(TraceOptions options) {
  if (options.ring_capacity == 0) options.ring_capacity = 1;
  if (options.span_capacity == 0) options.span_capacity = 1;
  if (enabled_ && options_.ring_capacity == options.ring_capacity &&
      options_.span_capacity == options.span_capacity) {
    options_.record_sends = options.record_sends;
    return;  // re-enable with the same shape keeps existing data
  }
  options_ = options;
  ring_.assign(options_.ring_capacity, TraceEvent{});
  // ≤50% load factor: table twice the advertised capacity, power of two so
  // probing can mask instead of mod.
  spans_.assign(pow2_at_least(options_.span_capacity * 2), OpenSpan{});
  spans_open_ = 0;
  total_events_ = 0;
  span_drops_ = 0;
  enabled_ = true;
}

void Tracer::push(SimTime at, TraceKind kind, std::uint64_t subject,
                  std::uint64_t actor, std::int64_t a, std::int64_t b) {
  TraceEvent& slot = ring_[total_events_ % ring_.size()];
  slot.at = at;
  slot.kind = kind;
  slot.subject = subject;
  slot.actor = actor;
  slot.a = a;
  slot.b = b;
  ++total_events_;
}

std::uint64_t Tracer::span_hash(SpanKind kind, std::uint64_t key) {
  // splitmix64 finalizer over (kind, key) — cheap and well-mixed for the
  // dense sequential ids the deployment hands out.
  std::uint64_t x = key ^ (static_cast<std::uint64_t>(kind) << 56);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::size_t Tracer::span_slot(SpanKind kind, std::uint64_t key) const {
  const std::size_t mask = spans_.size() - 1;
  std::size_t i = static_cast<std::size_t>(span_hash(kind, key)) & mask;
  while (spans_[i].used && (spans_[i].kind != kind || spans_[i].key != key)) {
    i = (i + 1) & mask;
  }
  return i;  // either the matching slot or the first empty one
}

void Tracer::span_insert(SimTime at, SpanKind kind, std::uint64_t key) {
  const std::size_t i = span_slot(kind, key);
  if (spans_[i].used) return;  // already open: first event wins
  if (spans_open_ >= options_.span_capacity) {
    ++span_drops_;
    return;
  }
  spans_[i].used = true;
  spans_[i].kind = kind;
  spans_[i].key = key;
  spans_[i].opened_at = at;
  ++spans_open_;
}

bool Tracer::span_erase(SimTime at, SpanKind kind, std::uint64_t key,
                        bool success) {
  std::size_t i = span_slot(kind, key);
  if (!spans_[i].used) return false;
  if (success) {
    histograms_[static_cast<std::size_t>(kind)].record_us(
        at.us() - spans_[i].opened_at.us());
  }
  --spans_open_;
  // Backward-shift deletion keeps probe chains intact without tombstones,
  // so the table never degrades however many spans open and close.
  const std::size_t mask = spans_.size() - 1;
  std::size_t hole = i;
  std::size_t j = (i + 1) & mask;
  while (spans_[j].used) {
    const std::size_t home =
        static_cast<std::size_t>(span_hash(spans_[j].kind, spans_[j].key)) &
        mask;
    // Move j into the hole if its home position does not sit strictly
    // between the hole (exclusive) and j (inclusive) — the standard
    // Robin-Hood shift condition handling wraparound.
    const bool reachable = ((j - home) & mask) >= ((j - hole) & mask);
    if (reachable) {
      spans_[hole] = spans_[j];
      hole = j;
    }
    j = (j + 1) & mask;
  }
  spans_[hole].used = false;
  return true;
}

bool Tracer::span_open(SpanKind kind, std::uint64_t key) const {
  if (!enabled_) return false;
  return spans_[span_slot(kind, key)].used;
}

std::size_t Tracer::open_span_count(SpanKind kind) const {
  if (!enabled_) return 0;
  std::size_t n = 0;
  for (const OpenSpan& span : spans_) {
    if (span.used && span.kind == kind) ++n;
  }
  return n;
}

std::vector<std::uint64_t> Tracer::open_span_keys(SpanKind kind) const {
  std::vector<std::uint64_t> keys;
  if (!enabled_) return keys;
  for (const OpenSpan& span : spans_) {
    if (span.used && span.kind == kind) keys.push_back(span.key);
  }
  return keys;
}

std::vector<TraceEvent> Tracer::ring_snapshot() const {
  std::vector<TraceEvent> events;
  if (!enabled_ || total_events_ == 0) return events;
  const std::size_t cap = ring_.size();
  const std::size_t held =
      total_events_ < cap ? static_cast<std::size_t>(total_events_) : cap;
  events.reserve(held);
  const std::uint64_t first = total_events_ - held;
  for (std::size_t k = 0; k < held; ++k) {
    events.push_back(ring_[(first + k) % cap]);
  }
  return events;
}

void Tracer::dump_jsonl(std::ostream& out) const {
  for (const TraceEvent& e : ring_snapshot()) {
    out << "{\"t_us\":" << e.at.us() << ",\"kind\":\""
        << trace_kind_name(e.kind) << "\",\"subject\":" << e.subject
        << ",\"actor\":" << e.actor << ",\"a\":" << e.a << ",\"b\":" << e.b
        << "}\n";
  }
}

bool Tracer::dump_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  dump_jsonl(out);
  return static_cast<bool>(out);
}

bool default_trace_enabled() {
  static const bool enabled = [] {
    const char* value = std::getenv("MATRIX_TRACE");
    if (value == nullptr) return false;
    const std::string v(value);
    return v == "1" || v == "on" || v == "true";
  }();
  return enabled;
}

}  // namespace matrix::obs
