#include "control/control_plane.h"

namespace matrix {

const char* failsafe_state_name(FailsafeState state) {
  switch (state) {
    case FailsafeState::kNormal: return "NORMAL";
    case FailsafeState::kHold: return "HOLD";
    case FailsafeState::kFallback: return "FALLBACK";
  }
  return "?";
}

const char* control_kind_name(ControlKind kind) {
  switch (kind) {
    case ControlKind::kAnnounce: return "announce";
    case ControlKind::kHeartbeat: return "heartbeat";
    case ControlKind::kDirective: return "directive";
    case ControlKind::kAdmissionUpdate: return "admission_update";
    case ControlKind::kPoolPressure: return "pool_pressure";
    case ControlKind::kCount: break;
  }
  return "?";
}

ControlVerdict ControlPlane::admit(SimTime now, const ControlUpdate& update) {
  const auto slot = static_cast<std::size_t>(update.kind);
  const auto kind_id = static_cast<std::uint64_t>(update.kind);

  // Epoch-stamped kinds first: a superseded generation is dropped before
  // any other rule, a newer one flips the whole plane atomically.
  const bool epoch_stamped = update.kind == ControlKind::kAnnounce ||
                             update.kind == ControlKind::kHeartbeat;
  if (epoch_stamped) {
    if (update.epoch < epoch_) {
      ++stats_.stale_epoch_drops;
      if (tracer_ != nullptr) {
        tracer_->record(now, obs::TraceKind::kControlStaleDrop, subject_,
                        kind_id, static_cast<std::int64_t>(update.epoch),
                        static_cast<std::int64_t>(update.seq));
      }
      return ControlVerdict::kStaleEpoch;
    }
    if (update.epoch > epoch_) flip_epoch(now, update.epoch);
  }

  // Sequenced replay/reorder within the current epoch.
  if (update.seq != 0 && update.seq <= last_seq_[slot]) {
    ++stats_.stale_seq_drops;
    if (tracer_ != nullptr) {
      tracer_->record(now, obs::TraceKind::kControlStaleDrop, subject_,
                      kind_id, static_cast<std::int64_t>(epoch_),
                      static_cast<std::int64_t>(update.seq));
    }
    if (!fault_accept_stale_) return ControlVerdict::kStaleSeq;
    // Planted bug (Config::fault.stale_directive_replay): fall through and
    // act on the stale update anyway.  The duplicate kControlApplied below
    // is what kInvControlMonotonic catches.
  }

  // Degraded failsafe: coordinator-derived payloads are refused until a
  // fresh heartbeat/announce restores trust.  Heartbeats and announces are
  // themselves the recovery signal; admission updates are matrix-local.
  const bool coordinator_payload = update.kind == ControlKind::kDirective ||
                                   update.kind == ControlKind::kPoolPressure;
  if (config_.enabled && degraded() && coordinator_payload) {
    ++stats_.held_drops;
    if (tracer_ != nullptr) {
      tracer_->record(now, obs::TraceKind::kControlStaleDrop, subject_,
                      kind_id, static_cast<std::int64_t>(epoch_),
                      static_cast<std::int64_t>(update.seq));
    }
    return ControlVerdict::kHeld;
  }

  if (update.seq > last_seq_[slot]) last_seq_[slot] = update.seq;
  ++stats_.applied;
  if (update.seq != 0 && tracer_ != nullptr) {
    tracer_->record(now, obs::TraceKind::kControlApplied, subject_, kind_id,
                    static_cast<std::int64_t>(epoch_),
                    static_cast<std::int64_t>(update.seq));
  }
  if (epoch_stamped) note_heartbeat(now);
  return ControlVerdict::kApply;
}

bool ControlPlane::tick(SimTime now) {
  if (!config_.enabled || !started_) return false;
  bool changed = false;
  // Step one level at a time so degradation never skips HOLD even when a
  // tick lands late; both entries may then carry the same timestamp, which
  // the validator accepts (the age gap is zero too).
  for (;;) {
    const SimTime age = now - last_heartbeat_;
    if (state_ == FailsafeState::kNormal && age >= kFailsafeTau1) {
      transition(now, FailsafeState::kHold);
      changed = true;
      continue;
    }
    if (state_ == FailsafeState::kHold && age >= kFailsafeTau2) {
      transition(now, FailsafeState::kFallback);
      changed = true;
      continue;
    }
    return changed;
  }
}

void ControlPlane::flip_epoch(SimTime now, std::uint64_t epoch) {
  const std::uint64_t old = epoch_;
  epoch_ = epoch;
  for (auto& seq : last_seq_) seq = 0;
  ++stats_.epoch_flips;
  if (tracer_ != nullptr) {
    tracer_->record(now, obs::TraceKind::kControlEpochFlip, subject_, 0,
                    static_cast<std::int64_t>(epoch),
                    static_cast<std::int64_t>(old));
  }
}

void ControlPlane::note_heartbeat(SimTime now) {
  ++stats_.heartbeats;
  last_heartbeat_ = now;
  if (!config_.enabled) return;
  if (degraded()) transition(now, FailsafeState::kNormal);
}

void ControlPlane::transition(SimTime now, FailsafeState to) {
  const FailsafeState from = state_;
  state_ = to;
  transitions_.push_back({now, from, to, now - last_heartbeat_});
  if (tracer_ != nullptr) {
    tracer_->record(now, obs::TraceKind::kFailsafeTransition, subject_, 0,
                    static_cast<std::int64_t>(to),
                    static_cast<std::int64_t>(from));
  }
}

bool failsafe_timeline_valid(const std::vector<FailsafeTransition>& timeline) {
  FailsafeState prev_state = FailsafeState::kNormal;
  SimTime prev_at{};
  bool have_prev = false;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const FailsafeTransition& t = timeline[i];
    if (t.from == t.to) return false;
    if (t.from != prev_state) return false;  // first must leave NORMAL
    if (have_prev && t.at < prev_at) return false;
    switch (t.to) {
      case FailsafeState::kHold:
        if (t.from != FailsafeState::kNormal) return false;
        if (t.heartbeat_age < kFailsafeTau1) return false;
        break;
      case FailsafeState::kFallback:
        if (t.from != FailsafeState::kHold) return false;
        if (t.heartbeat_age < kFailsafeTau2) return false;
        // The silence ran uninterrupted from the HOLD entry: wall gap ==
        // age gap (a beat in between would have recovered to NORMAL).
        if (i > 0 && timeline[i - 1].to == FailsafeState::kHold &&
            t.at - timeline[i - 1].at !=
                t.heartbeat_age - timeline[i - 1].heartbeat_age) {
          return false;
        }
        break;
      case FailsafeState::kNormal:
        // Recovery only on a fresh beat, and always straight to NORMAL.
        if (t.heartbeat_age >= kFailsafeTau1) return false;
        break;
    }
    prev_state = t.to;
    prev_at = t.at;
    have_prev = true;
  }
  return true;
}

}  // namespace matrix
