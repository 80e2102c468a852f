// Token bucket — the SOFT-mode admission budget (see admission.h).
//
// Classic continuous-refill bucket over simulated time:
//
//   tokens(t) = min(burst, tokens(t0) + rate * (t - t0))
//
// The bucket starts full so a server entering SOFT mode can still absorb a
// short join burst before throttling to the steady rate.  The game server's
// join gate spends it: the control plane decides the state, the dataplane
// spends the budget — no round trip per join.
#pragma once

#include <algorithm>

#include "util/sim_time.h"

namespace matrix {

class TokenBucket {
 public:
  /// `rate_per_sec` tokens accrue continuously up to `burst` capacity.
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst), tokens_(burst) {}

  /// Takes `cost` tokens if available at `now`; false ⇒ budget exhausted.
  bool try_take(SimTime now, double cost = 1.0) {
    refill(now);
    if (tokens_ < cost) return false;
    tokens_ -= cost;
    return true;
  }

  /// Tokens available at `now` (after refill), for tests and metrics.
  [[nodiscard]] double available(SimTime now) {
    refill(now);
    return tokens_;
  }

  /// Refills to full (state reset, e.g. when a pooled server is re-adopted).
  void reset(SimTime now) {
    tokens_ = burst_;
    last_refill_ = now;
  }

  /// Changes the refill rate from `now` on (coordinator-led directives swap
  /// a server's budget share in and out).  Accrual up to `now` happens at
  /// the OLD rate; banked tokens and the burst cap are untouched.
  void set_rate(SimTime now, double rate_per_sec) {
    refill(now);
    rate_ = rate_per_sec;
  }

  [[nodiscard]] double rate() const { return rate_; }

 private:
  void refill(SimTime now) {
    if (now <= last_refill_) return;
    tokens_ = std::min(burst_, tokens_ + rate_ * (now - last_refill_).sec());
    last_refill_ = now;
  }

  double rate_;
  double burst_;
  double tokens_;
  SimTime last_refill_{};
};

}  // namespace matrix
