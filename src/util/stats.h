// Statistics collection for the evaluation harness.
//
// Three shapes of data appear in the paper's evaluation:
//   * scalar summaries (mean/stddev of switching latency)     -> OnlineStats
//   * distributions with percentiles (response-latency CDF)   -> Histogram
//   * time series (clients per server, queue length, Fig. 2)  -> TimeSeries
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace matrix {

/// Welford's online mean/variance accumulator.  O(1) memory, numerically
/// stable, order-independent up to floating-point rounding.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const {
    return n_ ? min_ : 0.0;
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : 0.0;
  }

  void merge(const OnlineStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(n_ + other.n_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(n_) *
               static_cast<double>(other.n_) / total;
    mean_ = (mean_ * static_cast<double>(n_) +
             other.mean_ * static_cast<double>(other.n_)) /
            total;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact-percentile histogram: stores samples, sorts lazily on query.
/// Fine for evaluation runs (≤ millions of samples); not a streaming sketch.
class Histogram {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  /// Pre-sizes sample storage (e.g. to a known merge total), so growth by
  /// doubling never holds old and new buffers at once.
  void reserve(std::size_t n) { samples_.reserve(n); }
  /// Bytes of sample storage allocated (capacity, not count).
  [[nodiscard]] std::size_t capacity_bytes() const {
    return samples_.capacity() * sizeof(double);
  }

  /// Linear-interpolated percentile, p in [0,100].  Empty histogram -> 0.
  [[nodiscard]] double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    sort_if_needed();
    const double rank =
        (p / 100.0) * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
  }

  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }
  [[nodiscard]] double min() const {
    sort_if_needed();
    return samples_.empty() ? 0.0 : samples_.front();
  }
  [[nodiscard]] double max() const {
    sort_if_needed();
    return samples_.empty() ? 0.0 : samples_.back();
  }

  /// Fraction of samples strictly above `threshold` (used for the
  /// "how many actions broke the 150 ms interactivity budget" metric).
  [[nodiscard]] double fraction_above(double threshold) const {
    if (samples_.empty()) return 0.0;
    std::size_t over = 0;
    for (double x : samples_) {
      if (x > threshold) ++over;
    }
    return static_cast<double>(over) / static_cast<double>(samples_.size());
  }

  /// Raw samples (unsorted order not guaranteed); for merging histograms.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  void merge(const Histogram& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  void clear() {
    samples_.clear();
    sorted_ = true;
  }

 private:
  void sort_if_needed() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// A named (time, value) series, e.g. "server 1 client count".
/// Used to regenerate the paper's Figure 2 as printed rows.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name = {}) : name_(std::move(name)) {}

  void record(double t_sec, double value) { points_.push_back({t_sec, value}); }

  struct Point {
    double t_sec;
    double value;
  };

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// Value at or before `t_sec` (step interpolation); 0 before first point.
  [[nodiscard]] double value_at(double t_sec) const {
    double v = 0.0;
    for (const auto& p : points_) {
      if (p.t_sec > t_sec) break;
      v = p.value;
    }
    return v;
  }

  [[nodiscard]] double max_value() const {
    double v = 0.0;
    for (const auto& p : points_) v = std::max(v, p.value);
    return v;
  }

 private:
  std::string name_;
  std::vector<Point> points_;
};

}  // namespace matrix
