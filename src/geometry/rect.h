// Axis-aligned rectangles.
//
// Partitions in Matrix are axis-aligned rectangles (paper Section 3.2.4:
// overlap computation is "particularly easy ... if the map partitions are
// rectangular"), and split-to-left halves a rectangle.  Rects are half-open
// in spirit but stored with closed bounds; `contains` uses lo-inclusive /
// hi-exclusive semantics except at the world boundary, so that a point on a
// shared partition edge has exactly one home server.
#pragma once

#include <algorithm>
#include <optional>
#include <ostream>

#include "geometry/vec2.h"

namespace matrix {

class Rect {
 public:
  constexpr Rect() = default;
  constexpr Rect(double x0, double y0, double x1, double y1)
      : x0_(x0), y0_(y0), x1_(x1), y1_(y1) {}

  [[nodiscard]] static constexpr Rect from_corners(Vec2 lo, Vec2 hi) {
    return Rect(lo.x, lo.y, hi.x, hi.y);
  }

  [[nodiscard]] constexpr double x0() const { return x0_; }
  [[nodiscard]] constexpr double y0() const { return y0_; }
  [[nodiscard]] constexpr double x1() const { return x1_; }
  [[nodiscard]] constexpr double y1() const { return y1_; }
  [[nodiscard]] constexpr Vec2 lo() const { return {x0_, y0_}; }
  [[nodiscard]] constexpr Vec2 hi() const { return {x1_, y1_}; }
  [[nodiscard]] constexpr double width() const { return x1_ - x0_; }
  [[nodiscard]] constexpr double height() const { return y1_ - y0_; }
  [[nodiscard]] constexpr double area() const { return width() * height(); }
  [[nodiscard]] constexpr Vec2 center() const {
    return {(x0_ + x1_) / 2.0, (y0_ + y1_) / 2.0};
  }

  [[nodiscard]] constexpr bool empty() const { return x1_ <= x0_ || y1_ <= y0_; }

  friend constexpr bool operator==(const Rect&, const Rect&) = default;

  /// Half-open containment: [x0,x1) × [y0,y1).  Guarantees a point on the
  /// boundary between two adjacent partitions belongs to exactly one.
  [[nodiscard]] constexpr bool contains(Vec2 p) const {
    return p.x >= x0_ && p.x < x1_ && p.y >= y0_ && p.y < y1_;
  }

  /// Closed containment: includes all four edges.  Used for world-boundary
  /// checks where the topmost/rightmost edge is still "in the world".
  [[nodiscard]] constexpr bool contains_closed(Vec2 p) const {
    return p.x >= x0_ && p.x <= x1_ && p.y >= y0_ && p.y <= y1_;
  }

  /// True when this rect fully contains `other`.
  [[nodiscard]] constexpr bool contains_rect(const Rect& other) const {
    return other.x0_ >= x0_ && other.x1_ <= x1_ && other.y0_ >= y0_ &&
           other.y1_ <= y1_;
  }

  /// Open-interior overlap test: touching edges do not count as
  /// intersection.  This matches partition semantics (adjacent partitions
  /// share an edge but no interior point).
  [[nodiscard]] constexpr bool intersects(const Rect& other) const {
    return x0_ < other.x1_ && other.x0_ < x1_ && y0_ < other.y1_ &&
           other.y0_ < y1_;
  }

  /// Intersection rectangle; empty Rect when disjoint.
  [[nodiscard]] Rect intersection(const Rect& other) const {
    const Rect r(std::max(x0_, other.x0_), std::max(y0_, other.y0_),
                 std::min(x1_, other.x1_), std::min(y1_, other.y1_));
    return r.empty() ? Rect() : r;
  }

  /// Minkowski inflation by `r` on every side.  Under the Chebyshev (L∞)
  /// metric this is exactly the set of points within distance `r` of the
  /// rect; under Euclidean it is the conservative axis-aligned bounding box
  /// of that set — the paper's "bounding box computation".
  [[nodiscard]] constexpr Rect inflated(double r) const {
    return Rect(x0_ - r, y0_ - r, x1_ + r, y1_ + r);
  }

  /// Clamps `p` to the closed rect.
  [[nodiscard]] Vec2 clamp(Vec2 p) const {
    return {std::clamp(p.x, x0_, x1_), std::clamp(p.y, y0_, y1_)};
  }

  /// Euclidean distance from `p` to the rect (0 inside).
  [[nodiscard]] double distance_to(Vec2 p) const {
    return Vec2::distance(p, clamp(p));
  }

  /// Chebyshev (L∞) distance from `p` to the rect (0 inside).
  [[nodiscard]] double chebyshev_distance_to(Vec2 p) const {
    const Vec2 q = clamp(p);
    return std::max(std::abs(p.x - q.x), std::abs(p.y - q.y));
  }

  /// Splits the rect in half across its longer dimension and returns
  /// {left-or-bottom half, right-or-top half}.  This is the paper's
  /// "split-to-left": the first element is handed to the new server.
  [[nodiscard]] std::pair<Rect, Rect> split_half() const {
    if (width() >= height()) {
      const double mid = (x0_ + x1_) / 2.0;
      return {Rect(x0_, y0_, mid, y1_), Rect(mid, y0_, x1_, y1_)};
    }
    const double mid = (y0_ + y1_) / 2.0;
    return {Rect(x0_, y0_, x1_, mid), Rect(x0_, mid, x1_, y1_)};
  }

  /// Splits at an arbitrary fraction (0,1) of the longer dimension; used by
  /// the load-aware split-policy extension.
  [[nodiscard]] std::pair<Rect, Rect> split_at(double fraction) const {
    fraction = std::clamp(fraction, 0.05, 0.95);
    if (width() >= height()) {
      const double mid = x0_ + width() * fraction;
      return {Rect(x0_, y0_, mid, y1_), Rect(mid, y0_, x1_, y1_)};
    }
    const double mid = y0_ + height() * fraction;
    return {Rect(x0_, y0_, x1_, mid), Rect(x0_, mid, x1_, y1_)};
  }

  /// The smallest rect covering both inputs.
  [[nodiscard]] static Rect bounding(const Rect& a, const Rect& b) {
    if (a.empty()) return b;
    if (b.empty()) return a;
    return Rect(std::min(a.x0_, b.x0_), std::min(a.y0_, b.y0_),
                std::max(a.x1_, b.x1_), std::max(a.y1_, b.y1_));
  }

 private:
  double x0_ = 0.0, y0_ = 0.0, x1_ = 0.0, y1_ = 0.0;
};

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[" << r.x0() << "," << r.y0() << " .. " << r.x1() << ","
            << r.y1() << "]";
}

}  // namespace matrix
