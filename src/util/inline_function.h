// Small-buffer-optimized, move-only callable.
//
// The event scheduler (net/event_queue.h) keeps one of these per pending
// COLD event: scenario scripting, metrics samplers, tests.  The hot kinds —
// message deliveries, service completions, node timers — are 16-byte typed
// records and never become closures.  std::function heap-allocates for any
// capture beyond ~2 pointers and must stay copyable; this type instead
// stores captures up to kInlineBytes inline and is move-only, so scheduling
// a closure in steady state costs zero allocations.  Oversized captures
// (rare scripting closures holding whole option structs) transparently fall
// back to the heap.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace matrix {

/// Type-erased `void()` callable with inline storage.  Construction from any
/// invocable; move-only; empty after being moved from.
class InlineAction {
 public:
  /// Inline capture budget.  Sized for the fattest scheduled closure in the
  /// simulator (ScenarioSpec::schedule's flash wave: a Deployment pointer,
  /// a count, a centre, a spread and a VIP fraction — 48 bytes); anything
  /// bigger goes to the heap.
  static constexpr std::size_t kInlineBytes = 48;

  InlineAction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  InlineAction(F&& f) {
    construct(std::forward<F>(f));
  }

  /// Replaces the target, constructing the callable directly in this
  /// object's storage — the scheduler's emplace path, which avoids the
  /// construct-then-relocate round a pass-by-value Action parameter costs.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineAction>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(std::move(other)); }
  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }
  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;
  ~InlineAction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(storage_); }

  /// Invokes, then destroys the target, leaving this empty — one vtable
  /// round for the scheduler's run-once pattern instead of invoke + reset.
  void invoke_and_reset() {
    const VTable* vt = vtable_;
    vtable_ = nullptr;
    vt->run_once(storage_);
  }

  /// True when a callable of type `Fn` is stored without heap fallback.
  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
    /// Invoke followed by destroy, fused (the scheduler's per-event path).
    void (*run_once)(void*);
  };

  template <typename Fn>
  static const VTable* inline_vtable() {
    static const VTable vt{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* src, void* dst) {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
        [](void* p) {
          (*static_cast<Fn*>(p))();
          static_cast<Fn*>(p)->~Fn();
        }};
    return &vt;
  }

  template <typename Fn>
  static const VTable* heap_vtable() {
    static const VTable vt{
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* src, void* dst) {
          ::new (dst) Fn*(*static_cast<Fn**>(src));
        },
        [](void* p) { delete *static_cast<Fn**>(p); },
        [](void* p) {
          Fn* fn = *static_cast<Fn**>(p);
          (*fn)();
          delete fn;
        }};
    return &vt;
  }

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = inline_vtable<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vtable_ = heap_vtable<Fn>();
    }
  }

  void move_from(InlineAction&& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage_, storage_);
      other.vtable_ = nullptr;
    }
  }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

}  // namespace matrix
