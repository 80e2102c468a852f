// Flat open-address table of ghost entities, keyed by EntityId.
//
// Every TaggedPacket a game server receives updates (or inserts) the ghost
// replica of the acting remote avatar — at 10k-client scale that is millions
// of touches per run, and a node-based std::unordered_map pays a heap
// round-trip per insert and a cache miss per probe.  The ghost workload
// needs only three operations — upsert, bulk prune, clear — so this table
// stores Entity values inline with linear probing (load ≤ 3/4) and handles
// removal by rebuilding (pruning runs once per load report, far off the
// hot path).
// No operation here is order-sensitive: iteration feeds order-independent
// bucket-count sums and prune keeps/drops each entry independently, so
// swapping table layouts cannot perturb traces.
#pragma once

#include <cstdint>
#include <vector>

#include "game/entity.h"
#include "util/hash_mix.h"

namespace matrix {

class GhostTable {
 public:
  /// Returns the ghost for `id`, inserting a default Entity (with `id` set)
  /// when absent.  The reference is valid until the next upsert.
  Entity& upsert(EntityId id) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();  // load ≤ 3/4
    const std::size_t index = find_slot(id);
    Entity& slot = slots_[index];
    if (!slot.id.valid()) {
      slot.id = id;
      ++size_;
    }
    return slot;
  }

  /// Drops every entity for which `keep` returns false (bulk rebuild).
  template <typename Keep>
  void prune(Keep&& keep) {
    std::vector<Entity> survivors;
    survivors.reserve(size_);
    for (const Entity& slot : slots_) {
      if (slot.id.valid() && keep(slot)) survivors.push_back(slot);
    }
    if (survivors.size() == size_) return;  // nothing pruned
    for (Entity& slot : slots_) slot = Entity{};
    size_ = 0;
    for (const Entity& entity : survivors) upsert(entity.id) = entity;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entity& slot : slots_) {
      if (slot.id.valid()) fn(slot);
    }
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Bytes of slot storage allocated.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.capacity() * sizeof(Entity);
  }

 private:
  [[nodiscard]] std::size_t find_slot(EntityId id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = splitmix64(id.value()) & mask;
    while (slots_[i].id.valid() && slots_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Entity> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Entity{});
    size_ = 0;
    for (const Entity& slot : old) {
      if (slot.id.valid()) upsert(slot.id) = slot;
    }
  }

  std::vector<Entity> slots_;  // id.valid() marks an occupied slot
  std::size_t size_ = 0;
};

}  // namespace matrix
