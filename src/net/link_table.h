// Per-source map from destination NodeId to a link-record index.
//
// Every send looks up its (src, dst) link record, so the map sits on the
// hottest path of the engine.  A dense table indexed by destination id is one
// array access, but a game server's table must then span every client id it
// ever answers — up to the whole 100k-node id space per server.  This
// open-addressed table (linear probing, Fibonacci hashing, load factor at
// most 3/4) is sized to the destinations a node actually uses: one or two
// for a bot, its session count for a server.  Capacity starts at 4 and
// grows fourfold: each growth is an allocation plus a rehash, and doubling
// from 2 made deployment bring-up (a full LAN mesh between ~30 servers)
// measurably slower than the dense tables it replaced.
//
// Entries are 8 bytes: node ids fit 32 bits (they are dense from 1, and 0
// marks an empty slot).  Entries are never erased — link records live for
// the network's lifetime — so probing needs no tombstones.  Growth rehashes
// in slot order, so the layout is a pure function of the insert sequence.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/ids.h"

namespace matrix {

class LinkTable {
 public:
  static constexpr std::int32_t kAbsent = -1;

  /// Record index for `dst`, or kAbsent.
  [[nodiscard]] std::int32_t find(NodeId dst) const {
    if (capacity_ == 0) return kAbsent;
    const std::uint32_t key = key_of(dst);
    for (std::uint32_t i = home(key);; i = (i + 1) & (capacity_ - 1)) {
      const Entry& entry = entries_[i];
      if (entry.dst == key) return static_cast<std::int32_t>(entry.record);
      if (entry.dst == 0) return kAbsent;
    }
  }

  /// Maps `dst` (not yet present) to `record`.
  void insert(NodeId dst, std::uint32_t record) {
    assert(find(dst) == kAbsent);
    if ((size_ + 1) * 4 > capacity_ * 3) grow();
    place(Entry{key_of(dst), record});
    ++size_;
  }

  /// Visits every mapping as (dst, record).
  template <typename F>
  void for_each(F&& visit) const {
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      const Entry& entry = entries_[i];
      if (entry.dst != 0) visit(NodeId(entry.dst), entry.record);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t bytes() const { return capacity_ * sizeof(Entry); }

 private:
  struct Entry {
    std::uint32_t dst = 0;  // NodeId value; 0 = empty
    std::uint32_t record = 0;
  };

  static std::uint32_t key_of(NodeId id) {
    assert(id.valid() && id.value() <= UINT32_MAX);
    return static_cast<std::uint32_t>(id.value());
  }
  [[nodiscard]] std::uint32_t home(std::uint32_t key) const {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           (capacity_ - 1);
  }
  void place(Entry entry) {
    std::uint32_t i = home(entry.dst);
    while (entries_[i].dst != 0) i = (i + 1) & (capacity_ - 1);
    entries_[i] = entry;
  }
  void grow() {
    const std::uint32_t old_capacity = capacity_;
    std::unique_ptr<Entry[]> old = std::move(entries_);
    capacity_ = old_capacity == 0 ? 4 : old_capacity * 4;
    entries_ = std::make_unique<Entry[]>(capacity_);
    for (std::uint32_t i = 0; i < old_capacity; ++i) {
      if (old[i].dst != 0) place(old[i]);
    }
  }

  std::unique_ptr<Entry[]> entries_;
  std::uint32_t capacity_ = 0;  // 0 or a power of four
  std::uint32_t size_ = 0;
};

}  // namespace matrix
