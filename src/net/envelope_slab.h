// Shard-wide envelope storage: receive queues and in-flight deliveries.
//
// Every node attached to the network has a FIFO receive queue, but at the
// 100k-client scale almost all of them are empty at any instant: a bot's
// queue holds a message for the few microseconds of its service time.  A
// container per node (std::deque allocates a map and a chunk even when
// empty) therefore costs tens of megabytes holding nothing.  Instead each
// shard owns one EnvelopeSlab for its receive queues and every node it owns
// keeps only a Fifo — head, tail and length — threading an intrusive singly
// linked list through the slab's slots.  Freed slots go on a LIFO free list,
// so the slab grows to the shard's peak queued-message count and never
// beyond.
//
// A per-node ring would also avoid the empty-queue cost, but it keeps each
// queue's peak capacity for the rest of the run: a game server whose queue
// once reached tens of thousands of messages would hold that ring forever,
// while the shared slab hands those slots back to whichever node queues next
// (docs/ARCHITECTURE.md, "Per-client memory budget").
//
// A second EnvelopeSlab per shard holds the messages on the wire: park()
// stores an envelope outside any queue and returns its slot index, which is
// all a delivery event record carries (net/event_queue.h); take() hands the
// envelope back when the delivery fires.
//
// Slots live in a std::deque because it grows without relocating existing
// elements; indices stay valid for the slab's lifetime.  Not thread-safe:
// like every other piece of per-shard state it is touched only by its shard
// (or by the main thread while the workers are parked).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "net/message.h"

namespace matrix {

class EnvelopeSlab {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// One node's queue: a view into the slab, meaningless without it.
  struct Fifo {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t size = 0;

    [[nodiscard]] bool empty() const { return size == 0; }
  };

  void push(Fifo& fifo, Envelope envelope) {
    const std::uint32_t index = park(std::move(envelope));
    if (fifo.tail == kNone) {
      fifo.head = index;
    } else {
      slots_[fifo.tail].next = index;
    }
    fifo.tail = index;
    ++fifo.size;
  }

  [[nodiscard]] const Envelope& front(const Fifo& fifo) const {
    assert(!fifo.empty());
    return slots_[fifo.head].envelope;
  }

  /// Removes and returns the oldest envelope; its slot joins the free list
  /// holding a moved-from (storage-less) payload.
  Envelope pop(Fifo& fifo) {
    assert(!fifo.empty());
    const std::uint32_t index = fifo.head;
    fifo.head = slots_[index].next;
    if (fifo.head == kNone) fifo.tail = kNone;
    --fifo.size;
    return take(index);
  }

  /// Stores `envelope` in a slot of its own and returns the slot index.
  std::uint32_t park(Envelope&& envelope) {
    std::uint32_t index = free_;
    if (index != kNone) {
      free_ = slots_[index].next;
    } else {
      assert(slots_.size() < kNone);
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.envelope = std::move(envelope);
    slot.next = kNone;
    return index;
  }

  /// Returns a parked (or queue-unlinked) envelope and frees its slot.
  Envelope take(std::uint32_t index) {
    Slot& slot = slots_[index];
    Envelope envelope = std::move(slot.envelope);
    slot.next = free_;
    free_ = index;
    return envelope;
  }

  /// Structural footprint of every slot ever allocated (live + free: the
  /// shard's high-water mark); payload storage is pooled separately and
  /// not counted.
  [[nodiscard]] std::size_t bytes() const {
    return slots_.size() * sizeof(Slot);
  }

 private:
  struct Slot {
    // The link sits in the envelope's tail padding (after zero_tail), so a
    // slot stays one 64-byte cache line.
    [[no_unique_address]] Envelope envelope;
    std::uint32_t next = kNone;
  };
  static_assert(sizeof(Slot) <= 64);

  std::deque<Slot> slots_;
  std::uint32_t free_ = kNone;
};

}  // namespace matrix
