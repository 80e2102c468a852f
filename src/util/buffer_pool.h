// Reusable byte-buffer freelist.
//
// Every wire message in the simulation is one std::vector<uint8_t> payload:
// encoded by the sender, carried by an Envelope, decoded at the receiver,
// then destroyed.  At 10k-client scale that is hundreds of thousands of
// short-lived heap allocations per simulated second.  The pool breaks the
// cycle: the network returns each payload's storage here after the handler
// runs, and senders rent recycled buffers (capacity intact, contents
// cleared) for the next encode — steady-state message traffic touches the
// allocator only while the pool is still warming up.
#pragma once

#include <cstdint>
#include <vector>

namespace matrix {

class BufferPool {
 public:
  struct Counters {
    std::uint64_t acquired = 0;  ///< total acquire() calls
    std::uint64_t reused = 0;    ///< acquires served from the freelist
    std::uint64_t retained = 0;  ///< buffers returned and kept for reuse
  };

  /// Returned buffers above this capacity are dropped rather than retained,
  /// so one giant StateTransfer cannot pin memory for the rest of the run.
  static constexpr std::size_t kMaxRetainedCapacity = 32 * 1024;
  /// Freelist depth bound; beyond it, returned buffers are simply freed.
  static constexpr std::size_t kMaxFree = 4096;

  /// Rents a buffer: recycled (cleared, capacity preserved) when available,
  /// otherwise empty and fresh.
  [[nodiscard]] std::vector<std::uint8_t> acquire() {
    ++counters_.acquired;
    if (free_.empty()) return {};
    ++counters_.reused;
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    buf.clear();
    return buf;
  }

  /// Returns a buffer's storage to the freelist (bounded; oversized or
  /// capacity-less buffers are dropped).
  void release(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > kMaxRetainedCapacity ||
        free_.size() >= kMaxFree) {
      return;
    }
    ++counters_.retained;
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::size_t idle() const { return free_.size(); }
  /// Bytes held by the freelist: idle buffer capacity plus its headers.
  [[nodiscard]] std::size_t idle_bytes() const {
    std::size_t bytes = free_.capacity() * sizeof(std::vector<std::uint8_t>);
    for (const auto& buf : free_) bytes += buf.capacity();
    return bytes;
  }

 private:
  std::vector<std::vector<std::uint8_t>> free_;
  Counters counters_;
};

}  // namespace matrix
