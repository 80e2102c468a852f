// Sorted-vector map — the session-table structure of the per-tick hot loop.
//
// GameServer iterates its full client table several times per update tick
// (median position, update fan-out, visible-entity estimate) and mutates it
// rarely by comparison (joins, byes, redirects).  A red-black tree pays
// pointer-chasing on every one of those scans; a sorted vector of pairs is
// one contiguous sweep.  Lookups are binary searches; inserts/erases shift
// the tail (O(n)), which at games' join/leave rates is noise next to the
// per-tick scans they amortize against.
//
// Iteration order is ascending by key — IDENTICAL to std::map — because the
// fan-out loops' send order is trace-visible: swapping this structure in
// must not perturb the pinned golden hashes (tests/determinism_test.cpp
// proves it did not).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace matrix {

template <typename Key, typename Value>
class FlatMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() { return data_.begin(); }
  [[nodiscard]] iterator end() { return data_.end(); }
  [[nodiscard]] const_iterator begin() const { return data_.begin(); }
  [[nodiscard]] const_iterator end() const { return data_.end(); }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  void clear() { data_.clear(); }
  void reserve(std::size_t n) { data_.reserve(n); }
  /// Bytes of element storage allocated.
  [[nodiscard]] std::size_t bytes() const {
    return data_.capacity() * sizeof(value_type);
  }

  [[nodiscard]] iterator find(const Key& key) {
    auto it = lower(key);
    return it != data_.end() && it->first == key ? it : data_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    auto it = lower(key);
    return it != data_.end() && it->first == key ? it : data_.end();
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return find(key) != data_.end() ? 1 : 0;
  }
  [[nodiscard]] bool contains(const Key& key) const { return count(key) != 0; }

  /// std::map semantics: default-constructs on first access.
  Value& operator[](const Key& key) {
    auto it = lower(key);
    if (it == data_.end() || it->first != key) {
      it = data_.emplace(it, key, Value{});
    }
    return it->second;
  }

  /// Erase by iterator; returns the iterator past the removed element (the
  /// erase-during-iteration idiom of the shed loop).
  iterator erase(iterator it) { return data_.erase(it); }
  std::size_t erase(const Key& key) {
    auto it = find(key);
    if (it == data_.end()) return 0;
    data_.erase(it);
    return 1;
  }

 private:
  [[nodiscard]] iterator lower(const Key& key) {
    return std::lower_bound(
        data_.begin(), data_.end(), key,
        [](const value_type& entry, const Key& k) { return entry.first < k; });
  }
  [[nodiscard]] const_iterator lower(const Key& key) const {
    return std::lower_bound(
        data_.begin(), data_.end(), key,
        [](const value_type& entry, const Key& k) { return entry.first < k; });
  }

  std::vector<value_type> data_;
};

}  // namespace matrix
