// Flat, cache-conscious hash map for hot-path state.
//
// The paper-scale experiments kept per-connection state in a node-based
// std::map, whose every lookup chases red-black-tree pointers and whose
// every insert/erase allocates. At the million-client scale the ROADMAP
// targets, that map dominated the redirector packet path. FlatHashMap
// replaces it with contiguous storage (the shape of Ceph's mini_flat_map.h /
// bitset_set.h): an open-addressing linear-probe hash table with
// backward-shift deletion (no tombstones), O(1) insert/find/erase with one
// contiguous allocation. It keys the NAT connection table.
//
// It is deterministic: behaviour and iteration order depend only on the
// operation history (and the hash function), never on pointer values or
// randomized seeds, so simulator runs stay bit-reproducible (DESIGN.md D4).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace sharegrid::util {

/// splitmix64 finalizer: cheap, well-mixed 64-bit hash for integer keys.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-dependent combination of two 64-bit hashes.
inline std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return mix64(seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) +
                       (seed >> 2)));
}

/// Open-addressing hash map: one contiguous slot array, linear probing,
/// backward-shift deletion. No per-entry allocation, no tombstone decay, and
/// probes touch consecutive cache lines. Occupancy lives in a bitmap beside
/// the slot array, so a slot is exactly sizeof(value_type): a per-slot flag
/// would pad a 12-byte entry to 16. Capacity is a power of two and grows at
/// 7/8 load. Key and Value should be cheap to move; equality must be exact
/// (the simulator's endpoint/id keys are integral).
template <class Key, class Value, class Hash = std::hash<Key>>
class FlatHashMap {
 public:
  using value_type = std::pair<Key, Value>;

  /// Forward iterator over occupied slots, in slot order (deterministic for
  /// a given operation history and hash function).
  template <bool Const>
  class Iterator {
   public:
    using MapPtr = std::conditional_t<Const, const FlatHashMap*, FlatHashMap*>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

    Iterator() = default;
    Iterator(MapPtr map, std::size_t slot) : map_(map), slot_(slot) {
      skip_empty();
    }
    /// Const iterators are constructible from mutable ones (find() / end()
    /// mixing in callers and the audit templates).
    template <bool C = Const, class = std::enable_if_t<C>>
    Iterator(const Iterator<false>& other)  // NOLINT(runtime/explicit)
        : map_(other.map_), slot_(other.slot_) {}

    Ref operator*() const { return map_->slots_[slot_]; }
    Ptr operator->() const { return &map_->slots_[slot_]; }
    Iterator& operator++() {
      ++slot_;
      skip_empty();
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.slot_ != b.slot_;
    }

   private:
    friend class FlatHashMap;
    friend class Iterator<true>;
    void skip_empty() {
      if (map_ != nullptr) slot_ = map_->next_occupied(slot_);
    }
    MapPtr map_ = nullptr;
    std::size_t slot_ = 0;
  };

  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  FlatHashMap() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    occupied_.clear();
    size_ = 0;
  }

  /// Pre-sizes the table for @p n entries without rehash churn.
  void reserve(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 7 / 8 < n) want <<= 1;
    if (want > slots_.size()) rehash(want);
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, slots_.size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

  iterator find(const Key& key) {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? end() : iterator(this, slot);
  }
  const_iterator find(const Key& key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? end() : const_iterator(this, slot);
  }
  bool contains(const Key& key) const { return find_slot(key) != kNotFound; }

  std::pair<iterator, bool> insert_or_assign(const Key& key, Value value) {
    grow_if_needed();
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash_(key) & mask;
    while (occupied(slot)) {
      if (slots_[slot].first == key) {
        slots_[slot].second = std::move(value);
        return {iterator(this, slot), false};
      }
      slot = (slot + 1) & mask;
    }
    slots_[slot] = {key, std::move(value)};
    set_occupied(slot);
    ++size_;
    return {iterator(this, slot), true};
  }

  Value& operator[](const Key& key) {
    return insert_if_absent(key).first->second;
  }

  /// Erases by key with backward shift: subsequent probe-chain entries slide
  /// into the hole so lookups never need tombstones. Returns 0 or 1.
  std::size_t erase(const Key& key) {
    std::size_t hole = find_slot(key);
    if (hole == kNotFound) return 0;
    const std::size_t mask = slots_.size() - 1;
    std::size_t probe = hole;
    while (true) {
      probe = (probe + 1) & mask;
      if (!occupied(probe)) break;
      const std::size_t home = hash_(slots_[probe].first) & mask;
      // The entry at `probe` may fill the hole only if its home position
      // does not lie strictly between the hole and the probe (cyclically) —
      // otherwise moving it would break its own probe chain.
      if (((probe - home) & mask) >= ((probe - hole) & mask)) {
        slots_[hole] = std::move(slots_[probe]);
        hole = probe;
      }
    }
    occupied_[hole / 64] &= ~(std::uint64_t{1} << (hole % 64));
    slots_[hole] = value_type{};
    --size_;
    return 1;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// Like insert_or_assign but keeps an existing value.
  std::pair<iterator, bool> insert_if_absent(const Key& key) {
    grow_if_needed();
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash_(key) & mask;
    while (occupied(slot)) {
      if (slots_[slot].first == key) return {iterator(this, slot), false};
      slot = (slot + 1) & mask;
    }
    slots_[slot] = {key, Value{}};
    set_occupied(slot);
    ++size_;
    return {iterator(this, slot), true};
  }

  static bool test_bit(const std::vector<std::uint64_t>& words,
                       std::size_t i) {
    return ((words[i / 64] >> (i % 64)) & 1) != 0;
  }
  bool occupied(std::size_t slot) const { return test_bit(occupied_, slot); }
  void set_occupied(std::size_t slot) {
    occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  /// First occupied slot at or after @p slot; capacity() when none.
  std::size_t next_occupied(std::size_t slot) const {
    while (slot < slots_.size()) {
      const std::uint64_t word = occupied_[slot / 64] >> (slot % 64);
      if (word != 0)
        return slot + static_cast<std::size_t>(std::countr_zero(word));
      slot = (slot / 64 + 1) * 64;
    }
    return slots_.size();
  }

  std::size_t find_slot(const Key& key) const {
    if (slots_.empty()) return kNotFound;
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash_(key) & mask;
    while (occupied(slot)) {
      if (slots_[slot].first == key) return slot;
      slot = (slot + 1) & mask;
    }
    return kNotFound;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
      return;
    }
    // 7/8 max load keeps expected probe chains short without wasting half
    // the table the way a 1/2 threshold would.
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(slots_.size() * 2);
  }

  void rehash(std::size_t new_capacity) {
    SHAREGRID_ASSERT((new_capacity & (new_capacity - 1)) == 0);
    std::vector<value_type> old = std::move(slots_);
    std::vector<std::uint64_t> old_occupied = std::move(occupied_);
    slots_.assign(new_capacity, value_type{});
    occupied_.assign((new_capacity + 63) / 64, 0);
    const std::size_t mask = new_capacity - 1;
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (!test_bit(old_occupied, i)) continue;
      std::size_t slot = hash_(old[i].first) & mask;
      while (occupied(slot)) slot = (slot + 1) & mask;
      slots_[slot] = std::move(old[i]);
      set_occupied(slot);
    }
  }

  std::vector<value_type> slots_;
  std::vector<std::uint64_t> occupied_;  ///< bit i: slot i holds an entry
  std::size_t size_ = 0;
  Hash hash_;
};

}  // namespace sharegrid::util
