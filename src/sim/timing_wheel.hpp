// Hierarchical timing wheel: the event store behind sim::Simulator.
//
// Eight levels of 64 slots each; level L buckets SimTime bits
// [6L, 6L+6), so the wheel spans 2^48 microseconds (~8.9 simulated years)
// before events spill into an overflow list. An event lives at the level of
// the highest bit in which its deadline still differs from the cursor
// ("how far out is it"), and cascades one or more levels down whenever the
// cursor enters its bucket — by the time it reaches level 0 its slot holds
// exactly one timestamp, so execution needs no comparisons at all.
//
// Determinism (DESIGN.md D4/D8): slot lists are appended in scheduling
// order and cascades re-insert in list order. Because an event's level is a
// non-increasing function of the cursor (the highest differing bit can only
// fall as the cursor closes in), an earlier-scheduled event can never be
// overtaken by a later-scheduled one at the same timestamp — equal-time
// FIFO order is structural, not enforced by comparisons. The audit build
// re-verifies this plus event conservation after every cascade.
//
// The wheel stores raw EventNode pointers and never allocates; nodes are
// owned, pooled, and recycled by the Simulator. A node is one 64-byte cache
// line (time, seq, next and a 40-byte Callback), so a cascade that walks a
// slot list touches one line per event.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "sim/callback.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace sharegrid::sim {

/// One scheduled event. Pool-allocated by the Simulator, threaded through
/// wheel slot lists (or the freelist) via `next`. Exactly one cache line:
/// filing, cascading and dispatching an event touch a single line, and a
/// 64-node chunk is 4 KiB.
struct alignas(64) EventNode {
  SimTime time = 0;
  std::uint64_t seq = 0;  ///< scheduling order; audits equal-time FIFO
  EventNode* next = nullptr;
  Callback fn;
};

static_assert(sizeof(EventNode) == 64,
              "an event node is one cache line: time, seq, next, callback");

/// Hierarchical timing wheel over EventNodes (see file comment).
class TimingWheel {
 public:
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 64
  static constexpr int kLevels = 8;
  static constexpr int kHorizonBits = kSlotBits * kLevels;  // 48
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The wheel's notion of current time; insert() requires time >= cursor.
  SimTime cursor() const { return cursor_; }

  /// Files @p node (time >= cursor(); unchecked — the Simulator validates
  /// against its clock, which never trails the cursor) into its level/slot.
  /// O(1).
  void insert(EventNode* node) {
    const int level = level_for(node->time, cursor_);
    if (level < kLevels) [[likely]] {
      const std::size_t index = slot_index(node->time, level);
      append(slots_[level][index], node);
      occupied_[level] |= std::uint64_t{1} << index;
    } else {
      insert_overflow(node);
    }
    ++size_;
  }

  /// Pops the earliest event if it is due at or before @p limit, advancing
  /// the cursor to its time; returns nullptr otherwise (the cursor then
  /// never passes min(limit, earliest event time)). The hot path: when
  /// level 0 is occupied its earliest slot is provably ahead of every
  /// deeper bucket and the overflow list, so no scan or cascade runs.
  EventNode* pop_next(SimTime limit) {
    for (;;) {
      if (occupied_[0] != 0) [[likely]] {
        const int slot = std::countr_zero(occupied_[0]);
        const SimTime t = (cursor_ & ~static_cast<SimTime>(kSlots - 1)) + slot;
        if (t > limit) return nullptr;
        cursor_ = t;
        Slot& s = slots_[0][static_cast<std::size_t>(slot)];
        EventNode* node = s.head;
        s.head = node->next;
        if (s.head == nullptr) {
          s.tail = nullptr;
          occupied_[0] &= occupied_[0] - 1;  // clear the lowest set bit
        }
        node->next = nullptr;
        --size_;
        return node;
      }
      if (size_ == 0) return nullptr;
      const SimTime best = deep_min();
      if (best > limit) return nullptr;
      advance_to(best);  // cascades; the next pass finds level 0 occupied
    }
  }

  /// Advances the cursor to @p t, which must not pass the earliest pending
  /// event; re-files events whose bucket the cursor enters.
  void advance_to(SimTime t);

  /// Walks every slot and the overflow list, checking event conservation
  /// (inserted == popped + pending) and that each node sits exactly where
  /// insert() would place it for the current cursor, with slot lists in
  /// seq (FIFO) order per timestamp. O(size); audit builds only.
  void audit_consistency(std::uint64_t inserted, std::uint64_t popped) const;

 private:
  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static int level_for(SimTime time, SimTime cursor) {
    const auto delta = static_cast<std::uint64_t>(time ^ cursor);
    if (delta == 0) return 0;
    return (63 - std::countl_zero(delta)) / kSlotBits;
  }

  static std::size_t slot_index(SimTime time, int level) {
    return static_cast<std::size_t>(time >> (kSlotBits * level)) &
           (kSlots - 1);
  }

  void append(Slot& slot, EventNode* node) {
    node->next = nullptr;
    if (slot.tail != nullptr) {
      slot.tail->next = node;
    } else {
      slot.head = node;
    }
    slot.tail = node;
  }

  /// Files a node without touching size_ (shared by insert and cascades).
  void place(EventNode* node);

  /// Appends to the overflow list, maintaining overflow_min_.
  void insert_overflow(EventNode* node);

  /// Earliest bucket start among levels 1..7 (or the overflow minimum when
  /// the wheel proper is empty). The lowest occupied level always holds the
  /// minimum: a level-L start shares the cursor's bits above 6(L+1) while
  /// every deeper start sits at or past that boundary, so no cross-level
  /// comparison is needed. Callers guarantee size_ > 0 and level 0 empty.
  SimTime deep_min() const;

  /// Detaches level/slot and re-files every node against the current
  /// cursor; each lands at a strictly lower level (or is executed next).
  void cascade(int level, std::size_t index);

  /// Moves overflow events whose 2^48-group the cursor has entered into the
  /// wheel. Called when the cursor crosses a horizon boundary.
  void rescan_overflow();

  SimTime cursor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t occupied_[kLevels] = {};  // bitmap per level
  Slot slots_[kLevels][kSlots];
  Slot overflow_;                  // beyond-horizon events, in seq order
  SimTime overflow_min_ = kNoEvent;
};

}  // namespace sharegrid::sim
