// Hierarchical timing wheel: the event store behind sim::Simulator.
//
// Level 0 has 2^11 one-microsecond slots covering the cursor's aligned
// 2,048-us bucket. Six levels of 64 slots sit above it: level L >= 1
// buckets SimTime bits [11 + 6(L-1), 11 + 6L), so the wheel spans 2^47
// microseconds (~4.5 simulated years) before events spill into an overflow
// list. An event lives at the level of the highest bit in which its
// deadline still differs from the cursor ("how far out is it"), and
// cascades one or more levels down whenever the cursor enters its bucket —
// by the time it reaches level 0 its slot holds exactly one timestamp, so
// execution needs no comparisons at all.
//
// Level 0 is sized for the request path (Varghese and Lauck, SOSP 1987:
// keep the common timeout range in the finest level). The 0.5 ms hops,
// 1 ms replies and service completions an admission schedules fall inside
// the cursor's 2,048-us bucket unless they cross its edge, so they are
// filed in the slot where they fire and never cascade. Its occupancy is 32
// 64-bit words under one summary word, so the next event is two
// countr_zeros away. Far events (client arrivals, window ticks) still
// cascade: an upper slot deals its nodes round-robin over four chains and a
// cascade takes them back in the same round-robin, so the i-th node filed is
// node i/4 of chain i%4. That restores filing order exactly while four
// independent pointer chains are walked at once, overlapping the cache
// misses of cold nodes.
//
// Determinism (DESIGN.md D4/D8): slot lists are appended in scheduling
// order and cascades re-insert in that order. Because an event's level is a
// non-increasing function of the cursor (the highest differing bit can only
// fall as the cursor closes in), an earlier-scheduled event can never be
// overtaken by a later-scheduled one at the same timestamp — equal-time
// FIFO order is structural, not enforced by comparisons. The audit build
// re-verifies this plus event conservation after every run.
//
// The wheel stores raw EventNode pointers and never allocates; nodes are
// owned, pooled, and recycled by the Simulator. A node is one 64-byte cache
// line (time, seq, next and a 40-byte Callback), so a cascade that walks a
// slot touches one line per event.
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
  static constexpr int kLevel0Bits = 11;
  static constexpr std::size_t kLevel0Slots = std::size_t{1}
                                              << kLevel0Bits;  // 2048
  static constexpr std::size_t kLevel0Words = kLevel0Slots / 64;  // 32
  static constexpr int kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 64
  static constexpr int kLevels = 7;  ///< level 0 plus six upper levels
  static constexpr int kHorizonBits =
      kLevel0Bits + kSlotBits * (kLevels - 1);  // 47
  static constexpr std::size_t kChains = 4;  ///< per upper slot
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The wheel's notion of current time; insert() requires time >= cursor.
  SimTime cursor() const { return cursor_; }

  /// Files @p node (time >= cursor(); unchecked — the Simulator validates
  /// against its clock, which never trails the cursor) into its level/slot.
  /// O(1).
  void insert(EventNode* node) {
    place(node);
    ++size_;
  }

  /// Pops the earliest event if it is due at or before @p limit, advancing
  /// the cursor to its time; returns nullptr otherwise (the cursor then
  /// never passes min(limit, earliest event time)). The hot path: when
  /// level 0 is occupied its earliest slot is provably ahead of every
  /// deeper bucket and the overflow list, so no scan or cascade runs.
  EventNode* pop_next(SimTime limit) {
    for (;;) {
      if (summary_ != 0) [[likely]] {
        const int word = std::countr_zero(summary_);
        std::uint64_t& bits = occupied0_[word];
        const auto slot = static_cast<std::size_t>(word) * 64 +
                          static_cast<std::size_t>(std::countr_zero(bits));
        const SimTime t = (cursor_ & ~kLevel0Mask) + static_cast<SimTime>(slot);
        if (t > limit) return nullptr;
        cursor_ = t;
        List& s = level0_[slot];
        EventNode* node = s.head;
        s.head = node->next;
        if (s.head == nullptr) {
          bits &= bits - 1;  // clear the lowest set bit
          if (bits == 0) summary_ &= summary_ - 1;
        }
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
  /// (inserted == popped + pending), the occupancy bitmaps and level 0's
  /// summary word, and that each node sits exactly where insert() would
  /// place it for the current cursor, with slots in seq (FIFO) order per
  /// timestamp; upper slots are walked in their round-robin filing order.
  /// O(size); audit builds only.
  void audit_consistency(std::uint64_t inserted, std::uint64_t popped) const;

 private:
  static constexpr SimTime kLevel0Mask =
      static_cast<SimTime>(kLevel0Slots - 1);

  /// A FIFO list; a level-0 slot is empty exactly when head is null.
  struct List {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  /// An upper-level slot's chains, one cache line: with n nodes filed,
  /// node i (in filing order) is node i / kChains of chain i % kChains,
  /// and only the first min(n, kChains) heads and tails are meaningful.
  /// They are never zeroed: a cascade empties the slot by zeroing n.
  struct alignas(64) Chains {
    EventNode* head[kChains];
    EventNode* tail[kChains];
  };

  struct UpperLevel {
    std::uint64_t occupied = 0;        ///< bit i: count[i] > 0
    std::uint32_t count[kSlots] = {};  ///< nodes filed per slot
    Chains slots[kSlots];
  };

  static int level_for(SimTime time, SimTime cursor) {
    const auto delta = static_cast<std::uint64_t>(time ^ cursor);
    if (delta < kLevel0Slots) return 0;
    return 1 + (63 - std::countl_zero(delta) - kLevel0Bits) / kSlotBits;
  }

  /// The lowest SimTime bit an upper level buckets.
  static int level_shift(int level) {
    return kLevel0Bits + kSlotBits * (level - 1);
  }

  static std::size_t slot_index(SimTime time, int level) {
    return static_cast<std::size_t>(time >> level_shift(level)) &
           (kSlots - 1);
  }

  UpperLevel& upper(int level) { return upper_[level - 1]; }
  const UpperLevel& upper(int level) const { return upper_[level - 1]; }

  static void append(List& list, EventNode* node) {
    node->next = nullptr;
    if (list.head == nullptr) {
      list.head = node;
    } else {
      list.tail->next = node;
    }
    list.tail = node;
  }

  /// Files a node without touching size_ (shared by insert and cascades).
  void place(EventNode* node) {
    const int level = level_for(node->time, cursor_);
    if (level == 0) [[likely]] {
      const auto slot = static_cast<std::size_t>(node->time & kLevel0Mask);
      append(level0_[slot], node);
      occupied0_[slot / 64] |= std::uint64_t{1} << (slot % 64);
      summary_ |= std::uint64_t{1} << (slot / 64);
    } else if (level < kLevels) {
      place_upper(node, level);
    } else {
      insert_overflow(node);
    }
  }

  /// Deals @p node to the next chain of its slot at @p level (>= 1).
  void place_upper(EventNode* node, int level) {
    const std::size_t index = slot_index(node->time, level);
    UpperLevel& u = upper(level);
    Chains& s = u.slots[index];
    const std::uint32_t n = u.count[index]++;
    const std::size_t chain = n % kChains;
    node->next = nullptr;
    if (n < kChains) {
      s.head[chain] = node;
    } else {
      s.tail[chain]->next = node;
    }
    s.tail[chain] = node;
    u.occupied |= std::uint64_t{1} << index;
  }

  /// Appends to the overflow list, maintaining overflow_min_.
  void insert_overflow(EventNode* node);

  /// Earliest bucket start among levels 1..6 (or the overflow minimum when
  /// the wheel proper is empty). The lowest occupied level always holds the
  /// minimum: a level-L start shares the cursor's bits above its level
  /// while every deeper start sits at or past that boundary, so no
  /// cross-level comparison is needed. Callers guarantee size_ > 0 and
  /// level 0 empty.
  SimTime deep_min() const;

  /// Detaches level/slot and re-files every node against the current
  /// cursor in filing order; each lands at a strictly lower level (or is
  /// executed next).
  void cascade(int level, std::size_t index);

  /// Moves overflow events whose 2^47-group the cursor has entered into the
  /// wheel. Called when the cursor crosses a horizon boundary.
  void rescan_overflow();

  SimTime cursor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t summary_ = 0;  ///< bit w: occupied0_[w] != 0
  std::uint64_t occupied0_[kLevel0Words] = {};  ///< bit per level-0 slot
  List level0_[kLevel0Slots];
  UpperLevel upper_[kLevels - 1];
  List overflow_;  // beyond-horizon events, in seq order
  SimTime overflow_min_ = kNoEvent;
};

}  // namespace sharegrid::sim
