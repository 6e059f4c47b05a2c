#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <string>

#include "audit/invariant_auditor.hpp"

namespace sharegrid::sim {

void TimingWheel::insert_overflow(EventNode* node) {
  append(overflow_, node);
  if (node->time < overflow_min_) overflow_min_ = node->time;
}

SimTime TimingWheel::deep_min() const {
  for (int level = 1; level < kLevels; ++level) {
    const std::uint64_t occupied = upper(level).occupied;
    if (occupied == 0) continue;
    const int shift = level_shift(level);
    const SimTime span_mask =
        (static_cast<SimTime>(kSlots) << shift) - 1;  // level bucket group
    return (cursor_ & ~span_mask) +
           (static_cast<SimTime>(std::countr_zero(occupied)) << shift);
  }
  return overflow_min_;
}

void TimingWheel::cascade(int level, std::size_t index) {
  UpperLevel& u = upper(level);
  const Chains& slot = u.slots[index];
  u.occupied &= ~(std::uint64_t{1} << index);
  const std::uint32_t count = u.count[index];
  u.count[index] = 0;
  // Re-filing in filing order keeps equal-time events in seq (FIFO) order:
  // every node lands at a strictly lower level because the cursor now
  // shares this bucket's high bits with each deadline. A node's next link
  // is read before any node of its round is re-filed (place() overwrites
  // it), so each round issues four independent loads.
  EventNode* chain[kChains] = {};
  std::copy_n(slot.head, std::min<std::size_t>(count, kChains), chain);
  std::uint32_t i = 0;
  for (; i + kChains <= count; i += kChains) {
    EventNode* round[kChains];
    for (std::size_t c = 0; c < kChains; ++c) {
      round[c] = chain[c];
      chain[c] = round[c]->next;
    }
    for (EventNode* node : round) place(node);
  }
  for (std::size_t c = 0; i < count; ++i, ++c) place(chain[c]);
}

void TimingWheel::rescan_overflow() {
  EventNode* node = overflow_.head;
  overflow_ = List{};
  overflow_min_ = kNoEvent;
  while (node != nullptr) {
    EventNode* next = node->next;
    if ((node->time >> kHorizonBits) == (cursor_ >> kHorizonBits)) {
      place(node);
    } else {
      insert_overflow(node);
    }
    node = next;
  }
}

void TimingWheel::advance_to(SimTime t) {
  SHAREGRID_EXPECTS(t >= cursor_);
  if (t == cursor_) return;
  const SimTime previous = cursor_;
  cursor_ = t;
  if (overflow_.head != nullptr &&
      (previous >> kHorizonBits) != (t >> kHorizonBits)) {
    rescan_overflow();
  }
  // Only the bucket containing t can hold work this move exposes: buckets
  // behind it would hold past events (impossible — the caller never
  // advances past the earliest pending event) and buckets ahead are
  // untouched. A cascaded node never lands in t's bucket at a lower level
  // (its slot index differs from t's at the landing level by construction),
  // so one cascade per level suffices; top-down keeps the walk order
  // deterministic.
  for (int level = kLevels - 1; level >= 1; --level) {
    const std::uint64_t occupied = upper(level).occupied;
    if (occupied == 0) continue;
    const std::size_t index = slot_index(t, level);
    if ((occupied >> index) & 1u) cascade(level, index);
  }
}

void TimingWheel::audit_consistency(std::uint64_t inserted,
                                    std::uint64_t popped) const {
  std::uint64_t pending = 0;
  // Checks one pending node found at @p level / @p index, after @p prev in
  // its slot's filing order.
  auto check_node = [&](const EventNode* node, const EventNode* prev,
                        int level, std::size_t index) {
    ++pending;
    audit::require(node->time >= cursor_, "sim.wheel-past-event", [&] {
      return "event seq " + std::to_string(node->seq) + " at t=" +
             std::to_string(node->time) + " is behind the cursor " +
             std::to_string(cursor_) + "; it was skipped, not executed";
    });
    const std::size_t filed =
        level == 0 ? static_cast<std::size_t>(node->time & kLevel0Mask)
                   : slot_index(node->time, level);
    audit::require(
        level_for(node->time, cursor_) == level && filed == index,
        "sim.wheel-misfiled-event", [&] {
          return "event seq " + std::to_string(node->seq) + " at t=" +
                 std::to_string(node->time) + " sits at level " +
                 std::to_string(level) + " slot " + std::to_string(index) +
                 " but belongs elsewhere for cursor " +
                 std::to_string(cursor_) + "; a cascade was skipped";
        });
    audit::require(
        prev == nullptr || prev->time != node->time || prev->seq < node->seq,
        "sim.wheel-fifo-order", [&] {
          return "equal-time events seq " + std::to_string(prev->seq) +
                 " and " + std::to_string(node->seq) +
                 " are out of scheduling order at t=" +
                 std::to_string(node->time) +
                 "; a cascade reordered a slot";
        });
  };
  auto require_bit = [](bool bit, bool occupied, int level,
                        std::size_t index) {
    audit::require(bit == occupied, "sim.wheel-bitmap", [&] {
      return "level " + std::to_string(level) + " slot " +
             std::to_string(index) +
             " occupancy bit disagrees with its list; a cascade cleared or "
             "set the wrong bit";
    });
  };

  for (std::size_t word = 0; word < 64; ++word) {
    const bool set = (summary_ >> word) & 1u;
    audit::require(
        set == (word < kLevel0Words && occupied0_[word] != 0),
        "sim.wheel-bitmap", [&] {
          return "level 0 summary bit " + std::to_string(word) +
                 " disagrees with its occupancy word; pop_next would skip "
                 "or misread a slot";
        });
  }
  for (std::size_t index = 0; index < kLevel0Slots; ++index) {
    const EventNode* node = level0_[index].head;
    require_bit((occupied0_[index / 64] >> (index % 64)) & 1u,
                node != nullptr, 0, index);
    for (const EventNode* prev = nullptr; node != nullptr;
         prev = node, node = node->next) {
      check_node(node, prev, 0, index);
    }
  }
  for (int level = 1; level < kLevels; ++level) {
    for (std::size_t index = 0; index < kSlots; ++index) {
      const UpperLevel& u = upper(level);
      const std::uint32_t count = u.count[index];
      require_bit((u.occupied >> index) & 1u, count != 0, level, index);
      // Round-robin over the chains, as a cascade reads them; a chain that
      // ends early stops the walk, and conservation reports the shortfall.
      const EventNode* chain[kChains] = {};
      std::copy_n(u.slots[index].head, std::min<std::size_t>(count, kChains),
                  chain);
      const EventNode* prev = nullptr;
      for (std::uint32_t i = 0; i < count; ++i) {
        const EventNode*& node = chain[i % kChains];
        if (node == nullptr) break;
        check_node(node, prev, level, index);
        prev = node;
        node = node->next;
      }
    }
  }
  for (const EventNode* node = overflow_.head; node != nullptr;
       node = node->next) {
    ++pending;
    audit::require((node->time >> kHorizonBits) != (cursor_ >> kHorizonBits),
                   "sim.wheel-overflow-stale", [&] {
                     return "overflow event seq " + std::to_string(node->seq) +
                            " at t=" + std::to_string(node->time) +
                            " is inside the wheel horizon for cursor " +
                            std::to_string(cursor_) +
                            "; a horizon crossing skipped the rescan";
                   });
  }
  audit::audit_sim_event_conservation(inserted, popped, size_, pending);
}

}  // namespace sharegrid::sim
