#include "sim/timing_wheel.hpp"

#include <string>

#include "audit/invariant_auditor.hpp"

namespace sharegrid::sim {

void TimingWheel::place(EventNode* node) {
  const int level = level_for(node->time, cursor_);
  if (level >= kLevels) {
    insert_overflow(node);
    return;
  }
  const std::size_t index = slot_index(node->time, level);
  append(slots_[level][index], node);
  occupied_[level] |= std::uint64_t{1} << index;
}

void TimingWheel::insert_overflow(EventNode* node) {
  append(overflow_, node);
  if (node->time < overflow_min_) overflow_min_ = node->time;
}

SimTime TimingWheel::deep_min() const {
  for (int level = 1; level < kLevels; ++level) {
    if (occupied_[level] == 0) continue;
    const int shift = kSlotBits * level;
    const SimTime span_mask =
        (static_cast<SimTime>(kSlots) << shift) - 1;  // level bucket group
    return (cursor_ & ~span_mask) +
           (static_cast<SimTime>(std::countr_zero(occupied_[level])) << shift);
  }
  return overflow_min_;
}

void TimingWheel::cascade(int level, std::size_t index) {
  Slot& slot = slots_[level][index];
  EventNode* node = slot.head;
  slot.head = nullptr;
  slot.tail = nullptr;
  occupied_[level] &= ~(std::uint64_t{1} << index);
  // Re-filing in list order keeps equal-time events in seq (FIFO) order:
  // every node lands at a strictly lower level because the cursor now
  // shares this bucket's high bits with each deadline.
  while (node != nullptr) {
    EventNode* next = node->next;
    place(node);
    node = next;
  }
}

void TimingWheel::rescan_overflow() {
  EventNode* node = overflow_.head;
  overflow_.head = nullptr;
  overflow_.tail = nullptr;
  overflow_min_ = kNoEvent;
  while (node != nullptr) {
    EventNode* next = node->next;
    if ((node->time >> kHorizonBits) == (cursor_ >> kHorizonBits)) {
      place(node);
    } else {
      append(overflow_, node);
      if (node->time < overflow_min_) overflow_min_ = node->time;
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
    if (occupied_[level] == 0) continue;
    const std::size_t index = slot_index(t, level);
    if ((occupied_[level] >> index) & 1u) cascade(level, index);
  }
}

void TimingWheel::audit_consistency(std::uint64_t inserted,
                                    std::uint64_t popped) const {
  std::uint64_t pending = 0;
  for (int level = 0; level < kLevels; ++level) {
    for (std::size_t index = 0; index < kSlots; ++index) {
      const EventNode* node = slots_[level][index].head;
      audit::require(
          ((occupied_[level] >> index) & 1u) == (node != nullptr ? 1u : 0u),
          "sim.wheel-bitmap", [&] {
            return "level " + std::to_string(level) + " slot " +
                   std::to_string(index) +
                   " occupancy bit disagrees with its list; a cascade "
                   "cleared or set the wrong bit";
          });
      const EventNode* prev = nullptr;
      for (; node != nullptr; node = node->next) {
        ++pending;
        audit::require(node->time >= cursor_, "sim.wheel-past-event", [&] {
          return "event seq " + std::to_string(node->seq) + " at t=" +
                 std::to_string(node->time) + " is behind the cursor " +
                 std::to_string(cursor_) + "; it was skipped, not executed";
        });
        audit::require(level_for(node->time, cursor_) == level &&
                           slot_index(node->time, level) == index,
                       "sim.wheel-misfiled-event", [&] {
                         return "event seq " + std::to_string(node->seq) +
                                " at t=" + std::to_string(node->time) +
                                " sits at level " + std::to_string(level) +
                                " slot " + std::to_string(index) +
                                " but belongs elsewhere for cursor " +
                                std::to_string(cursor_) +
                                "; a cascade was skipped";
                       });
        audit::require(prev == nullptr || prev->time != node->time ||
                           prev->seq < node->seq,
                       "sim.wheel-fifo-order", [&] {
                         return "equal-time events seq " +
                                std::to_string(prev->seq) + " and " +
                                std::to_string(node->seq) +
                                " are out of scheduling order at t=" +
                                std::to_string(node->time) +
                                "; a cascade reordered a slot list";
                       });
        prev = node;
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
