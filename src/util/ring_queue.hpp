// FIFO queue on one power-of-two ring buffer.
//
// std::deque allocates a block each time its tail crosses into a new one
// and frees the head block once drained, so a queue that stays short but
// never empties still allocates once per block's worth of traffic (every
// twelve elements for a 40-byte sim::Callback). RingQueue keeps its buffer
// while it is in use: it allocates only when its length reaches a new
// high, and a queue that drains after a burst past kKeep elements shrinks
// back to kKeep, so the burst's memory does not stay with the queue.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace sharegrid::util {

/// FIFO of default-constructible, movable elements.
template <class T>
class RingQueue {
 public:
  static constexpr std::size_t kKeep = 64;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes and returns the front element.
  T pop_front() {
    SHAREGRID_EXPECTS(size_ > 0);
    T value = std::move(slots_[head_]);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    if (size_ == 0 && slots_.size() > kKeep) {
      slots_ = std::vector<T>(kKeep);
      head_ = 0;
    }
    return value;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sharegrid::util
