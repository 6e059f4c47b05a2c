// Deterministic discrete-event simulation engine.
//
// Substitute for the paper's physical testbed (DESIGN.md §4): every node —
// client machines, redirectors, servers, combining-tree links — advances by
// scheduling callbacks on one shared event store. Events at equal timestamps
// fire in scheduling order (a stable tie-break), so runs are bit-reproducible
// (DESIGN.md D4).
//
// The store is a hierarchical timing wheel (timing_wheel.hpp) rather than a
// binary heap: O(1) schedule and pop instead of O(log n). Its level 0 spans
// 2,048 one-microsecond slots, so the request path's hops, replies and
// service completions are filed in the slot where they fire, and only far
// events (client arrivals, window ticks) cascade. Event nodes are one
// 64-byte cache line each and come from a freelist, and the small-buffer
// Callback (callback.hpp) stores closures of up to 32 bytes inline, so only
// larger closures allocate. The request path keeps its
// closures inside that budget by carrying slab handles (nodes/request.hpp)
// and a plain pointer to a liveness flag the simulator owns
// (new_liveness_flag). Design notes and measurements:
// docs/sim-performance.md, DESIGN.md D8.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/timing_wheel.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace sharegrid::sim {

/// Single-threaded event-driven simulator.
class Simulator {
 public:
  using Callback = sim::Callback;

  /// User-provided, so value-initialization (std::make_unique) runs the
  /// member initializers instead of zeroing the whole object: the wheel's
  /// upper-slot chains are written before they are read, and the pages of
  /// levels a run never reaches stay untouched.
  Simulator() {}

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules @p fn to run at absolute time @p t (>= now()). Raw callables
  /// are constructed directly into the event node's inline buffer — no
  /// intermediate Callback and no relocation on the way in.
  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    SHAREGRID_EXPECTS(t >= now_);
    EventNode* node = free_;
    if (node == nullptr) [[unlikely]] node = grow();
    free_ = node->next;
    node->next = nullptr;
    node->time = t;
    node->seq = next_seq_++;
    node->fn = std::forward<F>(fn);
    SHAREGRID_EXPECTS(node->fn != nullptr);
    wheel_.insert(node);
  }

  /// Schedules @p fn to run @p delay after now().
  template <class F>
  void schedule_after(SimDuration delay, F&& fn) {
    SHAREGRID_EXPECTS(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the store empties or simulated time would pass
  /// @p deadline; leaves now() == deadline.
  void run_until(SimTime deadline);

  /// Runs until the event store is empty; leaves now() at the last event.
  void run_all();

  /// True if no events remain.
  bool idle() const { return wheel_.empty(); }

  /// Total events executed so far (for the micro benches).
  std::uint64_t events_processed() const { return events_processed_; }

  /// A new liveness flag, set to true. A node or task whose pending events
  /// must turn inert once it is gone captures the pointer in its closures
  /// and clears the flag in its destructor; the closures check it before
  /// touching the node. The flag lives as long as this simulator, never
  /// moves, and is never reused, so closures carry 8 bytes and no
  /// refcount. Contract: whoever takes a flag is destroyed before this
  /// simulator.
  bool* new_liveness_flag() { return &flags_.emplace_back(true); }

 private:
  /// Nodes are pool-allocated in chunks and recycled through a freelist, so
  /// the steady-state loop never touches the heap.
  static constexpr std::size_t kChunk = 64;

  /// Refills the freelist with a fresh chunk; returns its first node.
  EventNode* grow();
  void release(EventNode* node) {
    node->next = free_;
    free_ = node;
  }
  /// Runs the node's callback in place (a follow-up schedule draws a
  /// different node from the freelist), then recycles it.
  void dispatch(EventNode* node);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  TimingWheel wheel_;
  EventNode* free_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> arena_;
  std::deque<bool> flags_;  // see new_liveness_flag(); elements never move
};

/// Helper that reruns a callback at a fixed period until cancelled; the
/// backbone of window schedulers and combining-tree rounds.
class PeriodicTask {
 public:
  /// Starts firing at @p start and then every @p period. The callback runs
  /// while the task is live; destroying or cancel()ing stops future firings.
  /// The task takes a liveness flag from @p sim, so it must be destroyed
  /// before @p sim.
  PeriodicTask(Simulator* sim, SimTime start, SimDuration period,
               std::function<void()> body);
  ~PeriodicTask() { cancel(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void cancel() { *alive_ = false; }

 private:
  void arm(SimTime when);

  Simulator* sim_;
  SimDuration period_;
  std::function<void()> body_;  // stored once; rearming never re-wraps it
  bool* alive_ = nullptr;       // owned by sim_
};

}  // namespace sharegrid::sim
