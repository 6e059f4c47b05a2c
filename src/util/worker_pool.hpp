// Small persistent worker pool for the sharded simulator's lanes
// (sim/sharded_simulator.hpp, DESIGN.md D13).
//
// Deliberately minimal: one kind of job (run fn(i) for every index in a
// range), the caller participates so a pool of zero threads degrades to a
// plain serial loop, and runs are serialized — the engine issues one
// fan-out per epoch, so queueing sophistication would buy nothing.
// Determinism matters more than throughput here: results are written by
// index into caller-owned slots, and when callables throw, the exception
// rethrown is always the one from the *lowest* index, independent of
// thread interleaving, so a failing epoch fails identically in serial and
// parallel runs.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace sharegrid {

/// Fixed-size thread pool running indexed fan-out jobs.
class WorkerPool {
 public:
  /// Spawns @p threads workers. Zero is valid: run_indexed() then executes
  /// entirely on the calling thread.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(0) .. fn(count - 1), each exactly once, distributed over the
  /// workers with the calling thread participating; returns when all have
  /// finished. If callables throw, every index still runs and the exception
  /// from the lowest throwing index is rethrown. Concurrent callers are
  /// serialized.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn)
      SHAREGRID_EXCLUDES(run_mutex_, mutex_);

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop() SHAREGRID_EXCLUDES(mutex_);
  /// Claims and runs indexes of the current job until none remain.
  void participate() SHAREGRID_EXCLUDES(mutex_);

  util::Mutex run_mutex_;  // serializes run_indexed callers (nothing guarded:
                           // held across a whole fan-out, never nested inside
                           // mutex_, hence the EXCLUDES on run_indexed)

  util::Mutex mutex_;  // guards the job state below
  util::CondVar wake_;  // workers: a new job arrived (or stop)
  util::CondVar done_;  // caller: all indexes finished
  const std::function<void(std::size_t)>* fn_ SHAREGRID_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t count_ SHAREGRID_GUARDED_BY(mutex_) = 0;
  std::size_t next_ SHAREGRID_GUARDED_BY(mutex_) = 0;
  std::size_t pending_ SHAREGRID_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ SHAREGRID_GUARDED_BY(mutex_) = 0;
  bool stop_ SHAREGRID_GUARDED_BY(mutex_) = false;
  std::vector<std::exception_ptr> errors_ SHAREGRID_GUARDED_BY(mutex_);

  std::vector<std::thread> workers_;  // written only in ctor/dtor
};

}  // namespace sharegrid
