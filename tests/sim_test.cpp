// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.hpp"

namespace sharegrid::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(200, [&] { ++fired; });
  sim.schedule_at(300, [&] { ++fired; });
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
  sim.run_until(500);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 500);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 90);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run_until(100);
  EXPECT_THROW(sim.schedule_at(50, [] {}), ContractViolation);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), ContractViolation);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 42; ++i) sim.schedule_at(i, [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_processed(), 42u);
}

TEST(Simulator, LivenessFlagsStartTrueAndNeverMove) {
  Simulator sim;
  bool* first = sim.new_liveness_flag();
  EXPECT_TRUE(*first);
  *first = false;
  std::vector<bool*> more;
  for (int i = 0; i < 10000; ++i) more.push_back(sim.new_liveness_flag());
  // Still the same flag after the store grew (debug-asan would flag a
  // relocation), and every flag is its own.
  EXPECT_FALSE(*first);
  for (bool* flag : more) EXPECT_TRUE(*flag);
  std::sort(more.begin(), more.end());
  EXPECT_EQ(std::adjacent_find(more.begin(), more.end()), more.end());
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(&sim, 100, 50, [&] { fires.push_back(sim.now()); });
  sim.run_until(300);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 150, 200, 250, 300}));
}

TEST(PeriodicTask, CancelStopsFutureFirings) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, 0, 10, [&] { ++fired; });
  sim.run_until(35);
  task.cancel();
  sim.run_until(100);
  EXPECT_EQ(fired, 4);  // t = 0, 10, 20, 30
}

TEST(PeriodicTask, DestructionIsSafeWithPendingEvents) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTask task(&sim, 0, 10, [&] { ++fired; });
    sim.run_until(15);
  }  // destroyed; its queued event must be inert
  sim.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTask, RejectsANullSimulator) {
  EXPECT_THROW(PeriodicTask(nullptr, 0, 10, [] {}), ContractViolation);
}

TEST(PeriodicTask, BodyCanCancelItself) {
  Simulator sim;
  int fired = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(&sim, 0, 10, [&] {
    if (++fired == 3) handle->cancel();
  });
  handle = &task;
  sim.run_all();
  EXPECT_EQ(fired, 3);
}

}  // namespace
}  // namespace sharegrid::sim
