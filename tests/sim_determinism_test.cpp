// Determinism suite for the timing-wheel event engine (DESIGN.md D4/D8).
//
// The wheel must be observationally identical to a (time, seq)-ordered
// priority queue: equal-timestamp FIFO even when events reach level 0
// through different cascade paths, exact deadline semantics, and correct
// ordering across bucket edges, level boundaries, and the 2^47-us overflow
// horizon. Violations here would silently change every figure bench.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/timing_wheel.hpp"
#include "util/assert.hpp"

namespace sharegrid::sim {
namespace {

TEST(TimingWheel, EqualTimestampFifoAcrossCascadeDepths) {
  // Three events at the same instant, scheduled from ever-closer cursors so
  // each enters the wheel at a different level; cascades must still deliver
  // them in scheduling order.
  constexpr SimTime kT = 1'000'000;  // differs in bits [17, 23): level 2
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(kT, [&] { order.push_back(0); });
  sim.run_until(950'000);  // kT now differs in bits [11, 17) -> level 1
  sim.schedule_at(kT, [&] { order.push_back(1); });
  sim.run_until(999'999);  // kT now differs only in bits [0, 11) -> level 0
  sim.schedule_at(kT, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), kT);
}

TEST(TimingWheel, BucketEdgeTimesExecuteInOrder) {
  // Event times straddling every level's bucket edge, scheduled in a
  // scrambled order; execution must sort by time with FIFO ties.
  // 2048 (2^11), 2^17 and 2^23 are level edges; 64, 4096, 2^18 and 2^24
  // fall inside a level.
  const std::vector<SimTime> edges = {
      0,        1,       63,      64,      65,      2047,    2048,
      2049,     4095,    4096,    4097,    131071,  131072,  131073,
      262143,   262144,  262145,  8388607, 8388608, 8388609, 16777215,
      16777216, 16777217};
  Simulator sim;
  std::vector<SimTime> fired;
  // Schedule back-to-front, then front-to-back duplicates: per timestamp the
  // back-to-front copy has the lower seq and must fire first.
  std::vector<int> copy_order;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    const SimTime t = *it;
    sim.schedule_at(t, [&, t] {
      fired.push_back(t);
      copy_order.push_back(0);
    });
  }
  for (const SimTime t : edges) {
    sim.schedule_at(t, [&, t] {
      fired.push_back(t);
      copy_order.push_back(1);
    });
  }
  sim.run_all();
  ASSERT_EQ(fired.size(), 2 * edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(fired[2 * i], edges[i]);
    EXPECT_EQ(fired[2 * i + 1], edges[i]);
    EXPECT_EQ(copy_order[2 * i], 0) << "seq order lost at t=" << edges[i];
    EXPECT_EQ(copy_order[2 * i + 1], 1);
  }
}

TEST(TimingWheel, RunUntilLandsExactlyOnDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime{1} << 30, [&] { ++fired; });
  // Deadlines that cross several level boundaries without reaching the
  // event; each must leave now() == deadline and the event pending.
  for (const SimTime deadline :
       {SimTime{63}, SimTime{64}, SimTime{4096}, SimTime{1} << 20,
        (SimTime{1} << 30) - 1}) {
    sim.run_until(deadline);
    EXPECT_EQ(sim.now(), deadline);
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(sim.idle());
    // The engine must accept new work exactly at the deadline.
    sim.schedule_at(deadline, [] {});
    sim.run_until(deadline);
  }
  sim.run_until(SimTime{1} << 30);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime{1} << 30);
  EXPECT_TRUE(sim.idle());
}

TEST(TimingWheel, EventsBeyondHorizonExecuteInOrder) {
  // 2^47 us is the wheel span; events past it live in the overflow list
  // until the cursor crosses into their horizon group.
  constexpr SimTime kHorizon = SimTime{1} << 47;
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(kHorizon + 10, [&] { order.push_back(2); });
  sim.schedule_at(kHorizon - 1, [&] { order.push_back(0); });
  sim.schedule_at(kHorizon, [&] { order.push_back(1); });
  sim.schedule_at(3 * kHorizon + 5, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 3 * kHorizon + 5);
}

TEST(TimingWheel, OverflowFifoAtEqualTimes) {
  constexpr SimTime kFar = (SimTime{1} << 49) + 123;
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i)
    sim.schedule_at(kFar, [&order, i] { order.push_back(i); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimingWheel, RandomizedOrderMatchesStableSortReference) {
  // 4096 events at xorshift-random times across all wheel levels plus the
  // overflow, with deliberate collisions (times masked coarsely). Execution
  // order must equal a stable sort by time — the old heap's contract.
  Simulator sim;
  std::vector<std::pair<SimTime, int>> reference;
  std::vector<int> fired;
  std::uint64_t rng = 0x243f6a8885a308d3ull;
  for (int i = 0; i < 4096; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // Coarse masks force equal-time groups; the top branch and masked times
    // of 2^47 and more lie past the horizon.
    const SimTime t = (i % 7 == 0)
                          ? (SimTime{1} << 48) + static_cast<SimTime>(rng & 0xff)
                          : static_cast<SimTime>(rng & 0x3ffffffffffc0ull);
    reference.emplace_back(t, i);
    sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run_all();
  ASSERT_EQ(fired.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(fired[i], reference[i].second) << "at position " << i;
}

TEST(TimingWheel, AuditConsistencyAcceptsCascadedState) {
  // Drive the wheel directly through inserts and cursor motion; the audit
  // walk must agree with the counters at every step.
  TimingWheel wheel;
  std::vector<EventNode> nodes(64);
  std::uint64_t seq = 0;
  auto insert_at = [&](SimTime t) {
    EventNode& node = nodes[static_cast<std::size_t>(seq)];
    node.time = t;
    node.seq = seq++;
    node.fn = [] {};
    wheel.insert(&node);
  };
  insert_at(5);
  insert_at(70);  // level 0
  insert_at(70);  // same slot, FIFO behind
  // Five nodes in one level-1 slot: chain 0 holds two and the others one
  // each, so an audit that walks a single chain misses nodes.
  for (const SimTime t : {5000, 5001, 5000, 5001, 5000}) insert_at(t);
  insert_at(SimTime{1} << 30);        // level 4
  insert_at((SimTime{1} << 48) + 7);  // overflow
  wheel.audit_consistency(seq, 0);

  std::uint64_t popped = 0;
  SimTime last = -1;
  while (EventLink* node = wheel.pop_next(TimingWheel::kNoEvent)) {
    EXPECT_GE(node->time, last);
    EXPECT_EQ(wheel.cursor(), node->time);
    last = node->time;
    ++popped;
    wheel.audit_consistency(seq, popped);
  }
  EXPECT_EQ(popped, seq);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, UpperSlotChainsKeepSchedulingOrder) {
  // 17 events two levels up, in one level-2 slot: 11 at kT and 6 at
  // kT + 1, scheduled alternately. The slot deals them over its four
  // chains, and one cascade files them straight into level 0 (a second
  // cascade could undo a swap the first one made). 17 is not a multiple
  // of four, so a cascade that restarts at chain 0, skips a chain or
  // reads a round's chains out of order reorders them.
  constexpr SimTime kT = (SimTime{3} << 17) + 7;
  Simulator sim;
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<int> at_t;
  std::vector<int> at_t1;
  for (int i = 0; i < 17; ++i) {
    const SimTime t = (i % 2 == 1 && i < 12) ? kT + 1 : kT;
    (t == kT ? at_t : at_t1).push_back(i);
    sim.schedule_at(t, [&fired, &sim, i] { fired.emplace_back(sim.now(), i); });
  }
  ASSERT_EQ(at_t.size(), 11u);
  sim.run_all();
  ASSERT_EQ(fired.size(), 17u);
  std::vector<int> expected = at_t;
  expected.insert(expected.end(), at_t1.begin(), at_t1.end());
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k].first, k < 11 ? kT : kT + 1) << "at position " << k;
    EXPECT_EQ(fired[k].second, expected[k]) << "at position " << k;
  }
}

/// Records the id of each timer it owns as it fires; ids[i] is timers[i]'s.
struct RecordingOwner final : TimerOwner {
  void fire(Timer* timer) override {
    fired->push_back(ids[static_cast<std::size_t>(timer - timers.data())]);
  }
  std::vector<Timer> timers;
  std::vector<int> ids;
  std::vector<int>* fired = nullptr;
};

/// A time at level 0, at an upper level, past the horizon, or in a coarse
/// group of equal times, chosen by @p i; @p rng is the next xorshift word.
SimTime mixed_time(int i, std::uint64_t rng) {
  switch (i % 4) {
    case 0: return static_cast<SimTime>(rng & 0x7f8);       // level 0
    case 1: return static_cast<SimTime>(rng & 0xffffffc00);  // levels 1-5
    case 2: return (SimTime{1} << 48) + static_cast<SimTime>(rng & 0xff);
    default: return static_cast<SimTime>(rng & 0x3) << 20;  // equal groups
  }
}

std::uint64_t xorshift(std::uint64_t& rng) {
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  return rng;
}

TEST(TimingWheel, TimersAndPooledEventsShareOneOrder) {
  // Intrusive timers (Simulator::arm) and pooled callbacks (schedule_at)
  // take one sequence count, so together they fire as a stable sort by time
  // of the scheduling order, at level 0, the upper levels and past the
  // horizon, with equal-time groups mixing both kinds.
  constexpr int kEvents = 2048;
  Simulator sim;
  std::vector<int> fired;
  RecordingOwner owner;
  owner.fired = &fired;
  owner.timers.reserve(kEvents);  // armed timers must not move
  std::vector<std::pair<SimTime, int>> reference;
  std::uint64_t rng = 0x13198a2e03707344ull;
  for (int i = 0; i < kEvents; ++i) {
    const SimTime t = mixed_time(i, xorshift(rng));
    reference.emplace_back(t, i);
    if ((xorshift(rng) >> 62) & 1u) {
      owner.timers.push_back(Timer{{}, &owner});
      owner.ids.push_back(i);
      sim.arm(&owner.timers.back(), t);
    } else {
      sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
    }
  }
  ASSERT_GT(owner.timers.size(), kEvents / 4u);
  ASSERT_LT(owner.timers.size(), 3 * kEvents / 4u);
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run_all();
  ASSERT_EQ(fired.size(), reference.size());
  for (std::size_t k = 0; k < reference.size(); ++k)
    EXPECT_EQ(fired[k], reference[k].second) << "at position " << k;
  EXPECT_EQ(sim.events_processed(), std::uint64_t{kEvents});

  // A timer re-armed from its own firing fires again at its new time: at
  // the same instant, one microsecond on, across a level-0 bucket, two
  // levels up and past the horizon. A callback scheduled for each new time
  // before the run was scheduled first, so it fires first.
  struct Rearming final : TimerOwner {
    void fire(Timer* timer) override {
      log->emplace_back(sim->now(), 'T');
      if (next < gaps.size()) sim->arm(timer, sim->now() + gaps[next++]);
    }
    Simulator* sim = nullptr;
    std::vector<SimDuration> gaps;
    std::size_t next = 0;
    std::vector<std::pair<SimTime, char>>* log = nullptr;
  };
  std::vector<std::pair<SimTime, char>> log;
  Rearming rearming;
  rearming.sim = &sim;
  rearming.gaps = {0, 1, 2047, 5000, SimDuration{1} << 30,
                   SimDuration{1} << 48};
  rearming.log = &log;
  Timer timer{{}, &rearming};
  SimTime t = sim.now() + 10;
  sim.arm(&timer, t);
  std::vector<std::pair<SimTime, char>> expected = {{t, 'T'}};
  for (const SimDuration gap : rearming.gaps) {
    t += gap;
    sim.schedule_at(t, [&log, &sim] { log.emplace_back(sim.now(), 'P'); });
    expected.emplace_back(t, 'P');
    expected.emplace_back(t, 'T');
  }
  sim.run_all();
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.events_processed(), std::uint64_t{kEvents} + expected.size());

  // The audit walks slots holding both kinds and checks equal-time order on
  // seq with the timer bit masked, after the inserts, the cascades they
  // need and every pop (driven on a bare wheel, so in every build).
  constexpr std::size_t kAudited = 256;
  TimingWheel wheel;
  std::vector<EventNode> nodes(kAudited);
  std::vector<Timer> timers(kAudited);
  std::vector<std::pair<SimTime, std::size_t>> audited;
  for (std::size_t i = 0; i < kAudited; ++i) {
    const bool is_timer = (xorshift(rng) >> 63) & 1u;
    EventLink& event = is_timer ? static_cast<EventLink&>(timers[i])
                                : static_cast<EventLink&>(nodes[i]);
    event.time = mixed_time(static_cast<int>(i), xorshift(rng));
    event.seq = i | (is_timer ? kTimerBit : 0);
    audited.emplace_back(event.time, i);
    wheel.insert(&event);
  }
  wheel.audit_consistency(kAudited, 0);
  std::stable_sort(audited.begin(), audited.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t popped = 0;
  while (EventLink* event = wheel.pop_next(TimingWheel::kNoEvent)) {
    const std::size_t i = event->seq & ~kTimerBit;
    const bool is_timer = (event->seq & kTimerBit) != 0;
    EXPECT_EQ(event, is_timer ? static_cast<EventLink*>(&timers[i])
                              : static_cast<EventLink*>(&nodes[i]));
    EXPECT_EQ(i, audited[popped].second) << "at position " << popped;
    ++popped;
    wheel.audit_consistency(kAudited, popped);
  }
  EXPECT_EQ(popped, kAudited);
}

TEST(TimingWheel, AuditDetectsLostEvent) {
  TimingWheel wheel;
  EventNode node;
  node.time = 100;
  node.seq = 0;
  node.fn = [] {};
  wheel.insert(&node);
  // Claim two were inserted: the walk finds one, conservation must fail.
  EXPECT_THROW(wheel.audit_consistency(2, 0), ContractViolation);
}

TEST(Callback, InlineAndHeapCapturesBothInvoke) {
  int hits = 0;
  Callback small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);

  // Oversized capture (> 32 bytes) forces the heap path; behaviour must be
  // identical.
  struct Big {
    double payload[16] = {};
  } big;
  big.payload[3] = 7.0;
  double sum = 0.0;
  Callback large([big, &sum] { sum += big.payload[3]; });
  large();
  EXPECT_EQ(sum, 7.0);

  // A small capture aligned above the buffer's 8 bytes also takes the heap
  // path, so it still runs at an address of its own alignment.
  struct alignas(16) Aligned {
    int* hits;
    void operator()() const {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(this) % 16, 0u);
      ++*hits;
    }
  };
  static_assert(sizeof(Aligned) <= Callback::kInlineBytes);
  static_assert(alignof(Aligned) > Callback::kInlineAlign);
  Callback aligned(Aligned{&hits});
  Callback moved(std::move(aligned));
  moved();
  EXPECT_EQ(hits, 2);
}

TEST(Callback, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  Callback a([&hits] { ++hits; });
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(hits, 2);
  a.reset();
  EXPECT_TRUE(a == nullptr);
}

TEST(Callback, DestroysCaptureExactlyOnce) {
  struct Counted {
    int* live;
    explicit Counted(int* l) : live(l) { ++*live; }
    Counted(const Counted& o) : live(o.live) { ++*live; }
    Counted(Counted&& o) noexcept : live(o.live) { o.live = nullptr; }
    ~Counted() {
      if (live != nullptr) --*live;
    }
    void operator()() const {}
  };
  int live = 0;
  {
    Callback cb{Counted(&live)};
    EXPECT_EQ(live, 1);
    Callback moved(std::move(cb));
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(Simulator, NodeRecyclingSurvivesChurn) {
  // Many schedule/run rounds on one engine: the freelist must hand back
  // nodes without corrupting pending state (asan/ubsan builds check the
  // lifetime story; this checks the accounting).
  Simulator sim;
  std::uint64_t fired = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 37; ++i)
      sim.schedule_after(static_cast<SimDuration>(i % 11), [&] { ++fired; });
    sim.run_until(sim.now() + 20);
  }
  sim.run_all();
  EXPECT_EQ(fired, 100u * 37u);
  EXPECT_EQ(sim.events_processed(), fired);
}

}  // namespace
}  // namespace sharegrid::sim
