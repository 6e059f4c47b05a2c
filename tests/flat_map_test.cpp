// Tests for util/flat_map.hpp: FlatHashMap open-addressing behaviour
// (growth, probe chains, backward-shift deletion), and a randomized
// differential check against the standard containers.
#include <cstdint>
#include <map>
#include <unordered_map>

#include <gtest/gtest.h>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace sharegrid {
namespace {

TEST(FlatHashMap, InsertFindEraseBasics) {
  util::FlatHashMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(42), m.end());
  EXPECT_EQ(m.erase(42), 0u);  // erase on an empty (unallocated) table

  m.insert_or_assign(42, 1);
  m[43] = 2;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_TRUE(m.contains(42));
  EXPECT_EQ(m.find(42)->second, 1);
  EXPECT_EQ(m[43], 2);

  const auto [it, inserted] = m.insert_or_assign(42, 10);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, 10);

  EXPECT_EQ(m.erase(42), 1u);
  EXPECT_EQ(m.erase(42), 0u);
  EXPECT_FALSE(m.contains(42));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, GrowsPastInitialCapacityAndKeepsEntries) {
  util::FlatHashMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t i = 0; i < kN; ++i) m[i] = i * 3;
  EXPECT_EQ(m.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(m.contains(i)) << i;
    EXPECT_EQ(m.find(i)->second, i * 3);
  }
  // Load factor never exceeds 7/8.
  EXPECT_GE(m.capacity() * 7, m.size() * 8);
}

TEST(FlatHashMap, ReserveAvoidsRehash) {
  util::FlatHashMap<std::uint64_t, int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  for (std::uint64_t i = 0; i < 1000; ++i) m[i] = 1;
  EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatHashMap, IterationVisitsEveryEntryOnce) {
  util::FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m[i] = 1;
  std::size_t count = 0;
  std::uint64_t key_sum = 0;
  for (const auto& [k, v] : m) {
    ++count;
    key_sum += k;
    EXPECT_EQ(v, 1);
  }
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(key_sum, 99u * 100u / 2);

  // Const iterators convert from mutable ones (audit templates mix them).
  const auto& cm = m;
  util::FlatHashMap<std::uint64_t, int>::const_iterator cit = m.begin();
  EXPECT_EQ(cit, cm.begin());
}

/// Forces every key into the same home bucket so erase must exercise the
/// backward-shift path across long probe chains.
struct CollidingHash {
  std::size_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatHashMap, BackwardShiftEraseUnderFullCollision) {
  util::FlatHashMap<std::uint64_t, std::uint64_t, CollidingHash> m;
  for (std::uint64_t i = 0; i < 12; ++i) m[i] = i;
  // Erase from the middle of the probe chain, then the head, then verify the
  // survivors are all still reachable (no tombstone, no broken chain).
  EXPECT_EQ(m.erase(5), 1u);
  EXPECT_EQ(m.erase(0), 1u);
  EXPECT_EQ(m.erase(11), 1u);
  EXPECT_EQ(m.size(), 9u);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const bool gone = (i == 5 || i == 0 || i == 11);
    EXPECT_EQ(m.contains(i), !gone) << i;
    if (!gone) {
      EXPECT_EQ(m.find(i)->second, i);
    }
  }
}

TEST(FlatHashMap, RandomizedDifferentialAgainstStdMap) {
  // Mixed insert/overwrite/erase/lookup churn over a small key space keeps
  // probe chains and backward shifts busy; the std::map mirror is the oracle.
  util::FlatHashMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> mirror;
  Rng rng(1234);
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t key = rng() % 512;
    const std::uint64_t op = rng() % 4;
    if (op < 2) {
      const std::uint64_t value = rng();
      flat[key] = value;
      mirror[key] = value;
    } else if (op == 2) {
      EXPECT_EQ(flat.erase(key), mirror.erase(key));
    } else {
      const auto it = mirror.find(key);
      if (it == mirror.end()) {
        EXPECT_FALSE(flat.contains(key));
      } else {
        ASSERT_TRUE(flat.contains(key));
        EXPECT_EQ(flat.find(key)->second, it->second);
      }
    }
    ASSERT_EQ(flat.size(), mirror.size());
  }
  // Final sweep: identical contents.
  std::map<std::uint64_t, std::uint64_t> drained;
  for (const auto& [k, v] : flat) {
    EXPECT_TRUE(drained.emplace(k, v).second);  // each entry visited once
  }
  EXPECT_EQ(drained, mirror);
}

TEST(FlatHashMap, ClearReleasesEntries) {
  util::FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 64; ++i) m[i] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(3), m.end());
  m[3] = 7;  // usable after clear
  EXPECT_EQ(m.find(3)->second, 7);
}

TEST(FlatHash, Mix64AndCombineSpread) {
  // Not a statistical test — just pin that sequential keys do not collapse
  // onto a few buckets for the table sizes we use.
  std::unordered_map<std::uint64_t, int> buckets;
  for (std::uint64_t i = 0; i < 1024; ++i)
    buckets[util::mix64(i) & 1023]++;
  EXPECT_GT(buckets.size(), 512u);
  EXPECT_NE(util::hash_combine(1, 2), util::hash_combine(2, 1));
}

}  // namespace
}  // namespace sharegrid
