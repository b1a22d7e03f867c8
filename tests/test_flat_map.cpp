// FlatMap (common/flat_map.hpp) unit + stress tests: the open-addressing
// replacement for std::unordered_map on deterministic paths.
// The backward-shift erase is the delicate part — the randomized test drives
// long mixed histories against a std::unordered_map reference and checks the
// full content after every erase burst.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"

using namespace ncc;

TEST(FlatMap, EmptyMapOwnsNothingAndAnswersFind) {
  FlatMap<uint64_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_FALSE(m.erase(42));
  uint64_t visited = 0;
  m.for_each([&](uint64_t, uint64_t&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(FlatMap, EmplaceFindEraseBasics) {
  FlatMap<uint64_t> m;
  auto [slot, fresh] = m.emplace(7, 70);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(*slot, 70u);
  auto [again, fresh2] = m.emplace(7, 99);
  EXPECT_FALSE(fresh2);     // duplicate emplace keeps the first value
  EXPECT_EQ(*again, 70u);
  EXPECT_EQ(m.size(), 1u);

  // Key 0 is an ordinary key (emptiness is tracked out of band).
  m.emplace(0, 1);
  EXPECT_NE(m.find(0), nullptr);
  EXPECT_EQ(*m.find(0), 1u);

  m[5] = 50;  // operator[] default-constructs then assigns
  EXPECT_EQ(*m.find(5), 50u);
  EXPECT_EQ(m.size(), 3u);

  EXPECT_TRUE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_NE(m.find(0), nullptr);  // survivors stay reachable
  EXPECT_NE(m.find(5), nullptr);
}

TEST(FlatMap, GrowthPreservesEntries) {
  FlatMap<uint64_t> m;
  for (uint64_t k = 0; k < 1000; ++k) m.emplace(k * 0x9e3779b97f4a7c15ULL, k);
  EXPECT_EQ(m.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    auto* v = m.find(k * 0x9e3779b97f4a7c15ULL);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatMap, ClearKeepsCapacityAndForgetsEntries) {
  FlatMap<uint64_t> m;
  for (uint64_t k = 0; k < 64; ++k) m.emplace(k, k);
  m.clear();
  EXPECT_TRUE(m.empty());
  for (uint64_t k = 0; k < 64; ++k) EXPECT_EQ(m.find(k), nullptr);
  m.emplace(3, 33);
  EXPECT_EQ(*m.find(3), 33u);
}

namespace {

void check_matches_reference(FlatMap<uint64_t>& m,
                             const std::unordered_map<uint64_t, uint64_t>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  uint64_t visited = 0;
  m.for_each([&](uint64_t k, uint64_t& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "stray key " << k;
    EXPECT_EQ(v, it->second) << "key " << k;
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
}

}  // namespace

// Long mixed emplace/overwrite/erase history against std::unordered_map.
// Keys are drawn from a small universe so probe chains collide and erase
// exercises the backward-shift compaction constantly.
TEST(FlatMap, RandomizedMatchesUnorderedMap) {
  Rng rng(12345);
  FlatMap<uint64_t> m;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (uint64_t step = 0; step < 200000; ++step) {
    uint64_t key = rng.next_below(512);
    uint64_t op = rng.next_below(10);
    if (op < 5) {
      uint64_t val = rng.next();
      auto [slot, fresh] = m.emplace(key, val);
      auto [it, fresh_ref] = ref.emplace(key, val);
      EXPECT_EQ(fresh, fresh_ref);
      EXPECT_EQ(*slot, it->second);
    } else if (op < 7) {
      uint64_t val = rng.next();
      m[key] = val;
      ref[key] = val;
    } else if (op < 9) {
      EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
    } else {
      uint64_t* v = m.find(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, it->second);
      }
    }
    if (step % 10000 == 9999) check_matches_reference(m, ref);
  }
  check_matches_reference(m, ref);
}

// Adversarial cluster: many keys hashing near each other (sequential keys
// after mix64 still land in one small table), erased in varying orders.
TEST(FlatMap, EraseUnderHeavyClustering) {
  for (uint64_t salt = 0; salt < 8; ++salt) {
    FlatMap<uint64_t> m;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 48; ++k) keys.push_back(salt * 1000 + k);
    for (uint64_t k : keys) m.emplace(k, k * 2);
    // Erase every third key, then verify the rest survived the shifts.
    for (size_t i = 0; i < keys.size(); i += 3) EXPECT_TRUE(m.erase(keys[i]));
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t* v = m.find(keys[i]);
      if (i % 3 == 0) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, keys[i] * 2);
      }
    }
  }
}
