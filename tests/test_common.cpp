// Unit tests for src/common: rng, hash family, bit utilities, statistics.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/bits.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace ncc;

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(UINT64_MAX), 63u);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bits, NextPow2AndIsPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Bits, CeilDivAndCapLog) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(cap_log(1), 1u);  // never zero (capacity must be positive)
  EXPECT_EQ(cap_log(2), 1u);
  EXPECT_EQ(cap_log(1024), 10u);
  EXPECT_EQ(cap_log(1025), 11u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng r(7);
  std::vector<int> buckets(10, 0);
  const int N = 100000;
  for (int i = 0; i < N; ++i) {
    uint64_t v = r.next_below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int b : buckets) {
    EXPECT_GT(b, N / 10 - N / 50);
    EXPECT_LT(b, N / 10 + N / 50);
  }
}

TEST(Rng, ForkIndependence) {
  Rng base(9);
  Rng f1 = base.fork(1), f2 = base.fork(2), f1b = base.fork(1);
  EXPECT_EQ(f1.next(), f1b.next());  // same tag -> same stream
  Rng g1 = base.fork(1);
  EXPECT_NE(g1.next(), f2.next());  // different tags -> different streams
}

TEST(Rng, SampleWithoutReplacement) {
  Rng r(11);
  for (uint64_t k : {0ull, 1ull, 5ull, 50ull, 100ull}) {
    auto s = r.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (uint64_t v : s) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(13);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Hash, Mod61Identities) {
  EXPECT_EQ(mod61(0), 0u);
  EXPECT_EQ(mod61(kMersenne61), 0u);
  EXPECT_EQ(mod61(kMersenne61 + 5), 5u);
  EXPECT_EQ(mulmod61(2, 3), 6u);
  EXPECT_EQ(mulmod61(kMersenne61 - 1, 1), kMersenne61 - 1);
  // (p-1)*(p-1) mod p == 1.
  EXPECT_EQ(mulmod61(kMersenne61 - 1, kMersenne61 - 1), 1u);
}

TEST(Hash, DeterministicAndSpread) {
  Rng r(3);
  KWiseHash h(8, r);
  EXPECT_EQ(h(12345), h(12345));
  std::unordered_set<uint64_t> vals;
  for (uint64_t x = 0; x < 1000; ++x) vals.insert(h(x));
  EXPECT_GT(vals.size(), 990u);  // essentially collision-free
}

TEST(Hash, ToRangeBounds) {
  Rng r(5);
  KWiseHash h(4, r);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h.to_range(x, 7), 7u);
    EXPECT_EQ(h.to_range(x, 1), 0u);
  }
}

TEST(Hash, PairwiseIndependenceStatistics) {
  // For a 2-wise family, Pr[h(x) bit == h(y) bit] should be ~1/2.
  Rng r(17);
  int agree = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    KWiseHash h(2, r);
    agree += (h.bit(2 * t) == h.bit(2 * t + 1));
  }
  EXPECT_GT(agree, trials / 2 - trials / 10);
  EXPECT_LT(agree, trials / 2 + trials / 10);
}

TEST(Hash, FamilyFunctionsDiffer) {
  HashFamily fam(4, 8, 99);
  EXPECT_EQ(fam.size(), 4u);
  EXPECT_NE(fam.fn(0)(7), fam.fn(1)(7));
  EXPECT_EQ(fam.randomness_words(), 4u * 8u);
}

TEST(Hash, BitWordMatchesPerTrialLoop) {
  Rng xs(2024);
  for (uint32_t k : {1u, 2u, 12u, 63u}) {
    HashFamily fam(60, k, 1000 + k);
    for (uint32_t count : {1u, 40u, 60u}) {
      for (int i = 0; i < 10000; ++i) {
        // Mix small, near-p and full-width inputs (bit_word reduces x first).
        const uint64_t x = i % 3 == 0 ? xs.next_below(1000)
                           : i % 3 == 1 ? kMersenne61 - 1 - xs.next_below(4)
                                        : xs.next();
        uint64_t want = 0;
        for (uint32_t t = 0; t < count; ++t)
          want |= static_cast<uint64_t>(fam.fn(t).bit(x)) << t;
        ASSERT_EQ(fam.bit_word(x, count), want) << "k " << k << " count " << count << " x " << x;
      }
    }
  }
}

TEST(HashDeathTest, BitWordRejectsIndependenceAbove63) {
  HashFamily fam(4, 64, 5);
  EXPECT_DEATH((void)fam.bit_word(7, 4), "k <= 63");
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(TablePrinter, AlignsColumns) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}
