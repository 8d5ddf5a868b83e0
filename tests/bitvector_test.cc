#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ppsm {
namespace {

TEST(BitVector, StartsAllZero) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.Count(), 0u);
  EXPECT_TRUE(bv.None());
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(bv.Test(i));
}

TEST(BitVector, SetAndClear) {
  BitVector bv(70);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(69);
  EXPECT_EQ(bv.Count(), 4u);
  EXPECT_TRUE(bv.Test(63));
  EXPECT_TRUE(bv.Test(64));
  bv.Set(63, false);
  EXPECT_FALSE(bv.Test(63));
  EXPECT_EQ(bv.Count(), 3u);
  bv.Reset();
  EXPECT_TRUE(bv.None());
}

TEST(BitVector, AndOr) {
  BitVector a(100), b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(99);
  b.Set(3);
  const BitVector intersection = a & b;
  EXPECT_EQ(intersection.ToIndices(), (std::vector<size_t>{50, 99}));
  const BitVector join = a | b;
  EXPECT_EQ(join.ToIndices(), (std::vector<size_t>{1, 3, 50, 99}));
}

TEST(BitVector, ForEachSetBitAscending) {
  BitVector bv(200);
  const std::vector<size_t> expected{0, 63, 64, 65, 128, 199};
  for (const size_t i : expected) bv.Set(i);
  std::vector<size_t> seen;
  bv.ForEachSetBit([&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(BitVector, ToStringLsbFirst) {
  BitVector bv(5);
  bv.Set(0);
  bv.Set(3);
  EXPECT_EQ(bv.ToString(), "10010");
}

TEST(BitVector, EqualityAndSize) {
  BitVector a(10), b(10), c(11);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  a.Set(5);
  EXPECT_FALSE(a == b);
  b.Set(5);
  EXPECT_TRUE(a == b);
}

TEST(BitVector, EmptyVector) {
  BitVector bv;
  EXPECT_TRUE(bv.empty());
  EXPECT_EQ(bv.Count(), 0u);
  EXPECT_EQ(bv.MemoryBytes(), 0u);
}

TEST(BitVector, CountMatchesReferenceOnRandomPatterns) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Below(300);
    BitVector bv(n);
    size_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.3)) {
        if (!bv.Test(i)) ++expected;
        bv.Set(i);
      }
    }
    EXPECT_EQ(bv.Count(), expected);
  }
}

TEST(BitVector, AndAgainstBruteForce) {
  Rng rng(12);
  const size_t n = 257;
  BitVector a(n), b(n);
  std::vector<bool> ra(n), rb(n);
  for (size_t i = 0; i < n; ++i) {
    ra[i] = rng.Chance(0.5);
    rb[i] = rng.Chance(0.5);
    if (ra[i]) a.Set(i);
    if (rb[i]) b.Set(i);
  }
  const BitVector intersection = a & b;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(intersection.Test(i), ra[i] && rb[i]);
  }
}

}  // namespace
}  // namespace ppsm
