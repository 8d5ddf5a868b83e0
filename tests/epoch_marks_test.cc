// Pins the EpochMarks invariant documented in match/unit_matcher.h:
// 0 is never an active epoch. Unmark writes the sentinel 0, so the epoch
// counter must skip 0 both at startup (Begin pre-increments from 0) and at
// the 2^32 wraparound (zero-fill the buffer AND restart at 1). Either half
// done alone resurrects stale marks or turns Unmark into Mark; the
// SetEpochForTest hook lets this test reach the wraparound without
// 2^32 - 2 warm-up Begins.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "match/unit_matcher.h"

namespace ppsm::matcher_internal {
namespace {

TEST(EpochMarks, FirstActiveEpochIsOne) {
  EpochMarks marks;
  EXPECT_EQ(marks.epoch(), 0u);
  marks.Begin(4);
  EXPECT_EQ(marks.epoch(), 1u);
  EXPECT_FALSE(marks.Marked(0));
  marks.Mark(0);
  EXPECT_TRUE(marks.Marked(0));
}

TEST(EpochMarks, BeginInvalidatesPriorMarks) {
  EpochMarks marks;
  marks.Begin(4);
  marks.Mark(1);
  marks.Mark(3);
  marks.Begin(4);
  EXPECT_FALSE(marks.Marked(1));
  EXPECT_FALSE(marks.Marked(3));
}

TEST(EpochMarks, UnmarkIsNotMarked) {
  EpochMarks marks;
  marks.Begin(4);
  marks.Mark(2);
  marks.Unmark(2);
  EXPECT_FALSE(marks.Marked(2));
}

// The wraparound Begin: marks set at the last pre-wrap epoch must read as
// unmarked, and the epoch must restart at 1, not 0.
TEST(EpochMarks, WraparoundClearsStaleMarksAndSkipsZero) {
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  EpochMarks marks;
  marks.Begin(8);
  marks.SetEpochForTest(kMax - 1);

  marks.Begin(8);  // -> kMax, the last pre-wrap epoch.
  EXPECT_EQ(marks.epoch(), kMax);
  marks.Mark(5);
  EXPECT_TRUE(marks.Marked(5));

  marks.Begin(8);  // ++kMax wraps to 0: zero-fill + restart at 1.
  EXPECT_EQ(marks.epoch(), 1u);
  EXPECT_FALSE(marks.Marked(5));
  // Unmark's sentinel must still differ from the active epoch.
  marks.Mark(6);
  marks.Unmark(6);
  EXPECT_FALSE(marks.Marked(6));
}

// The dangerous half-fix: a slot written at epoch 1 four billion Begins ago
// must not read as marked after the counter comes around to 1 again. The
// zero-fill in the wraparound Begin is what prevents it.
TEST(EpochMarks, WraparoundCannotResurrectEpochOneMarks) {
  EpochMarks marks;
  marks.Begin(8);         // epoch 1.
  marks.Mark(7);          // Slot 7 holds 1.
  marks.SetEpochForTest(std::numeric_limits<uint32_t>::max());
  marks.Begin(8);         // Wraps; epoch is 1 again.
  EXPECT_EQ(marks.epoch(), 1u);
  EXPECT_FALSE(marks.Marked(7));
}

TEST(EpochMarks, BeginGrowsForLargerGraphs) {
  EpochMarks marks;
  marks.Begin(2);
  marks.Mark(1);
  marks.Begin(64);  // Regrowth must leave new slots unmarked.
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_FALSE(marks.Marked(v)) << v;
  }
}

}  // namespace
}  // namespace ppsm::matcher_internal
