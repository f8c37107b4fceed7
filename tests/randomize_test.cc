#include "src/anon/randomize.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace histkanon {
namespace anon {
namespace {

using geo::Rect;
using geo::STBox;
using geo::STPoint;
using geo::TimeInterval;

TEST(TranslateWithinTest, PreservesDimensionsAndContainsExact) {
  ContextRandomizer randomizer(1);
  const STPoint exact{{500, 500}, 1000};
  const STBox box{Rect::FromCenter(exact.p, 200, 300),
                  TimeInterval::FromCenter(exact.t, 120)};
  for (int i = 0; i < 200; ++i) {
    const STBox out = randomizer.TranslateWithin(box, exact);
    EXPECT_DOUBLE_EQ(out.area.Width(), 200.0);
    EXPECT_DOUBLE_EQ(out.area.Height(), 300.0);
    EXPECT_EQ(out.time.Length(), 120);
    EXPECT_TRUE(out.Contains(exact));
  }
}

TEST(TranslateWithinTest, PlacementIsActuallyRandom) {
  ContextRandomizer randomizer(2);
  const STPoint exact{{500, 500}, 1000};
  const STBox box{Rect::FromCenter(exact.p, 200, 200),
                  TimeInterval::FromCenter(exact.t, 120)};
  // The exact point's relative position within the box should span the
  // whole box, not sit at the center.
  double min_frac = 1.0;
  double max_frac = 0.0;
  for (int i = 0; i < 500; ++i) {
    const STBox out = randomizer.TranslateWithin(box, exact);
    const double frac = (exact.p.x - out.area.min_x) / out.area.Width();
    min_frac = std::min(min_frac, frac);
    max_frac = std::max(max_frac, frac);
  }
  EXPECT_LT(min_frac, 0.1);
  EXPECT_GT(max_frac, 0.9);
}

TEST(TranslateWithinTest, DegenerateAndMismatchedInputs) {
  ContextRandomizer randomizer(3);
  const STPoint exact{{0, 0}, 0};
  // Point not inside box: returned unchanged.
  const STBox elsewhere{Rect{100, 100, 200, 200}, TimeInterval{0, 10}};
  EXPECT_EQ(randomizer.TranslateWithin(elsewhere, exact), elsewhere);
  // Degenerate box containing the point: stays the point.
  const STBox degenerate = STBox::FromPoint(exact);
  const STBox out = randomizer.TranslateWithin(degenerate, exact);
  EXPECT_TRUE(out.Contains(exact));
  EXPECT_DOUBLE_EQ(out.area.Width(), 0.0);
}

TEST(ExpandWithinTest, ReturnsSupersetRespectingTolerance) {
  ContextRandomizer randomizer(4);
  const STBox box{Rect{0, 0, 1000, 800}, TimeInterval{0, 600}};
  const ToleranceConstraints tolerance{2000.0, 2000.0, 1200};
  for (int i = 0; i < 200; ++i) {
    const STBox out = randomizer.ExpandWithin(box, tolerance);
    EXPECT_TRUE(out.Contains(box));
    EXPECT_LE(out.area.Width(), tolerance.max_area_width + 1e-9);
    EXPECT_LE(out.area.Height(), tolerance.max_area_height + 1e-9);
    EXPECT_LE(out.time.Length(), tolerance.max_time_window);
  }
}

TEST(ExpandWithinTest, ActuallyGrows) {
  ContextRandomizer randomizer(5);
  const STBox box{Rect{0, 0, 1000, 1000}, TimeInterval{0, 600}};
  const ToleranceConstraints tolerance{10000.0, 10000.0, 6000};
  double grown = 0;
  for (int i = 0; i < 100; ++i) {
    const STBox out = randomizer.ExpandWithin(box, tolerance);
    if (out.area.Width() > 1000.0) ++grown;
  }
  EXPECT_GT(grown, 90);  // Growth is near-certain with continuous draws.
}

TEST(ExpandWithinTest, AtToleranceStaysPut) {
  ContextRandomizer randomizer(6);
  const STBox box{Rect{0, 0, 2000, 2000}, TimeInterval{0, 1200}};
  const ToleranceConstraints tolerance{2000.0, 2000.0, 1200};
  const STBox out = randomizer.ExpandWithin(box, tolerance);
  EXPECT_DOUBLE_EQ(out.area.Width(), 2000.0);
  EXPECT_EQ(out.time.Length(), 1200);
  EXPECT_TRUE(out.Contains(box));
}

TEST(ExpandWithinTest, ClippedGrowthFitsToleranceExactly) {
  // The scaled margins land this box at [3369.870, 7369.870], where the
  // unadjusted sides round to a width 4.5e-13 m over the hospital
  // service's 4,000 m tolerance.
  const STBox box{Rect{4112.2497894222834, 100, 6686.4957894222835, 600},
                  TimeInterval{0, 600}};
  const ToleranceConstraints hospital{4000.0, 4000.0, 3600};
  common::Rng rng(1);
  const STBox out = ExpandWithin(&rng, box, hospital, RandomizerOptions{});
  EXPECT_NEAR(out.area.min_x, 3369.870, 1e-3);
  EXPECT_NEAR(out.area.max_x, 7369.870, 1e-3);
  EXPECT_LE(out.area.Width(), 4000.0);
  EXPECT_TRUE(hospital.Satisfies(out));
  EXPECT_TRUE(out.Contains(box));
}

TEST(ExpandWithinTest, EveryExpandedBoxSatisfiesTolerance) {
  const ToleranceConstraints tolerance{4000.0, 3000.0, 3600};
  common::Rng boxes(99);
  for (uint64_t i = 0; i < 20000; ++i) {
    const double width = boxes.Uniform(100.0, 3990.0);
    const double height = boxes.Uniform(100.0, 2990.0);
    const double x = boxes.Uniform(-10000.0, 10000.0);
    const double y = boxes.Uniform(-10000.0, 10000.0);
    const int64_t t = boxes.UniformInt(0, 86400);
    const int64_t window = boxes.UniformInt(0, 3000);
    const STBox box{Rect{x, y, x + width, y + height},
                    TimeInterval{t, t + window}};
    common::Rng rng(i);
    const STBox out = ExpandWithin(&rng, box, tolerance, RandomizerOptions{});
    ASSERT_TRUE(tolerance.Satisfies(out))
        << "box " << i << " width " << out.area.Width() << " height "
        << out.area.Height();
    ASSERT_TRUE(out.Contains(box)) << "box " << i;
  }
}

TEST(ExpandWithinTest, DeterministicPerSeed) {
  const STBox box{Rect{0, 0, 500, 500}, TimeInterval{0, 300}};
  const ToleranceConstraints tolerance{5000.0, 5000.0, 3000};
  ContextRandomizer a(7);
  ContextRandomizer b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.ExpandWithin(box, tolerance), b.ExpandWithin(box, tolerance));
  }
}

}  // namespace
}  // namespace anon
}  // namespace histkanon
