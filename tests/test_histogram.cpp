#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mgfs {
namespace {

TEST(Histogram, CountsAndMean) {
  Histogram h(1.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(2.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 2.5);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h(1.0, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, OverflowBucket) {
  Histogram h(1.0, 2);  // covers [0, 2)
  h.add(5.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MedianOfUniformFill) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.5, 0.5);
}

TEST(Histogram, QuantileClamped) {
  Histogram h(1.0, 4);
  h.add(1.5);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Histogram, MergeAccumulatesBinsAndExtremes) {
  Histogram a(1.0, 100, "a");
  Histogram b(1.0, 100, "b");
  a.add(5.5);
  b.add(20.5);
  b.add(20.5);
  b.add(200.0);  // overflow travels with the merge
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_NEAR(a.quantile(0.0), 5.5, 1.0);
  EXPECT_NEAR(a.quantile(0.5), 20.5, 1.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.5);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  // Merging an empty histogram is a no-op.
  Histogram empty(1.0, 100);
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Histogram, PrintSummaryLine) {
  Histogram h(0.001, 100, "recall");
  h.add(0.010);
  std::ostringstream os;
  h.print(os, "s");
  EXPECT_NE(os.str().find("recall"), std::string::npos);
  EXPECT_NE(os.str().find("n=1"), std::string::npos);
}

TEST(Histogram, MergeWithNeverAddedHistogram) {
  Histogram full(1.0, 10);
  full.add(2.5);
  full.add(7.5);
  // A histogram that never saw a value contributes nothing ...
  full.merge(Histogram(1.0, 10));
  EXPECT_EQ(full.count(), 2u);
  EXPECT_DOUBLE_EQ(full.quantile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(full.quantile(1.0), 7.5);
  // ... and one that never saw a value takes all of the other's.
  Histogram fresh(1.0, 10);
  fresh.merge(full);
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_DOUBLE_EQ(fresh.min(), 2.5);
  EXPECT_DOUBLE_EQ(fresh.max(), 7.5);
  EXPECT_DOUBLE_EQ(fresh.mean(), 5.0);
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_DOUBLE_EQ(fresh.quantile(q), full.quantile(q)) << q;
  }
  // Later values add to the merged bins.
  fresh.add(2.5);
  fresh.add(2.5);
  EXPECT_DOUBLE_EQ(fresh.quantile(0.5), 2.5);
}

TEST(Histogram, OverflowOnlyQuantileIsMax) {
  Histogram h(1.0, 4);
  h.add(9.0);
  h.add(12.0);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 12.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 12.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 12.0);
  // Merged into an empty one, it is still overflow only.
  Histogram m(1.0, 4);
  m.merge(h);
  EXPECT_EQ(m.overflow(), 2u);
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 12.0);
}

TEST(Histogram, PrintEmpty) {
  Histogram h(0.01, 2000, "recovery_ops");
  std::ostringstream os;
  h.print(os, "s");
  EXPECT_EQ(os.str(),
            "recovery_ops: n=0 mean=0.000s p50=0.000s p95=0.000s "
            "p99=0.000s max=0.000s\n");
}

TEST(HistogramDeathTest, MergeGeometryMismatchAsserts) {
  // Bin storage is not allocated yet on either side; the geometry check
  // must not depend on it.
  Histogram a(1.0, 10);
  EXPECT_DEATH(a.merge(Histogram(1.0, 20)), "shape mismatch");
  EXPECT_DEATH(a.merge(Histogram(2.0, 10)), "shape mismatch");
}

}  // namespace
}  // namespace mgfs
