// Tests of the benchmark's own statistics (stats.h).

#include <gtest/gtest.h>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (uint64_t v = 1; v <= 50; ++v)
        h.add(v);
    EXPECT_EQ(h.count(), 50u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 25.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 50.0);
}

TEST(Histogram, LargeValuesWithinBucketWidth)
{
    Histogram h;
    for (uint64_t v = 1; v <= 100000; ++v)
        h.add(v * 10);
    // Rank 50000 is 500000; buckets are 1/32 of an octave wide.
    EXPECT_NEAR(h.percentile(50), 500000.0, 500000.0 / 32);
    EXPECT_NEAR(h.percentile(99), 990000.0, 990000.0 / 32);
}

TEST(Histogram, InterpolatesInsideABucket)
{
    // 1000 samples spread over one bucket: successive percentiles must
    // differ, not snap to the bucket edge.
    Histogram h;
    for (uint64_t v = 0; v < 1000; ++v)
        h.add(4096 + v % 128);
    EXPECT_LT(h.percentile(10), h.percentile(90));
}

TEST(Histogram, BucketsTileTheRange)
{
    for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        const auto [lo, width] = Histogram::bucketRange(i);
        EXPECT_EQ(Histogram::indexOf(lo), i);
        EXPECT_EQ(Histogram::indexOf(lo + width - 1), i);
        EXPECT_EQ(Histogram::bucketRange(i + 1).first, lo + width);
    }
    EXPECT_EQ(Histogram::indexOf(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a, b;
    a.add(10);
    b.add(30);
    b.add(30);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.percentile(50), 30.0);
}

TEST(PercentileRule, TenBeyond)
{
    // p99 of 1000 samples: rank 990, exactly 10 beyond.
    EXPECT_EQ(samplesBeyond(99.0, 1000), 10u);
    EXPECT_TRUE(reportable(99.0, 1000));
    EXPECT_FALSE(reportable(99.0, 999));
    EXPECT_FALSE(reportable(50.0, 19));
    EXPECT_TRUE(reportable(50.0, 20));
    EXPECT_FALSE(reportable(50.0, 0));
}

TEST(PercentileRule, HighestReportable)
{
    EXPECT_EQ(highestReportable(0), 0.0);
    EXPECT_EQ(highestReportable(19), 0.0);
    EXPECT_EQ(highestReportable(20), 50.0);
    EXPECT_EQ(highestReportable(100), 90.0);
    EXPECT_EQ(highestReportable(999), 90.0);
    EXPECT_EQ(highestReportable(1000), 99.0);
    EXPECT_DOUBLE_EQ(highestReportable(1'000'000), 99.999);
}

TEST(SelfTime, SubtractsChildren)
{
    // root [0,100) with children [10,30) and [50,60): self = 70.
    const std::vector<Span> spans = {
        {0, -1, 0, 100}, {1, 0, 10, 30}, {2, 0, 50, 60}};
    const std::vector<uint64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 70u);
    EXPECT_EQ(self[1], 20u);
    EXPECT_EQ(self[2], 10u);
}

TEST(SelfTime, OverlapsCountOnceAndClipToParent)
{
    // Children [10,40) and [30,50) overlap; [90,120) sticks out of
    // the parent [0,100). Covered: [10,50) + [90,100) = 50.
    const std::vector<Span> spans = {
        {0, -1, 0, 100}, {1, 0, 10, 40}, {1, 0, 30, 50}, {1, 0, 90, 120}};
    EXPECT_EQ(selfTimes(spans)[0], 50u);
}

TEST(SelfTime, OnlyDirectChildrenCount)
{
    // Grandchild time is already inside the child; the root loses
    // only the child's interval, the child loses the grandchild's.
    const std::vector<Span> spans = {
        {0, -1, 0, 100}, {1, 0, 20, 80}, {2, 1, 30, 40}, {0, -1, 200, 210}};
    const std::vector<uint64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 40u);
    EXPECT_EQ(self[1], 50u);
    EXPECT_EQ(self[2], 10u);
    EXPECT_EQ(self[3], 10u);
}

TEST(PassJoin, MapsSegmentOrderToPasses)
{
    // Passes wrote 3, 0, 2 and 1 records: segment order is
    // [p0 p0 p0 p2 p2 p3]; the empty pass owns nothing.
    const PassJoin join({3, 0, 2, 1});
    EXPECT_EQ(join.total(), 6u);
    EXPECT_EQ(join.passOf(0), 0u);
    EXPECT_EQ(join.passOf(2), 0u);
    EXPECT_EQ(join.passOf(3), 2u);
    EXPECT_EQ(join.passOf(4), 2u);
    EXPECT_EQ(join.passOf(5), 3u);
}

TEST(PassJoin, LeadingEmptyPasses)
{
    const PassJoin join({0, 0, 1});
    EXPECT_EQ(join.passOf(0), 2u);
    EXPECT_EQ(PassJoin({}).total(), 0u);
}

TEST(Median, OddAndEven)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

} // namespace
} // namespace perfbench
