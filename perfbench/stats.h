/**
 * @file
 * The benchmark's own statistics: a single-writer log-linear
 * histogram with interpolated percentiles, the "at least ten samples
 * beyond" reporting rule, span self time, and the join that maps a
 * record's position in segment order back to the drain pass that
 * wrote it. Header-only so test_stats.cc checks exactly this code.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Log-linear histogram for one writer thread: values below 64 are
 * exact, larger ones fall in 32 buckets per octave (about 3% wide).
 * Plain counters, no atomics; merge per-thread copies after joining.
 */
class Histogram
{
  public:
    static constexpr unsigned kExact = 64;
    static constexpr unsigned kSubBits = 5;
    static constexpr unsigned kSub = 1u << kSubBits;
    static constexpr std::size_t kBuckets =
        kExact + std::size_t(64 - 6) * kSub;

    Histogram() : counts(kBuckets, 0) {}

    void
    add(uint64_t v)
    {
        ++counts[indexOf(v)];
        ++n;
    }

    void
    merge(const Histogram &o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            counts[i] += o.counts[i];
        n += o.n;
    }

    uint64_t count() const { return n; }

    /**
     * Value at percentile @p p (0 < p <= 100): the sample of rank
     * ceil(p/100 * n), linearly interpolated inside its bucket so the
     * result is not quantized to bucket edges. 0 when empty.
     */
    double
    percentile(double p) const
    {
        if (n == 0)
            return 0.0;
        uint64_t rank = uint64_t(std::ceil(p / 100.0 * double(n)));
        rank = std::clamp<uint64_t>(rank, 1, n);
        uint64_t before = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            if (counts[i] == 0 || before + counts[i] < rank) {
                before += counts[i];
                continue;
            }
            const auto [lo, width] = bucketRange(i);
            if (width == 1)
                return double(lo);
            const double within =
                (double(rank - before) - 0.5) / double(counts[i]);
            return double(lo) + double(width) * within;
        }
        return 0.0;
    }

    static std::size_t
    indexOf(uint64_t v)
    {
        if (v < kExact)
            return std::size_t(v);
        const unsigned e = unsigned(std::bit_width(v)) - 1;  // >= 6
        const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
        return kExact + std::size_t(e - 6) * kSub + std::size_t(sub);
    }

    /** First value and width of bucket @p i. */
    static std::pair<uint64_t, uint64_t>
    bucketRange(std::size_t i)
    {
        if (i < kExact)
            return {uint64_t(i), 1};
        const unsigned e = unsigned((i - kExact) / kSub) + 6;
        const uint64_t sub = (i - kExact) % kSub;
        const uint64_t width = uint64_t(1) << (e - kSubBits);
        return {(kSub + sub) * width, width};
    }

  private:
    std::vector<uint64_t> counts;
    uint64_t n = 0;
};

/** Samples strictly beyond percentile @p p of @p n samples. */
inline uint64_t
samplesBeyond(double p, uint64_t n)
{
    const auto rank = uint64_t(std::ceil(p / 100.0 * double(n)));
    return rank >= n ? 0 : n - rank;
}

/** True when percentile @p p of @p n samples has >= 10 beyond it. */
inline bool
reportable(double p, uint64_t n)
{
    return n != 0 && samplesBeyond(p, n) >= 10;
}

/**
 * The highest of p50, p90, p99, p99.9, ... that still has at least
 * ten samples beyond it; 0 when not even the median qualifies.
 */
inline double
highestReportable(uint64_t n)
{
    double best = 0.0;
    if (reportable(50.0, n))
        best = 50.0;
    for (double tail = 10.0; tail >= 1e-6; tail /= 10.0) {
        if (!reportable(100.0 - tail, n))
            break;
        best = 100.0 - tail;
    }
    return best;
}

/** One timed interval; children name their parent by index. */
struct Span
{
    uint32_t name = 0;
    int32_t parent = -1;  //!< index into the same vector, -1 = root
    uint64_t start = 0;
    uint64_t end = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children (clipped to the
 * parent, overlaps counted once).
 */
inline std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 && std::size_t(s.parent) < spans.size())
            kids[std::size_t(s.parent)].push_back({s.start, s.end});
    std::vector<uint64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const uint64_t dur = s.end > s.start ? s.end - s.start : 0;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, reach = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, s.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

/**
 * Maps a record's index in segment order to the drain pass that
 * wrote it. The daemon appends each pass's records to the segments
 * in pass order, so pass k owns the records between the running
 * totals of the counts before it and through it.
 */
class PassJoin
{
  public:
    explicit PassJoin(const std::vector<uint64_t> &passCounts)
    {
        ends.reserve(passCounts.size());
        uint64_t sum = 0;
        for (const uint64_t c : passCounts)
            ends.push_back(sum += c);
    }

    /** Records the passes wrote in total. */
    uint64_t total() const { return ends.empty() ? 0 : ends.back(); }

    /** Pass of record @p index (< total()). */
    std::size_t
    passOf(uint64_t index) const
    {
        return std::size_t(
            std::upper_bound(ends.begin(), ends.end(), index) -
            ends.begin());
    }

  private:
    std::vector<uint64_t> ends;
};

/** Median of @p v (by copy); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
