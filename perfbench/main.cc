/**
 * @file
 * perfbench: the end-to-end tracer benchmark (NOTES.md).
 *
 *   perfbench --workload record-single|lease-batch|pipeline
 *             --seed N --seconds S --trace 0|1 --work-dir DIR
 *
 * One process drives the public surfaces of the tracer: Session,
 * BTrace::lease, ScopedWrite, Lease, Session::pollControl,
 * ConsumerDaemon, readSegment/SegmentAggregator and BTraceAuditor.
 * Inputs (payload sizes, arrival schedules, timing samples) are drawn
 * from --seed. Every record carries its producer id and a strictly
 * increasing per-producer stamp; what is read back is checked for
 * payload integrity, duplicates and per-producer order.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs a null-
 * tracer ceiling, an untraced phase and a traced phase (spans around
 * every layer call, 1 in 64 timed) and prints the per-layer metrics.
 * The last stdout line is one JSON object; the exit status is nonzero
 * when any output check fails.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.h"
#include "core/auditor.h"
#include "core/session.h"
#include "daemon/daemon.h"
#include "stats.h"
#include "trace/segment_stats.h"
#include "trace/trace_file.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace btrace;
namespace fs = std::filesystem;

// Geometry shared by all workloads: 4 KiB blocks, N = 1024 (4 MiB),
// A = 16 x cores.
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kNumBlocks = 1024;
constexpr unsigned kCores = 4;
constexpr std::size_t kActiveBlocks = 16 * kCores;

constexpr uint32_t kLeaseEntries = 32;
constexpr unsigned kFlightProducers = 4;
constexpr unsigned kPipelineProducers = 3;
constexpr double kPipelineRatePerProducer = 500e3;  // records/s
// Pipeline arrivals come in bursts of this many records at Poisson
// instants (mean gap 512 us). Between bursts the producer sleeps, so
// kernel work and the drain thread find idle CPUs instead of
// preempting a spinning producer.
constexpr uint32_t kBurst = 256;
// Sleep until this long before a burst is due, then spin.
constexpr uint64_t kSpinNs = 200'000;
constexpr std::size_t kTableSize = 4096;             // power of two
constexpr int kMaxAttempts = 64;  // tries (refusals, renewals) per record
constexpr int kSetupReps = 21;
// Flight read rate: dump() repeated 40 ms apart, after the lead-in and
// again after the run, so the median spans two moments of the host.
constexpr int kDumpReps = 30;
constexpr int kDumpWarmReps = 5;  // of which the first few warm caches
constexpr uint64_t kWindowNs = 100'000'000;  // e2e metrics: 100 ms windows
// Unmeasured lead-in: the first laps fault in the ring's pages (on the
// file arena, allocate its blocks) and open the first segments.
constexpr double kWarmupSec = 2.0;
constexpr std::size_t kSpanCapacity = std::size_t(1) << 17;  // per thread

enum class Kind { RecordSingle, LeaseBatch, Pipeline };

enum SpanName : uint32_t
{
    kRecord,
    kAllocate,
    kFill,
    kConfirm,
    kBump,
    kLeaseOpen,
    kLeaseClose,
    kPoll,
    kDrain,
    kSpanNames
};

constexpr const char *kSpanNameText[kSpanNames] = {
    "bench.record",    "core.allocate",    "trace.fill",
    "core.confirm",    "trace.bump",       "core.lease_open",
    "core.lease_close", "control.poll",    "daemon.drain"};

uint64_t
nowNs()
{
    return wallClockNs();
}

void
sleepUntil(uint64_t wallNs)
{
    struct timespec ts;
    ts.tv_sec = time_t(wallNs / 1'000'000'000ull);
    ts.tv_nsec = long(wallNs % 1'000'000'000ull);
    while (::clock_nanosleep(CLOCK_REALTIME, TIMER_ABSTIME, &ts,
                             nullptr) == EINTR) {
    }
}

double
cpuSeconds(clockid_t clock)
{
    struct timespec ts;
    ::clock_gettime(clock, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Pipeline threads each get a CPU of their own (producers 0..2, the
 * drain thread 3). Left to the scheduler, a woken drain pass (~1 ms)
 * sometimes lands on a CPU whose producer is about to burst and stalls
 * it for the whole pass; how often that happened drifted from run to
 * run and set the open loop's tail. No-op on hosts with fewer CPUs.
 */
void
pinToCpu(unsigned cpu)
{
    if (cpu >= std::thread::hardware_concurrency())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Per-thread 1-in-64 sampler (xorshift64), seeded from --seed. */
struct Sampler
{
    uint64_t s = 1;

    bool
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return (s & 63) == 0;
    }
};

/**
 * Spans of one thread, kept in memory until exit. Each timed op is a
 * root span followed by its children. When full, every second op is
 * dropped and only every second later op is kept, so the log stays
 * uniform over the run within a fixed footprint.
 */
class SpanLog
{
  public:
    SpanLog() { spans.reserve(kSpanCapacity); }

    /** Store one op: @p ops[0] is the root, children name parent 0. */
    void
    add(const Span *ops, std::size_t count)
    {
        if (seen++ % stride != 0)
            return;
        if (spans.size() + count > kSpanCapacity)
            decimate();
        const auto root = int32_t(spans.size());
        for (std::size_t i = 0; i < count; ++i) {
            Span s = ops[i];
            s.parent = i == 0 ? -1 : root + s.parent;
            spans.push_back(s);
        }
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    void
    decimate()
    {
        std::size_t out = 0, group = 0;
        int32_t shift = 0;
        bool keep = false;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            Span s = spans[i];
            if (s.parent < 0) {
                keep = group++ % 2 == 0;
                shift = int32_t(i - out);
            }
            if (!keep)
                continue;
            if (s.parent >= 0)
                s.parent -= shift;
            spans[out++] = s;
        }
        spans.resize(out);
        stride *= 2;
        seen = 1;
    }

    std::vector<Span> spans;
    uint64_t seen = 0;
    uint64_t stride = 1;
};

/** Spans of the op being timed right now. */
struct OpTrace
{
    bool on = false;
    Span ops[8];
    std::size_t n = 0;

    void
    add(uint32_t name, uint64_t a, uint64_t b)
    {
        if (n < 8)
            ops[n++] = Span{name, 0, a, b};
    }
};

/** Records whose stamp falls in one window of a phase. */
struct Window
{
    uint64_t attempted = 0;
    uint64_t accepted = 0;
    uint64_t busyNs = 0;  //!< open loop: time spent writing records
    Histogram lat;  //!< record latency (sampled on closed loops)
};

/** What one producer did in one phase. */
struct Tally
{
    uint64_t refused = 0;
    uint64_t acceptedBytes = 0;
    uint64_t retries = 0;
    uint64_t retryWaitNs = 0;
    uint64_t calls[kSpanNames] = {};
    std::vector<Window> win;
    Histogram late;  //!< open loop: start minus due time
};

/** One producer thread's private state, on its own cache lines. */
struct alignas(64) Producer
{
    uint32_t id = 0;
    uint16_t core = 0;
    std::vector<uint32_t> sizes;  //!< payload bytes, cycled
    std::vector<uint32_t> gaps;   //!< open loop burst gaps, ns, cycled
    uint64_t phaseNs = 0;         //!< open loop schedule offset
    Sampler sampler;
    uint64_t k = 0;          //!< records attempted so far (all phases)
    uint64_t lastStamp = 0;  //!< stamps strictly increase per producer
    Tally t;
    SpanLog spans;
    Session *session = nullptr;  //!< pipeline: this producer's attachment
};

template <bool Traced>
inline uint64_t
spanBegin(const OpTrace &tr)
{
    if constexpr (Traced)
        if (tr.on)
            return nowNs();
    return 0;
}

template <bool Traced>
inline void
spanEnd(Producer &p, OpTrace &tr, uint32_t name, uint64_t a)
{
    if constexpr (Traced) {
        ++p.t.calls[name];
        if (tr.on)
            tr.add(name, a, nowNs());
    }
}

/** Yield once after a refusal and charge the wait. */
inline void
backoff(Producer &p)
{
    ++p.t.retries;
    const uint64_t a = nowNs();
    std::this_thread::yield();
    p.t.retryWaitNs += nowNs() - a;
}

/** One record through ScopedWrite(tracer): allocate, fill, commit. */
template <bool Traced>
bool
writeSingle(BTrace &bt, Producer &p, OpTrace &tr, uint64_t stamp,
            uint32_t len)
{
    for (int attempt = 1;; ++attempt) {
        uint64_t a = spanBegin<Traced>(tr);
        ScopedWrite w(bt, p.core, p.id, len);
        spanEnd<Traced>(p, tr, kAllocate, a);
        if (w.ok()) {
            a = spanBegin<Traced>(tr);
            w.fill(stamp);
            spanEnd<Traced>(p, tr, kFill, a);
            a = spanBegin<Traced>(tr);
            w.commit();
            spanEnd<Traced>(p, tr, kConfirm, a);
            p.t.acceptedBytes += w.size();
            return true;
        }
        if (w.status() == AllocStatus::Drop || attempt == kMaxAttempts)
            return false;
        backoff(p);
    }
}

/**
 * One record through ScopedWrite(lease), renewing the lease when it
 * cannot serve the entry. @p poll adopts control changes at renewal,
 * as btrace_producer does.
 */
template <bool Traced, bool Poll>
bool
writeLeased(BTrace &bt, Session *s, Producer &p, Lease &l, OpTrace &tr,
            uint64_t stamp, uint32_t len, uint32_t hint,
            uint32_t entries = kLeaseEntries)
{
    for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
        if (!l.closed()) {
            uint64_t a = spanBegin<Traced>(tr);
            ScopedWrite w(l, len);
            spanEnd<Traced>(p, tr, kBump, a);
            if (w.ok()) {
                a = spanBegin<Traced>(tr);
                w.fill(stamp);
                w.commit();
                spanEnd<Traced>(p, tr, kFill, a);
                p.t.acceptedBytes += w.size();
                return true;
            }
            a = spanBegin<Traced>(tr);
            l.close();
            spanEnd<Traced>(p, tr, kLeaseClose, a);
        }
        if constexpr (Poll) {
            const uint64_t a = spanBegin<Traced>(tr);
            (void)s->pollControl();
            spanEnd<Traced>(p, tr, kPoll, a);
        }
        const uint64_t a = spanBegin<Traced>(tr);
        // Size the lease so that at least this entry fits.
        l = bt.lease(p.core, p.id, std::max(hint, len), entries);
        spanEnd<Traced>(p, tr, kLeaseOpen, a);
        if (l.ok())
            continue;
        if (l.status() == AllocStatus::Drop)
            return false;
        backoff(p);
    }
    return false;
}

uint32_t
leaseHint()
{
    return uint32_t(Workload{}.meanPayloadBytes() + 0.5);
}

/** Closed loop until @p deadline: one record per iteration. */
template <bool Traced, bool Leased>
void
flightLoop(BTrace &bt, Producer &p, uint64_t start, uint64_t deadline)
{
    sleepUntil(start);
    const uint32_t hint = leaseHint();
    Lease lease;
    OpTrace tr;
    Window *w = p.t.win.data();
    uint64_t winEnd = start + kWindowNs;
    for (;;) {
        uint64_t stamp = nowNs();
        if (stamp >= deadline)
            break;
        stamp = std::max(stamp, p.lastStamp + 1);
        p.lastStamp = stamp;
        for (; stamp >= winEnd; winEnd += kWindowNs)
            ++w;
        const uint32_t len = p.sizes[p.k++ & (kTableSize - 1)];
        const bool timed = p.sampler.next();
        tr.on = Traced && timed;
        tr.n = 0;
        if constexpr (Traced)
            tr.add(kRecord, stamp, 0);
        ++w->attempted;
        bool ok;
        if constexpr (Leased)
            ok = writeLeased<Traced, false>(bt, nullptr, p, lease, tr,
                                            stamp, len, hint);
        else
            ok = writeSingle<Traced>(bt, p, tr, stamp, len);
        if (ok)
            ++w->accepted;
        else
            ++p.t.refused;
        if constexpr (Traced)
            ++p.t.calls[kRecord];
        if (timed) {
            const uint64_t end = nowNs();
            w->lat.add(end - stamp);
            if constexpr (Traced) {
                tr.ops[0].end = end;
                p.spans.add(tr.ops, tr.n);
            }
        }
    }
    lease.close();
}

/**
 * Open loop: bursts fall due on the producer's seeded schedule until
 * @p end; each record is timed from when its burst was due. A lease
 * lives for one burst: a lease held across the idle gap would keep
 * its block incomplete, so the daemon could neither close nor read it.
 */
template <bool Traced>
void
pipelineLoop(BTrace &bt, Producer &p, uint64_t start, uint64_t end)
{
    const uint32_t hint = leaseHint();
    OpTrace tr;
    Window *w = p.t.win.data();
    uint64_t winEnd = start + kWindowNs;
    uint64_t due = start + p.phaseNs;
    for (uint64_t burst = 0;; ++burst) {
        due += p.gaps[burst & (kTableSize - 1)];
        if (due >= end)
            break;
        for (; due >= winEnd; winEnd += kWindowNs)
            ++w;
        uint64_t now = nowNs();
        // Records are timed from when their burst was due, unless the
        // producer slept and the host woke it after that: the wake-up
        // delay is the generator's (gen.late_p99_us), not the tracer's.
        uint64_t origin = due;
        if (due > now + kSpinNs) {
            sleepUntil(due - kSpinNs);
            origin = std::max(due, nowNs());
        }
        while ((now = nowNs()) < due)
            cpuRelax();
        p.t.late.add(now - due);
        const uint64_t begin = now;
        Lease lease;
        for (uint32_t i = 0; i < kBurst; ++i) {
            const uint64_t stamp = std::max(due, p.lastStamp + 1);
            p.lastStamp = stamp;
            const uint32_t len = p.sizes[p.k++ & (kTableSize - 1)];
            tr.on = Traced && p.sampler.next();
            tr.n = 0;
            if constexpr (Traced)
                tr.add(kRecord, now, 0);
            ++w->attempted;
            // Lease no more than the burst still needs.
            if (writeLeased<Traced, true>(
                    bt, p.session, p, lease, tr, stamp, len, hint,
                    std::min(kLeaseEntries, kBurst - i)))
                ++w->accepted;
            else
                ++p.t.refused;
            const uint64_t done = nowNs();
            w->lat.add(done - origin);
            if constexpr (Traced) {
                ++p.t.calls[kRecord];
                if (tr.on) {
                    tr.ops[0].end = done;
                    p.spans.add(tr.ops, tr.n);
                }
            }
            now = done;
        }
        tr.on = false;  // counted, not timed: no record owns it
        spanEnd<Traced>(p, tr, kLeaseClose, 0);
        lease.close();
        w->busyNs += nowNs() - begin;
    }
}

/**
 * Null tracer of the same shape as the flight loops: stamp, size,
 * sampling and the entry fill, into a private block instead of the
 * tracer. Its rate is the harness ceiling.
 */
void
nullLoop(Producer &p, uint64_t start, uint64_t deadline)
{
    sleepUntil(start);
    std::vector<uint8_t> block(kBlockSize);
    std::size_t used = 0;
    for (;;) {
        uint64_t stamp = nowNs();
        if (stamp >= deadline)
            break;
        stamp = std::max(stamp, p.lastStamp + 1);
        p.lastStamp = stamp;
        const uint32_t len = p.sizes[p.k++ & (kTableSize - 1)];
        const bool timed = p.sampler.next();
        const std::size_t need = EntryLayout::normalSize(len);
        if (used + need > block.size())
            used = 0;
        writeNormal(block.data() + used, stamp, p.core, p.id, 0, len);
        used += need;
        ++p.t.win[0].accepted;
        if (timed)
            p.t.win[0].lat.add(nowNs() - stamp);
    }
}

/** One drain pass as seen from outside the daemon. */
struct Pass
{
    uint64_t records = 0;
    uint64_t endNs = 0;
    double cpuSec = 0.0;  //!< drain thread CPU time at the pass end
};

/** The drain thread's private log. */
struct DrainLog
{
    std::vector<Pass> passes;
    uint64_t busyNs = 0;
    Histogram durNs;
    SpanLog spans;
    std::string error;
};

/** drainOnce at the daemon's own cadence until @p stop. */
void
drainLoop(ConsumerDaemon &d, DrainLog &log, const std::atomic<bool> &stop,
          bool traced)
{
    const auto interval =
        std::chrono::duration<double>(DaemonOptions{}.drainIntervalSec);
    while (!stop.load(std::memory_order_acquire)) {
        const uint64_t a = nowNs();
        Expected<uint64_t> n = d.drainOnce();
        const uint64_t b = nowNs();
        if (!n.ok()) {
            log.error = n.status().toString();
            return;
        }
        log.passes.push_back(
            Pass{n.value(), b, cpuSeconds(CLOCK_THREAD_CPUTIME_ID)});
        log.busyNs += b - a;
        log.durNs.add(b - a);
        if (traced) {
            const Span s{kDrain, -1, a, b};
            log.spans.add(&s, 1);
        }
        std::this_thread::sleep_for(interval);
    }
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
};

/** The tracer under test plus, on the pipeline, its daemon. */
struct Env
{
    Session owner;
    std::vector<std::unique_ptr<Session>> producerSessions;
    std::unique_ptr<ConsumerDaemon> daemon;
    std::string arenaPath;
    std::string segDir;
};

struct SetupTimes
{
    std::vector<double> totalSec;
    std::vector<double> createMs;
    std::vector<double> attachMs;
    std::vector<double> makeMs;
};

BTraceConfig
geometry()
{
    BTraceConfig cfg;
    cfg.blockSize = kBlockSize;
    cfg.numBlocks = kNumBlocks;
    cfg.activeBlocks = kActiveBlocks;
    cfg.cores = kCores;
    cfg.storage = StorageKind::Private;
    return cfg;
}

[[noreturn]] void
die(const std::string &what)
{
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    std::exit(2);
}

double
msSince(uint64_t a)
{
    return double(nowNs() - a) * 1e-6;
}

/**
 * Build the environment: a private ring for the flight workloads; a
 * file arena, one attachment per producer, one for the daemon, and
 * the daemon for the pipeline.
 */
Env
setUp(Kind kind, const fs::path &dir, int rep, SetupTimes &times)
{
    Env env;
    BTraceConfig cfg = geometry();
    const uint64_t t0 = nowNs();
    if (kind != Kind::Pipeline) {
        auto s = Session::create(cfg);
        if (!s.ok())
            die("create: " + s.status().toString());
        env.owner = s.take();
        const double ms = msSince(t0);
        times.createMs.push_back(ms);
        times.totalSec.push_back(ms * 1e-3);
        return env;
    }
    const std::string arena = env.arenaPath =
        (dir / ("arena-" + std::to_string(rep) + ".ring")).string();
    env.segDir = (dir / ("segments-" + std::to_string(rep))).string();
    cfg.storage = StorageKind::File;
    cfg.arenaPath = arena;
    auto s = Session::create(cfg);
    if (!s.ok())
        die("create: " + s.status().toString());
    env.owner = s.take();
    double total = msSince(t0);
    times.createMs.push_back(total);
    for (unsigned i = 0; i <= kPipelineProducers; ++i) {
        const uint64_t a = nowNs();
        auto att = Session::attachFile(arena);
        if (!att.ok())
            die("attach: " + att.status().toString());
        const double ms = msSince(a);
        times.attachMs.push_back(ms);
        total += ms;
        if (i < kPipelineProducers) {
            env.producerSessions.push_back(
                std::make_unique<Session>(att.take()));
            continue;
        }
        DaemonOptions opt;
        opt.outDir = env.segDir;
        opt.maxSegments = 0;  // keep every segment for the read-back
        const uint64_t m = nowNs();
        auto d = ConsumerDaemon::make(att.take(), opt);
        if (!d.ok())
            die("daemon: " + d.status().toString());
        env.daemon = d.take();
        const double mms = msSince(m);
        times.makeMs.push_back(mms);
        total += mms;
    }
    times.totalSec.push_back(total * 1e-3);
    return env;
}

/**
 * Detach everything and delete the arena and segments, so the set-up
 * repetitions leave no dirty pages to be written back during the run.
 */
void
tearDown(Env &env)
{
    if (env.daemon)
        env.daemon->stop();
    env.daemon.reset();
    env.producerSessions.clear();
    env.owner = Session();
    std::error_code ec;
    if (!env.arenaPath.empty())
        fs::remove(env.arenaPath, ec);
    if (!env.segDir.empty())
        fs::remove_all(env.segDir, ec);
}

/** Counters summed over every attachment of the environment. */
BTraceCounters::Snapshot
counters(Env &env)
{
    BTraceCounters::Snapshot sum = env.owner->countersSnapshot();
    auto add = [&sum](const BTraceCounters::Snapshot &c) {
        sum.fastAllocs += c.fastAllocs;
        sum.boundaryFills += c.boundaryFills;
        sum.staleAllocs += c.staleAllocs;
        sum.advances += c.advances;
        sum.skips += c.skips;
        sum.closes += c.closes;
        sum.lockRaces += c.lockRaces;
        sum.coreRaces += c.coreRaces;
        sum.wouldBlock += c.wouldBlock;
        sum.dummyBytes += c.dummyBytes;
        sum.sharedRmws += c.sharedRmws;
        sum.leases += c.leases;
        sum.leaseEntries += c.leaseEntries;
    };
    for (auto &s : env.producerSessions)
        add((*s)->countersSnapshot());
    if (env.daemon)
        add(env.daemon->session()->countersSnapshot());
    return sum;
}

/** Everything the producers did in one phase, merged. */
struct Phase
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    double wallSec = 0.0;
    double cpuSec = 0.0;   //!< process CPU over the phase
    uint64_t attempted = 0;
    uint64_t accepted = 0;
    Histogram lat;         //!< all windows
    Tally t;
    BTraceCounters::Snapshot ctrs;
    std::vector<uint64_t> selfNs[kSpanNames];  //!< per span name
};

/** Bounded Pareto quantile, the inverse of Prng::heavyTail's CDF. */
double
paretoQuantile(const Workload &wl, double u)
{
    const double la = std::pow(wl.payloadLo, wl.payloadShape);
    const double ha = std::pow(wl.payloadHi, wl.payloadShape);
    return std::pow(-(u * ha - u * la - ha) / (ha * la),
                    -1.0 / wl.payloadShape);
}

/**
 * kTableSize draws of @p quantile at stratified probabilities, in a
 * seeded random order: every seed gets the same distribution (and
 * mean) in a different sequence.
 */
template <class Quantile>
std::vector<double>
stratified(Prng &rng, Quantile quantile)
{
    std::vector<double> v(kTableSize);
    for (std::size_t i = 0; i < kTableSize; ++i)
        v[i] = quantile((double(i) + rng.nextDouble()) / kTableSize);
    for (std::size_t i = kTableSize - 1; i > 0; --i)
        std::swap(v[i], v[rng.nextBounded(i + 1)]);
    return v;
}

std::vector<std::unique_ptr<Producer>>
makeProducers(Kind kind, uint64_t seed, Env &env)
{
    const unsigned n =
        kind == Kind::Pipeline ? kPipelineProducers : kFlightProducers;
    const Workload wl;  // catalog default: bounded Pareto 16-512 B, 1.1
    const double meanGap = 1e9 * kBurst / kPipelineRatePerProducer;
    std::vector<std::unique_ptr<Producer>> out;
    for (unsigned i = 0; i < n; ++i) {
        auto p = std::make_unique<Producer>();
        p->id = i + 1;
        p->core = uint16_t(i);
        Prng rng(seed * 0x9e3779b97f4a7c15ull + i + 1);
        for (const double x : stratified(
                 rng, [&](double u) { return paretoQuantile(wl, u); }))
            p->sizes.push_back(uint32_t(x));
        // Poisson burst arrivals, rescaled so every seed runs at
        // exactly the nominal rate.
        const std::vector<double> g = stratified(
            rng, [](double u) { return -std::log1p(-u); });
        double sum = 0.0;
        for (const double x : g)
            sum += x;
        for (const double x : g)
            p->gaps.push_back(std::max<uint32_t>(
                1, uint32_t(x * meanGap * kTableSize / sum + 0.5)));
        p->phaseNs = rng.nextBounded(uint64_t(meanGap));
        p->sampler.s = rng.next() | 1;
        if (kind == Kind::Pipeline)
            p->session = env.producerSessions[i].get();
        out.push_back(std::move(p));
    }
    return out;
}

enum class Mode { Null, Untraced, Traced };

Phase
runPhase(Kind kind, Mode mode, Env &env,
         std::vector<std::unique_ptr<Producer>> &prods, double seconds)
{
    const auto windows = std::size_t(
        std::ceil(seconds * 1e9 / double(kWindowNs) - 1e-9));
    for (auto &p : prods) {
        p->t = Tally{};
        p->t.win.resize(windows);
    }
    const BTraceCounters::Snapshot c0 = counters(env);
    const uint64_t start = nowNs() + 5'000'000;
    const uint64_t end = start + uint64_t(seconds * 1e9);
    const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    std::vector<std::thread> threads;
    for (auto &pp : prods) {
        Producer *p = pp.get();
        BTrace &bt = kind == Kind::Pipeline ? p->session->tracer()
                                            : env.owner.tracer();
        threads.emplace_back([=, &bt]() {
            if (kind == Kind::Pipeline)
                pinToCpu(p->core);
            if (mode == Mode::Null)
                nullLoop(*p, start, end);
            else if (kind == Kind::Pipeline)
                mode == Mode::Traced ? pipelineLoop<true>(bt, *p, start, end)
                                     : pipelineLoop<false>(bt, *p, start, end);
            else if (kind == Kind::LeaseBatch)
                mode == Mode::Traced
                    ? flightLoop<true, true>(bt, *p, start, end)
                    : flightLoop<false, true>(bt, *p, start, end);
            else
                mode == Mode::Traced
                    ? flightLoop<true, false>(bt, *p, start, end)
                    : flightLoop<false, false>(bt, *p, start, end);
        });
    }
    for (auto &th : threads)
        th.join();
    Phase ph;
    ph.cpuSec = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    ph.startNs = start;
    ph.endNs = end;
    ph.wallSec = double(end - start) * 1e-9;
    ph.ctrs = counters(env) - c0;
    ph.t.win.resize(windows);
    for (auto &p : prods) {
        Tally &t = p->t;
        ph.t.refused += t.refused;
        ph.t.acceptedBytes += t.acceptedBytes;
        ph.t.retries += t.retries;
        ph.t.retryWaitNs += t.retryWaitNs;
        for (unsigned n = 0; n < kSpanNames; ++n)
            ph.t.calls[n] += t.calls[n];
        for (std::size_t w = 0; w < windows; ++w) {
            ph.t.win[w].attempted += t.win[w].attempted;
            ph.t.win[w].accepted += t.win[w].accepted;
            ph.t.win[w].busyNs += t.win[w].busyNs;
            ph.t.win[w].lat.merge(t.win[w].lat);
        }
        ph.t.late.merge(t.late);
        if (mode == Mode::Traced) {
            const std::vector<Span> &spans = p->spans.all();
            const std::vector<uint64_t> self = selfTimes(spans);
            for (std::size_t i = 0; i < spans.size(); ++i)
                ph.selfNs[spans[i].name].push_back(self[i]);
        }
    }
    for (const Window &w : ph.t.win) {
        ph.attempted += w.attempted;
        ph.accepted += w.accepted;
        ph.lat.merge(w.lat);
    }
    return ph;
}

/** Windows of @p ph that lie wholly inside it (at least one). */
std::size_t
fullWindows(const Phase &ph)
{
    return std::max<std::size_t>(
        1, std::size_t(ph.wallSec * 1e9 / double(kWindowNs) + 1e-9));
}

/** Median over the phase's windows of @p f(window index). */
template <class F>
double
windowMedian(std::size_t windows, F f)
{
    std::vector<double> v;
    for (std::size_t w = 0; w < windows; ++w)
        v.push_back(f(w));
    return median(v);
}

/** Per-producer order and integrity checks over read-back records. */
class RecordChecker
{
  public:
    explicit RecordChecker(unsigned producers) : last(producers + 1, 0) {}

    void
    check(const DumpEntry &e)
    {
        ++records;
        if (!e.payloadOk)
            ++badPayload;
        if (e.thread == 0 || e.thread >= last.size()) {
            ++badProducer;
            return;
        }
        if (e.size < EntryLayout::normalSize(16) ||
            e.size > EntryLayout::normalSize(512))
            ++badSize;
        uint64_t &prev = last[e.thread];
        if (e.stamp <= prev)
            ++outOfOrder;  // a duplicate or a reordering
        prev = e.stamp;
    }

    bool
    ok(std::string &why) const
    {
        if (badPayload + badProducer + badSize + outOfOrder == 0)
            return true;
        why = "payload-corrupt=" + std::to_string(badPayload) +
              " unknown-producer=" + std::to_string(badProducer) +
              " bad-size=" + std::to_string(badSize) +
              " duplicate-or-out-of-order=" + std::to_string(outOfOrder);
        return false;
    }

    uint64_t records = 0;

  private:
    std::vector<uint64_t> last;
    uint64_t badPayload = 0;
    uint64_t badProducer = 0;
    uint64_t badSize = 0;
    uint64_t outOfOrder = 0;
};

/**
 * Dump @p reps times, 40 ms apart, timing the warm ones into @p rates
 * (Mrec/s); return the first dump.
 */
Dump
timedDumps(BTrace &bt, int reps, std::vector<double> &rates)
{
    Dump first;
    for (int r = 0; r < reps; ++r) {
        const uint64_t a = nowNs();
        Dump d = bt.dump();
        const uint64_t b = nowNs();
        if (r >= kDumpWarmReps)
            rates.push_back(double(d.entries.size()) * 1e3 / double(b - a));
        if (r == 0)
            first = std::move(d);
        if (r + 1 < reps)
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    return first;
}

/** Results of the output checks and the read-back. */
struct Outcome
{
    std::vector<std::string> violations;
    double retainedFrac = 0.0;
    uint64_t readBack = 0;       //!< records read back (dump or segments)
    double readMrecS = 0.0;      //!< segment or warm dump() read rate
    double readMs = 0.0;
    Histogram lagNs;             //!< every record read back
    uint64_t lagClamped = 0;
    double diskBytesPerRec = 0.0;
    /** Pipeline: lag and read-back count per window of the base phase. */
    std::vector<Histogram> lagWin;
    std::vector<uint64_t> readWin;
};

/**
 * Final dump of the ring: retention, order, payloads. On the flight
 * workloads it is the read-back: lag is each retained record's age
 * when the writers stopped at @p writersStopped (the retention
 * horizon; harness work between the stop and the dump is left out),
 * and the read rate is the median over repeated warm dumps.
 */
void
checkDump(BTrace &bt, unsigned producers, Outcome &out, bool readBack,
          uint64_t writersStopped, int reps, std::vector<double> &rates)
{
    const Dump first = timedDumps(bt, reps, rates);
    RecordChecker chk(producers);
    uint64_t normalBytes = 0;
    for (const DumpEntry &e : first.entries) {
        chk.check(e);
        normalBytes += e.size;
        if (readBack)
            out.lagNs.add(writersStopped > e.stamp ? writersStopped - e.stamp
                                                   : 0);
    }
    std::string why;
    if (!chk.ok(why))
        out.violations.push_back("final dump: " + why);
    out.retainedFrac = double(normalBytes) / double(bt.capacityBytes());
    if (readBack) {
        out.readBack = chk.records;
        out.readMrecS = median(rates);
    }
}

/**
 * Read every segment back and join each record, in segment order, to
 * the drain pass that wrote it: lag is record stamp to the end of
 * that pass. Lag and counts are also kept per window of @p base.
 */
void
checkSegments(const std::string &dir, const std::vector<Pass> &passes,
              unsigned producers, const Phase &base, Outcome &out)
{
    std::vector<uint64_t> counts;
    for (const Pass &p : passes)
        counts.push_back(p.records);
    const PassJoin join(counts);
    out.lagWin.resize(base.t.win.size());
    out.readWin.assign(base.t.win.size(), 0);
    auto files = listSegmentFiles(dir);
    if (!files.ok()) {
        out.violations.push_back("segments: " + files.status().toString());
        return;
    }
    SegmentAggregator agg(0.0);
    RecordChecker chk(producers);
    uint64_t readNs = 0, diskBytes = 0, index = 0;
    std::vector<double> rates;  // per segment; the median resists stalls
    for (const SegmentFile &f : files.value()) {
        const uint64_t a = nowNs();
        auto info = readSegment(f.path, /*strict=*/true);
        if (!info.ok()) {
            out.violations.push_back(f.path + ": " +
                                     info.status().toString());
            return;
        }
        agg.addSegment(info.value(), f);
        const uint64_t took = nowNs() - a;
        readNs += took;
        rates.push_back(double(info.value().entries.size()) * 1e3 /
                        double(std::max<uint64_t>(1, took)));
        diskBytes += fs::file_size(f.path);
        for (const DumpEntry &e : info.value().entries) {
            chk.check(e);
            const bool inBase = e.stamp >= base.startNs && e.stamp < base.endNs;
            const std::size_t w =
                inBase ? std::size_t((e.stamp - base.startNs) / kWindowNs) : 0;
            if (inBase)
                ++out.readWin[w];
            if (index < join.total()) {
                const uint64_t end = passes[join.passOf(index)].endNs;
                if (end >= e.stamp) {
                    out.lagNs.add(end - e.stamp);
                    if (inBase)
                        out.lagWin[w].add(end - e.stamp);
                } else {
                    ++out.lagClamped;
                }
            }
            ++index;
        }
    }
    std::string why;
    if (!chk.ok(why))
        out.violations.push_back("segments: " + why);
    if (agg.stats().records != chk.records)
        out.violations.push_back("aggregator and scan disagree");
    if (chk.records != join.total())
        out.violations.push_back(
            "segments hold " + std::to_string(chk.records) +
            " records, drain passes reported " +
            std::to_string(join.total()));
    out.readBack = chk.records;
    out.readMs = double(readNs) * 1e-6;
    out.readMrecS = median(rates);
    out.diskBytesPerRec =
        chk.records ? double(diskBytes) / double(chk.records) : 0.0;
}

/** Ordered metric list for the JSON line. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> m;

    std::vector<std::string> *violations = nullptr;

    void
    put(const std::string &name, double v, const std::string &unit)
    {
        if (!std::isfinite(v)) {
            violations->push_back(name + " is not a finite number");
            v = 0.0;
        }
        m.push_back({name, {v, unit}});
    }
};

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
meanOf(const std::vector<uint64_t> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (uint64_t x : v)
        s += double(x);
    return s / double(v.size());
}

double
perKrec(uint64_t n, uint64_t recs)
{
    return recs ? double(n) * 1e3 / double(recs) : 0.0;
}

/** Cost of one clock read, ns. */
double
clockCostNs()
{
    constexpr int kReads = 1 << 20;
    uint64_t sink = 0;
    const uint64_t a = nowNs();
    for (int i = 0; i < kReads; ++i)
        sink += nowNs();
    const uint64_t b = nowNs();
    if (sink == 0)
        std::fprintf(stderr, " ");
    return double(b - a) / kReads;
}

void
printDistribution(const char *what, const Histogram &h, double scale,
                  const char *unit)
{
    const double p = highestReportable(h.count());
    std::printf("%-22s n=%llu p50=%.4f p99=%.4f p%g=%.4f %s "
                "(highest percentile with >=10 samples beyond)\n",
                what, static_cast<unsigned long long>(h.count()),
                h.percentile(50) * scale, h.percentile(99) * scale, p,
                h.percentile(p) * scale, unit);
}

void
writeSpans(const fs::path &file,
           const std::vector<std::unique_ptr<Producer>> &prods,
           const DrainLog &drain)
{
    FILE *f = std::fopen(file.c_str(), "w");
    if (f == nullptr)
        return;
    std::fprintf(f, "thread\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
    auto dumpLog = [f](const char *who, const std::vector<Span> &spans) {
        const std::vector<uint64_t> self = selfTimes(spans);
        for (std::size_t i = 0; i < spans.size(); ++i)
            std::fprintf(f, "%s\t%s\t%llu\t%llu\t%d\t%llu\n", who,
                         kSpanNameText[spans[i].name],
                         static_cast<unsigned long long>(spans[i].start),
                         static_cast<unsigned long long>(spans[i].end),
                         spans[i].parent,
                         static_cast<unsigned long long>(self[i]));
    };
    for (const auto &p : prods)
        dumpLog(("producer-" + std::to_string(p->id)).c_str(),
                p->spans.all());
    dumpLog("drain", drain.spans.all());
    std::fclose(f);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else
            die("unknown argument " + k);
    }
    if (a.seconds <= 0.0)
        die("--seconds must be positive");
    return a;
}

int
run(const Args &args)
{
    Kind kind;
    if (args.workload == "record-single")
        kind = Kind::RecordSingle;
    else if (args.workload == "lease-batch")
        kind = Kind::LeaseBatch;
    else if (args.workload == "pipeline")
        kind = Kind::Pipeline;
    else
        die("unknown workload '" + args.workload + "'");
    const bool pipeline = kind == Kind::Pipeline;
    const unsigned producers =
        pipeline ? kPipelineProducers : kFlightProducers;

    const fs::path dir =
        fs::path(args.workDir) / ("run-" + std::to_string(::getpid()));
    fs::create_directories(dir);

    // Set-up, several times; the last environment runs the workload.
    SetupTimes setup;
    Env env;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep != 0)
            tearDown(env);
        env = setUp(kind, dir, rep, setup);
    }
    if (env.owner->activeProfiler() != nullptr)
        die("cost profiler armed");

    auto prods = makeProducers(kind, args.seed, env);

    // Drain thread (pipeline only), running across every phase.
    DrainLog drain;
    std::atomic<bool> stopDrain{false};
    std::thread drainer;
    if (pipeline)
        drainer = std::thread([&]() {
            pinToCpu(kPipelineProducers);
            drainLoop(*env.daemon, drain, stopDrain, args.trace);
        });

    Phase nullPh, base, traced;
    const Phase warm = runPhase(kind, Mode::Untraced, env, prods, kWarmupSec);
    // The dump read rate is a layer metric: time it only when traced.
    const int dumpReps = args.trace ? kDumpReps : 1;
    std::vector<double> dumpRates;
    if (!pipeline && args.trace)
        (void)timedDumps(env.owner.tracer(), dumpReps, dumpRates);
    double clockNs = 0.0;
    if (args.trace) {
        clockNs = clockCostNs();
        nullPh = runPhase(kind, Mode::Null, env, prods, args.seconds * 0.1);
        base = runPhase(kind, Mode::Untraced, env, prods,
                        args.seconds * 0.45);
        traced = runPhase(kind, Mode::Traced, env, prods,
                          args.seconds * 0.45);
    } else {
        base = runPhase(kind, Mode::Untraced, env, prods, args.seconds);
    }
    Outcome out;
    if (env.owner->activeProfiler() != nullptr)
        out.violations.push_back("cost profiler armed during the run");
    const uint64_t accepted = warm.accepted + base.accepted + traced.accepted;
    const uint64_t attempted =
        warm.attempted + base.attempted + traced.attempted;
    const uint64_t refused =
        warm.t.refused + base.t.refused + traced.t.refused;
    DaemonStats dstats;
    if (pipeline) {
        stopDrain.store(true, std::memory_order_release);
        drainer.join();
        if (!drain.error.empty())
            out.violations.push_back("drainOnce: " + drain.error);
        uint64_t passed = 0;
        for (const Pass &p : drain.passes)
            passed += p.records;
        env.daemon->stop();  // final close-active drain
        dstats = env.daemon->stats();
        drain.passes.push_back(Pass{dstats.entries - passed, nowNs(),
                                    drain.passes.empty()
                                        ? 0.0
                                        : drain.passes.back().cpuSec});
        checkSegments(env.segDir, drain.passes, producers, base, out);
        std::vector<double> unused;
        checkDump(env.owner.tracer(), producers, out, false, 0, 1, unused);
    } else {
        const Phase &last = args.trace ? traced : base;
        checkDump(env.owner.tracer(), producers, out, true, last.endNs,
                  dumpReps, dumpRates);
        const AuditReport audit = BTraceAuditor(env.owner.tracer()).audit();
        if (!audit.ok())
            out.violations.push_back("auditor: " + audit.summary());
    }
    if (out.readBack > accepted)
        out.violations.push_back("read back more records than accepted");
    const uint64_t missing =
        pipeline && accepted > out.readBack ? accepted - out.readBack : 0;

    Metrics m;
    m.violations = &out.violations;
    const double setupSec = median(setup.totalSec);
    // CPU seconds of tracing work per million records: process CPU on
    // the closed loops; on the open loop, the median over windows
    // of producer time spent writing plus the drain thread's CPU,
    // leaving out the generator's wait for due times.
    auto workPerMrec = [&](const Phase &ph) {
        if (!pipeline)
            return ph.cpuSec / (double(ph.accepted) * 1e-6);
        auto drainCpuAt = [&](uint64_t t) {
            double c = 0.0;
            for (const Pass &p : drain.passes)
                if (p.endNs <= t)
                    c = p.cpuSec;
            return c;
        };
        const std::size_t windows = fullWindows(ph);
        return windowMedian(windows, [&](std::size_t w) {
            const uint64_t a = ph.startNs + w * kWindowNs;
            const Window &win = ph.t.win[w];
            return (double(win.busyNs) * 1e-9 + drainCpuAt(a + kWindowNs) -
                    drainCpuAt(a)) /
                   (double(std::max<uint64_t>(1, win.accepted)) * 1e-6);
        });
    };
    if (!args.trace) {
        // Rates and timings are medians over 100 ms windows, so one
        // host stall moves a window, not the result. Delivery counts
        // the whole phase: every lost record stays in it.
        const std::size_t windows = fullWindows(base);
        const std::vector<Window> &win = base.t.win;
        auto latAt = [&](double p) {
            return windowMedian(windows, [&](std::size_t w) {
                return win[w].lat.percentile(p);
            });
        };
        auto lagAt = [&](double p) {
            if (!pipeline)
                return out.lagNs.percentile(p) * 1e-6;
            return windowMedian(windows, [&](std::size_t w) {
                return out.lagWin[w].percentile(p) * 1e-6;
            });
        };
        uint64_t readInBase = 0;
        for (const uint64_t n : out.readWin)
            readInBase += n;
        const double delivered =
            pipeline ? double(readInBase) / double(base.attempted)
                     : double(attempted - refused) / double(attempted);
        m.put("throughput_mrec_s",
              windowMedian(windows,
                           [&](std::size_t w) {
                               return double(win[w].accepted) * 1e-6 *
                                      (1e9 / double(kWindowNs));
                           }),
              "Mrec/s");
        m.put("record_p50_ns", latAt(50), "ns");
        m.put("record_p99_ns", latAt(99), "ns");
        m.put("retained_frac", out.retainedFrac, "ratio");
        m.put("delivered_frac", delivered, "ratio");
        m.put("lag_p50_ms", lagAt(50), "ms");
        m.put("lag_p99_ms", lagAt(99), "ms");
        m.put("cpu_s_per_mrec", workPerMrec(base), "s/Mrec");
        m.put("peak_rss_mb", peakRssMb(), "MB");
        m.put("setup_s", setupSec, "s");
        printDistribution("record latency (run)", base.lat, 1.0, "ns");
        printDistribution("lag (run)", out.lagNs, 1e-6, "ms");
        std::vector<double> p99s;
        for (std::size_t w = 0; w < windows; ++w)
            p99s.push_back(win[w].lat.percentile(99));
        std::sort(p99s.begin(), p99s.end());
        std::printf("record p99 per window   n=%zu min=%.0f q1=%.0f "
                    "median=%.0f q3=%.0f max=%.0f ns\n",
                    windows, p99s.front(), p99s[windows / 4],
                    p99s[windows / 2], p99s[3 * windows / 4], p99s.back());
        for (std::size_t w = 0; w < windows; ++w) {
            const uint64_t n[2] = {
                win[w].lat.count(),
                pipeline ? out.lagWin[w].count() : out.lagNs.count()};
            for (int i = 0; i < 2; ++i)
                if (!reportable(99.0, n[i]))
                    out.violations.push_back(
                        std::string(i ? "lag" : "record latency") +
                        ": fewer than 10 samples beyond p99 in window " +
                        std::to_string(w));
        }
    } else {
        const Tally &t = traced.t;
        const uint64_t recs = traced.accepted;
        auto selfMean = [&](SpanName n) { return meanOf(traced.selfNs[n]); };
        const BTraceCounters::Snapshot &c = traced.ctrs;
        m.put("core.allocate_ns", selfMean(kAllocate), "ns");
        m.put("core.confirm_ns", selfMean(kConfirm), "ns");
        m.put("core.shared_rmws_per_rec",
              recs ? double(c.sharedRmws) / double(recs) : 0.0, "count");
        m.put("trace.bump_ns", selfMean(kBump), "ns");
        m.put("trace.fill_ns", selfMean(kFill), "ns");
        m.put("core.lease_open_ns", selfMean(kLeaseOpen), "ns");
        m.put("core.lease_close_ns", selfMean(kLeaseClose), "ns");
        m.put("core.leases_per_krec", perKrec(c.leases, recs), "1/krec");
        m.put("core.advances_per_krec", perKrec(c.advances, recs),
              "1/krec");
        m.put("core.closes_per_krec", perKrec(c.closes, recs), "1/krec");
        m.put("core.skips_per_krec", perKrec(c.skips, recs), "1/krec");
        m.put("core.races_per_krec",
              perKrec(c.lockRaces + c.coreRaces + c.staleAllocs, recs),
              "1/krec");
        m.put("core.dummy_byte_frac",
              double(c.dummyBytes) /
                  double(std::max<uint64_t>(1, c.dummyBytes +
                                                   t.acceptedBytes)),
              "ratio");
        m.put("core.retries_per_krec", perKrec(t.retries, recs), "1/krec");
        m.put("core.retry_wait_ns",
              t.retries ? double(t.retryWaitNs) / double(t.retries) : 0.0,
              "ns");
        m.put("control.poll_ns", selfMean(kPoll), "ns");
        m.put("gen.late_p99_us", t.late.percentile(99) * 1e-3, "us");
        const double wall = base.wallSec + traced.wallSec + nullPh.wallSec;
        m.put("daemon.drain_ms_p50", drain.durNs.percentile(50) * 1e-6,
              "ms");
        m.put("daemon.drain_ms_p99", drain.durNs.percentile(99) * 1e-6,
              "ms");
        m.put("daemon.busy_frac", double(drain.busyNs) * 1e-9 / wall,
              "ratio");
        m.put("daemon.recs_per_drain",
              dstats.drains ? double(dstats.entries) / double(dstats.drains)
                            : 0.0,
              "count");
        m.put("daemon.disk_bytes_per_rec", out.diskBytesPerRec, "B");
        m.put("daemon.overwritten_positions",
              double(dstats.overwrittenPositions), "count");
        m.put("daemon.skipped_blocks", double(dstats.skippedBlocks),
              "count");
        m.put("daemon.abandoned_blocks", double(dstats.abandonedBlocks),
              "count");
        m.put("daemon.missing_recs", double(missing), "count");
        m.put("segments.read_ms", out.readMs, "ms");
        m.put("segments.read_mrec_s", pipeline ? out.readMrecS : 0.0,
              "Mrec/s");
        m.put("core.dump_mrec_s", pipeline ? 0.0 : out.readMrecS, "Mrec/s");
        m.put("storage.create_ms", median(setup.createMs), "ms");
        m.put("storage.attach_ms", median(setup.attachMs), "ms");
        m.put("daemon.make_ms", median(setup.makeMs), "ms");
        m.put("bench.null_mrec_s",
              double(nullPh.accepted) * 1e-6 / nullPh.wallSec, "Mrec/s");
        m.put("bench.clock_cost_ns", clockNs, "ns");
        m.put("bench.trace_overhead_frac",
              workPerMrec(traced) / workPerMrec(base) - 1.0, "ratio");
        m.put("bench.unattributed_ns", selfMean(kRecord), "ns");
        writeSpans(fs::path(args.workDir) / ("spans-" + args.workload +
                                             ".tsv"),
                   prods, drain);
        std::printf("span calls (traced phase):");
        for (unsigned n = 0; n < kSpanNames; ++n)
            if (t.calls[n] != 0)
                std::printf(" %s=%llu", kSpanNameText[n],
                            static_cast<unsigned long long>(t.calls[n]));
        std::printf("\n");
    }

    if (pipeline) {
        std::printf("pipeline: accepted=%llu read_back=%llu missing=%llu "
                    "(failed_frac=%.6f incl. refused=%llu); daemon "
                    "overwritten=%llu skipped=%llu abandoned=%llu; "
                    "lag clamped=%llu\n",
                    static_cast<unsigned long long>(accepted),
                    static_cast<unsigned long long>(out.readBack),
                    static_cast<unsigned long long>(missing),
                    double(refused + missing) / double(attempted),
                    static_cast<unsigned long long>(refused),
                    static_cast<unsigned long long>(
                        dstats.overwrittenPositions),
                    static_cast<unsigned long long>(dstats.skippedBlocks),
                    static_cast<unsigned long long>(dstats.abandonedBlocks),
                    static_cast<unsigned long long>(out.lagClamped));
    }
    for (const auto &[name, vu] : m.m)
        std::printf("%-28s %14.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    for (const std::string &v : out.violations)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", v.c_str());

    if (drainer.joinable()) {
        stopDrain.store(true, std::memory_order_release);
        drainer.join();
    }
    tearDown(env);
    std::error_code ec;
    fs::remove_all(dir, ec);

    const bool correct = out.violations.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(refused));
    for (std::size_t i = 0; i < m.m.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.m[i].first.c_str(),
                    m.m[i].second.first, m.m[i].second.second.c_str());
    std::printf("}}\n");
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
