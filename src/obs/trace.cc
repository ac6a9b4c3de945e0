#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/log.h"
#include "common/mutex.h"
#include "obs/json.h"

namespace svard::obs {
namespace {

using Clock = std::chrono::steady_clock;

struct Event
{
    const char *category;
    const char *name;
    uint64_t tsNs;  ///< start, ns since trace epoch
    uint64_t durNs;
    uint32_t tid;
    std::string args; ///< pre-rendered `"k": v` pairs, comma-joined
};

struct Recorder
{
    std::atomic<bool> enabled{false};
    Mutex mu;
    std::string path SVARD_GUARDED_BY(mu);
    /** Reset only between traces (startTrace); read lock-free by
     *  sinceEpochNs on span-close paths. Callers must not start or
     *  stop traces while spans are open on other threads. */
    Clock::time_point epoch;
    std::vector<Event> events SVARD_GUARDED_BY(mu);
    std::atomic<uint32_t> nextLane{1};
    uint32_t lanesSeen SVARD_GUARDED_BY(mu) = 0;
};

Recorder &
recorder()
{
    static Recorder *r = new Recorder; // leaked: outlive static dtors
    return *r;
}

thread_local uint32_t tlsLane = 0;

uint32_t
myLane()
{
    if (tlsLane == 0)
        tlsLane =
            recorder().nextLane.fetch_add(1, std::memory_order_relaxed);
    return tlsLane;
}

void
writeTraceFile(Recorder &r) SVARD_REQUIRES(r.mu)
{
    FILE *f = std::fopen(r.path.c_str(), "wb");
    if (!f) {
        warn("trace: cannot open '" + r.path + "' for writing");
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    bool first = true;
    for (uint32_t lane = 1; lane <= r.lanesSeen; ++lane) {
        std::fprintf(f,
                     "%s\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": "
                     "\"thread-%u\"}}",
                     first ? "" : ",", lane, lane);
        first = false;
    }
    for (const Event &e : r.events) {
        std::fprintf(
            f,
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
            "\"args\": {%s}}",
            first ? "" : ",", json::escape(e.name).c_str(),
            json::escape(e.category).c_str(), double(e.tsNs) / 1000.0,
            double(e.durNs) / 1000.0, e.tid, e.args.c_str());
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    inform("trace: wrote " + std::to_string(r.events.size()) +
           " events to " + r.path);
}

/** Honor SVARD_TRACE=<path> on first use; flushed via atexit. */
void
initFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *path = std::getenv("SVARD_TRACE");
        if (path && *path) {
            startTrace(path);
            std::atexit(stopTrace);
        }
    });
}

void
record(const char *category, const char *name, uint64_t tsNs,
       uint64_t durNs, std::string args)
{
    Recorder &r = recorder();
    const uint32_t lane = myLane();
    MutexLock lock(r.mu);
    if (!r.enabled.load(std::memory_order_relaxed))
        return; // stopped while the span was open: drop it
    r.lanesSeen = std::max(r.lanesSeen, lane);
    r.events.push_back(
        {category, name, tsNs, durNs, lane, std::move(args)});
}

uint64_t
sinceEpochNs(Clock::time_point tp)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp - recorder().epoch)
            .count());
}

} // namespace

bool
traceEnabled()
{
    initFromEnv();
    return recorder().enabled.load(std::memory_order_relaxed);
}

void
startTrace(const std::string &path)
{
    stopTrace(); // flush any active trace first
    Recorder &r = recorder();
    MutexLock lock(r.mu);
    r.path = path;
    r.epoch = Clock::now();
    r.events.clear();
    r.lanesSeen = 0;
    r.enabled.store(true, std::memory_order_relaxed);
}

void
stopTrace()
{
    Recorder &r = recorder();
    MutexLock lock(r.mu);
    if (!r.enabled.load(std::memory_order_relaxed))
        return;
    r.enabled.store(false, std::memory_order_relaxed);
    writeTraceFile(r);
    r.events.clear();
    r.events.shrink_to_fit();
}

std::string
tracePath()
{
    Recorder &r = recorder();
    MutexLock lock(r.mu);
    return r.enabled.load(std::memory_order_relaxed) ? r.path
                                                     : std::string();
}

struct Span::Rec
{
    const char *category;
    const char *name;
    Clock::time_point start;
    std::string args;
};

Span::Span(const char *category, const char *name)
{
    if (!traceEnabled())
        return;
    rec_ = new Rec{category, name, Clock::now(), {}};
}

Span::~Span()
{
    if (!rec_)
        return;
    const uint64_t tsNs = sinceEpochNs(rec_->start);
    const uint64_t durNs = sinceEpochNs(Clock::now()) - tsNs;
    record(rec_->category, rec_->name, tsNs, durNs,
           std::move(rec_->args));
    delete rec_;
}

void
Span::arg(const char *key, const std::string &v)
{
    if (!rec_)
        return;
    if (!rec_->args.empty())
        rec_->args += ", ";
    rec_->args += "\"" + json::escape(key) + "\": \"" + json::escape(v) +
                  "\"";
}

void
Span::arg(const char *key, uint64_t v)
{
    if (!rec_)
        return;
    if (!rec_->args.empty())
        rec_->args += ", ";
    rec_->args += "\"" + json::escape(key) + "\": " + std::to_string(v);
}

void
Span::arg(const char *key, double v)
{
    if (!rec_)
        return;
    if (!rec_->args.empty())
        rec_->args += ", ";
    rec_->args +=
        "\"" + json::escape(key) + "\": " + json::formatNumber(v);
}

} // namespace svard::obs
