#include "obs/progress.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/mutex.h"
#include "common/table.h"

#ifdef _WIN32
#include <io.h>
#define SVARD_ISATTY(fd) _isatty(fd)
#else
#include <unistd.h>
#define SVARD_ISATTY(fd) isatty(fd)
#endif

#include "obs/json.h"

namespace svard::obs {
namespace {

/** Whether the stderr progress line is wanted, and how to render it. */
struct LineMode
{
    bool enabled;
    bool sticky; ///< use \r carriage-return updates (tty only)
};

LineMode
lineMode()
{
    static const LineMode mode = [] {
        const bool tty = SVARD_ISATTY(2) != 0;
        const char *v = std::getenv("SVARD_PROGRESS");
        if (v && *v)
            return LineMode{v[0] != '0', tty};
        return LineMode{tty, tty};
    }();
    return mode;
}

int64_t
progressIntervalMs()
{
    static const int64_t ms = envInt("SVARD_PROGRESS_MS", 500);
    return ms > 0 ? ms : 500;
}

int64_t
heartbeatIntervalMs()
{
    static const int64_t ms = envInt("SVARD_HEARTBEAT_MS", 1000);
    return ms > 0 ? ms : 1000;
}

/** Append-mode heartbeat file shared by every meter in the process. */
struct HeartbeatSink
{
    Mutex mu;
    std::string path SVARD_GUARDED_BY(mu);
    FILE *file SVARD_GUARDED_BY(mu) = nullptr;
    bool envRead SVARD_GUARDED_BY(mu) = false;
};

HeartbeatSink &
heartbeatSink()
{
    static HeartbeatSink *s = new HeartbeatSink;
    return *s;
}

/** Resolve the path from env exactly once (programmatic set wins). */
void
ensureEnvPath(HeartbeatSink &s) SVARD_REQUIRES(s.mu)
{
    if (s.envRead)
        return;
    s.envRead = true;
    const char *p = std::getenv("SVARD_HEARTBEAT");
    if (p && *p)
        s.path = p;
}

void
emitHeartbeat(const std::string &phase, const std::string &unit,
              uint64_t done, uint64_t cached, uint64_t total,
              double perSec, double etaS, uint64_t escapes,
              uint64_t recals, bool final)
{
    HeartbeatSink &s = heartbeatSink();
    MutexLock lock(s.mu);
    ensureEnvPath(s);
    if (s.path.empty())
        return;
    if (!s.file) {
        s.file = std::fopen(s.path.c_str(), "ab");
        if (!s.file) {
            std::fprintf(stderr,
                         "warn: heartbeat: cannot open '%s'\n",
                         s.path.c_str());
            s.path.clear(); // warn once by disabling, not spamming
            return;
        }
    }
    const int64_t tsMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::fprintf(s.file,
                 "{\"schema\": \"svard-heartbeat-v1\", \"ts_ms\": %lld, "
                 "\"phase\": \"%s\", \"unit\": \"%s\", \"done\": %llu, "
                 "\"cached\": %llu, \"total\": %llu, \"per_sec\": %s, "
                 "\"eta_s\": %s, \"escapes\": %llu, "
                 "\"recalibrations\": %llu, \"final\": %s}\n",
                 static_cast<long long>(tsMs),
                 json::escape(phase).c_str(), json::escape(unit).c_str(),
                 static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(cached),
                 static_cast<unsigned long long>(total),
                 json::formatNumber(perSec).c_str(),
                 json::formatNumber(etaS).c_str(),
                 static_cast<unsigned long long>(escapes),
                 static_cast<unsigned long long>(recals),
                 final ? "true" : "false");
    std::fflush(s.file);
}

/** Throttle helper: one caller wins the right to emit per interval. */
bool
claimEmit(std::atomic<int64_t> &last, int64_t nowMs, int64_t intervalMs,
          bool force)
{
    int64_t prev = last.load(std::memory_order_relaxed);
    for (;;) {
        if (!force && nowMs - prev < intervalMs)
            return false;
        if (last.compare_exchange_weak(prev, nowMs,
                                       std::memory_order_relaxed))
            return true;
        // prev reloaded; loop to re-check the interval.
    }
}

} // namespace

void
setHeartbeatPath(const std::string &path)
{
    HeartbeatSink &s = heartbeatSink();
    MutexLock lock(s.mu);
    s.envRead = true; // programmatic choice wins over the env var
    if (s.file) {
        std::fclose(s.file);
        s.file = nullptr;
    }
    s.path = path;
}

std::string
heartbeatPath()
{
    HeartbeatSink &s = heartbeatSink();
    MutexLock lock(s.mu);
    ensureEnvPath(s);
    return s.path;
}

ProgressMeter::ProgressMeter(std::string phase, uint64_t total,
                             std::string unit)
    : phase_(std::move(phase)), unit_(std::move(unit)), total_(total),
      start_(std::chrono::steady_clock::now())
{
    maybeEmit(true); // first beat: phase started
}

ProgressMeter::~ProgressMeter()
{
    finish();
}

void
ProgressMeter::addCached(uint64_t n)
{
    cached_.fetch_add(n, std::memory_order_relaxed);
    maybeEmit(false);
}

void
ProgressMeter::tick(uint64_t n)
{
    done_.fetch_add(n, std::memory_order_relaxed);
    maybeEmit(false);
}

void
ProgressMeter::addEscapes(uint64_t n)
{
    if (n)
        escapes_.fetch_add(n, std::memory_order_relaxed);
}

void
ProgressMeter::addRecalibrations(uint64_t n)
{
    if (n)
        recals_.fetch_add(n, std::memory_order_relaxed);
}

void
ProgressMeter::finish()
{
    bool expected = false;
    if (!finished_.compare_exchange_strong(expected, true))
        return;
    maybeEmit(true);
    if (lineMode().enabled && lineMode().sticky)
        std::fprintf(stderr, "\n"); // release the sticky line
}

void
ProgressMeter::maybeEmit(bool force)
{
    const int64_t nowMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const uint64_t done = done_.load(std::memory_order_relaxed);
    const uint64_t cached = cached_.load(std::memory_order_relaxed);
    const uint64_t seen = done + cached;
    const double elapsedS = double(nowMs) / 1000.0;
    const double perSec = elapsedS > 0.0 ? double(done) / elapsedS : 0.0;
    const uint64_t remaining = total_ > seen ? total_ - seen : 0;
    const double etaS = perSec > 0.0 ? double(remaining) / perSec : 0.0;

    const LineMode mode = lineMode();
    if (mode.enabled &&
        claimEmit(lastLineMs_, nowMs, progressIntervalMs(), force)) {
        std::fprintf(stderr,
                     "%s%s: %llu/%llu %s (%llu cached), %.1f %s/s, "
                     "eta %.0fs%s",
                     mode.sticky ? "\r" : "", phase_.c_str(),
                     static_cast<unsigned long long>(seen),
                     static_cast<unsigned long long>(total_),
                     unit_.c_str(),
                     static_cast<unsigned long long>(cached), perSec,
                     unit_.c_str(), etaS,
                     mode.sticky ? "    " : "\n");
        std::fflush(stderr);
    }
    if (claimEmit(lastBeatMs_, nowMs, heartbeatIntervalMs(), force))
        emitHeartbeat(phase_, unit_, done, cached, total_, perSec, etaS,
                      escapes_.load(std::memory_order_relaxed),
                      recals_.load(std::memory_order_relaxed),
                      force && finished_.load(std::memory_order_relaxed));
}

} // namespace svard::obs
