#include "obs/progress.h"

#include <cstdio>
#include <cstdlib>

#include "common/table.h"

#ifdef _WIN32
#include <io.h>
#define SVARD_ISATTY(fd) _isatty(fd)
#else
#include <unistd.h>
#define SVARD_ISATTY(fd) isatty(fd)
#endif

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
        const bool on =
            v && *v ? envInt("SVARD_PROGRESS", 0) != 0 : tty;
        return LineMode{on, tty};
    }();
    return mode;
}

/** Minimum milliseconds between stderr line updates. */
constexpr int64_t kLineIntervalMs = 500;

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

ProgressMeter::ProgressMeter(std::string phase, uint64_t total,
                             std::string unit)
    : phase_(std::move(phase)), unit_(std::move(unit)), total_(total),
      start_(std::chrono::steady_clock::now())
{
    maybeEmit(true); // first line: phase started
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
        claimEmit(lastLineMs_, nowMs, kLineIntervalMs, force)) {
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
}

} // namespace svard::obs
