/**
 * @file
 * Sweep progress: a throttled live progress line on stderr (items
 * done/cached/total, rate, ETA), updated at most every 500 ms.
 *
 * Env knob:
 *  - SVARD_PROGRESS=N  nonzero forces the stderr line on, 0 forces it
 *                      off (default: on only when stderr is a
 *                      terminal, so CI logs and redirected runs stay
 *                      clean). A whole base-10 integer (envInt):
 *                      anything else ("yes", "off") throws
 *                      std::invalid_argument naming the variable.
 */
#ifndef SVARD_OBS_PROGRESS_H
#define SVARD_OBS_PROGRESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace svard::obs {

/**
 * Progress over a known number of work items. Workers call tick()
 * concurrently; the stderr line is throttled and serialized
 * internally. finish() (or the destructor) writes the final state
 * unconditionally.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::string phase, uint64_t total,
                  std::string unit = "cells");
    ~ProgressMeter();

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /** Items satisfied from cache (counted within `total`). */
    void addCached(uint64_t n);

    /** One (or more) items completed by execution. */
    void tick(uint64_t n = 1);

    /** Emit the final line; idempotent. */
    void finish();

  private:
    void maybeEmit(bool force);

    const std::string phase_;
    const std::string unit_;
    const uint64_t total_;
    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> cached_{0};
    std::atomic<int64_t> lastLineMs_{-1000000}; ///< stderr throttle
    std::atomic<bool> finished_{false};
    std::chrono::steady_clock::time_point start_;
};

} // namespace svard::obs

#endif // SVARD_OBS_PROGRESS_H
