/**
 * @file
 * Sweep progress + heartbeats: a throttled live progress line on
 * stderr (items done/cached/total, rate, ETA) and a machine-readable
 * JSONL heartbeat stream for external supervisors.
 *
 * Env knobs:
 *  - SVARD_PROGRESS=0|1      force the stderr line off/on (default:
 *                            on only when stderr is a terminal, so CI
 *                            logs and redirected runs stay clean)
 *  - SVARD_PROGRESS_MS=N     min milliseconds between stderr updates
 *                            (default 500)
 *  - SVARD_HEARTBEAT=<path>  append heartbeat JSONL records to <path>
 *  - SVARD_HEARTBEAT_MS=N    min ms between heartbeats (default 1000;
 *                            the first and final beat of every phase
 *                            are always written)
 *
 * Both intervals are whole base-10 integers (envInt): N <= 0 means the
 * default, and anything else ("5s", "abc") throws
 * std::invalid_argument naming the variable.
 *
 * Heartbeat schema (one JSON object per line):
 *   {"schema": "svard-heartbeat-v1", "ts_ms": <unix ms>,
 *    "phase": "...", "unit": "cells", "done": N, "cached": N,
 *    "total": N, "per_sec": R, "eta_s": E,
 *    "escapes": N, "recalibrations": N, "final": true|false}
 *
 * The escapes/recalibrations counters surface the temporal-drift
 * robustness layer (engine/drift_eval.h) in flight; they stay 0 for
 * non-drift runs.
 */
#ifndef SVARD_OBS_PROGRESS_H
#define SVARD_OBS_PROGRESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace svard::obs {

/** Route heartbeats to `path` ("" disables); overrides SVARD_HEARTBEAT. */
void setHeartbeatPath(const std::string &path);

/**
 * Progress over a known number of work items. Workers call tick()
 * concurrently; emission (stderr line + heartbeat) is throttled and
 * serialized internally. finish() (or the destructor) writes the final
 * state unconditionally so every phase leaves at least two heartbeats.
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

    /** Guardband escapes observed so far (drift sweeps). */
    void addEscapes(uint64_t n);

    /** Policy-triggered recalibrations so far (drift sweeps). */
    void addRecalibrations(uint64_t n);

    /** Emit the final line/heartbeat; idempotent. */
    void finish();

    uint64_t done() const
    {
        return done_.load(std::memory_order_relaxed);
    }

  private:
    void maybeEmit(bool force);

    const std::string phase_;
    const std::string unit_;
    const uint64_t total_;
    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> cached_{0};
    std::atomic<uint64_t> escapes_{0};
    std::atomic<uint64_t> recals_{0};
    std::atomic<int64_t> lastLineMs_{-1000000}; ///< stderr throttle
    std::atomic<int64_t> lastBeatMs_{-1000000}; ///< heartbeat throttle
    std::atomic<bool> finished_{false};
    std::chrono::steady_clock::time_point start_;
};

} // namespace svard::obs

#endif // SVARD_OBS_PROGRESS_H
