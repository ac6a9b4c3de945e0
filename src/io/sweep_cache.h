/**
 * @file
 * Per-cell sweep cache / checkpoint. One append-only file of binary
 * SVC4 records (io/result_sink.h) maps (deterministic cell seed,
 * spec fingerprint) -> finished CellResult:
 *
 *  - Before scheduling, the engine looks every cell up; hits skip
 *    execution entirely (a fully cached sweep executes zero cells).
 *  - Workers append each finished cell immediately, so killing a
 *    sweep at any point leaves a valid checkpoint — re-running with
 *    the same cache path resumes with only the missing cells.
 *  - The fingerprint hashes the cell's *resolved* inputs (geometry,
 *    defense name, threshold value, provider, workload, parameter
 *    bag, request count), so editing a spec invalidates exactly the
 *    cells whose inputs changed.
 *
 * Loading tolerates damage anywhere in the file: a truncated or
 * corrupt tail record (what a kill mid-append leaves behind) is
 * dropped; corruption mid-file resyncs onto the next record magic,
 * keeping the intact tail and warning with the dropped byte count.
 * store() is thread-safe; lookup() is const and safe to call
 * concurrently with other lookups (the engine probes before sharding).
 *
 * Durability: store() flushes per record (a crash cannot lose a
 * checkpointed cell to stdio buffering). A nonzero SVARD_CACHE_FSYNC
 * additionally fsyncs per record, extending the guarantee to power
 * loss at the cost of store() latency.
 */
#ifndef SVARD_IO_SWEEP_CACHE_H
#define SVARD_IO_SWEEP_CACHE_H

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "engine/sweep.h"

namespace svard::io {

class SweepCache
{
  public:
    /** Open (creating if absent) and load every intact record.
     *  @throws std::runtime_error when the file cannot be opened for
     *          append or a torn tail cannot be repaired. A retired
     *          v1/v2/v3-format file still aborts: silently recomputing
     *          (or truncating) a checkpoint the user thinks is valid
     *          is worse than stopping.
     *  @throws std::invalid_argument naming SVARD_CACHE_FSYNC when it
     *          is not a base-10 integer. */
    explicit SweepCache(const std::string &path);
    ~SweepCache();

    SweepCache(const SweepCache &) = delete;
    SweepCache &operator=(const SweepCache &) = delete;

    /**
     * Fetch a finished cell by (seed, fingerprint). On a hit, copies
     * the cached result into `*out` and returns true.
     */
    bool lookup(uint64_t seed, uint64_t fingerprint,
                engine::CellResult *out) const;

    /** Append a finished cell (thread-safe; flushed per record).
     *  @throws std::runtime_error on I/O failure. */
    void store(const engine::CellResult &row);

    /** Number of distinct cached cells. */
    size_t size() const;

    const std::string &path() const { return path_; }

    static bool fileExists(const std::string &path);

    /**
     * Graceful-degradation open: on failure (unwritable directory,
     * unrepairable file) warn and return nullptr instead of
     * throwing, so callers run uncached rather than die — losing
     * checkpointing is strictly better than losing the run. A
     * malformed SVARD_CACHE_FSYNC still throws std::invalid_argument:
     * it is a typo to fix, not a disk to route around.
     */
    static std::unique_ptr<SweepCache>
    openOrNull(const std::string &path);

  private:
    std::string path_;
    /** Append handle (opened in the ctor, written under mu_). */
    std::FILE *file_ SVARD_GUARDED_BY(mu_) = nullptr;
    bool fsyncPerStore_ = false; ///< SVARD_CACHE_FSYNC nonzero
    mutable Mutex mu_;
    std::map<std::pair<uint64_t, uint64_t>, engine::CellResult>
        cells_ SVARD_GUARDED_BY(mu_);
};

} // namespace svard::io

#endif // SVARD_IO_SWEEP_CACHE_H
