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
 *  - The fingerprint hashes the cell's *resolved* inputs (geometry
 *    and timing, request count, defense name, threshold value,
 *    provider, workload mix, drift entry), so editing a spec
 *    invalidates exactly the cells whose inputs changed.
 *
 * The file holds whole records; memory holds only what a hit
 * restores. The in-memory index is an open-addressing hash table from
 * (seed, fingerprint) to the cell's outcome (`metrics`, `normalized`
 * and `drift`, 80 bytes), sized from the file length on open. A
 * hit's identity fields (coordinates and labels) are the ones
 * the caller already resolved to compute the key, so lookup() fills
 * only the outcome fields and leaves the rest of `*out` untouched.
 *
 * Loading decodes each record once, in place, and tolerates damage
 * anywhere in the file: a truncated or corrupt tail record (what a
 * kill mid-append leaves behind) is dropped; corruption mid-file
 * resyncs onto the next record magic, keeping the intact tail and
 * warning with the dropped byte count; the file is then rewritten
 * with only its intact records (tmp file + rename), so a later open
 * finds nothing to skip. With duplicate keys, the last record in the
 * file wins. store() is thread-safe; lookup() is const and safe to
 * call concurrently with other lookups (the engine probes before
 * sharding).
 *
 * Durability: store() flushes per record (a crash cannot lose a
 * checkpointed cell to stdio buffering). A nonzero SVARD_CACHE_FSYNC
 * additionally fsyncs per record, extending the guarantee to power
 * loss at the cost of store() latency.
 */
#ifndef SVARD_IO_SWEEP_CACHE_H
#define SVARD_IO_SWEEP_CACHE_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

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
     * the cached `metrics`, `normalized` and `drift` into `*out` and
     * returns true; every other field of `*out` is left as it was. A
     * miss leaves `*out` untouched and counts `cache.misses`, plus
     * `cache.invalidated` when the seed is cached under another
     * fingerprint (the spec's resolved inputs changed).
     */
    bool lookup(uint64_t seed, uint64_t fingerprint,
                engine::CellResult *out) const;

    /** Append a finished cell (thread-safe; flushed per record) and
     *  index its outcome. A key already cached is neither rewritten
     *  nor re-appended.
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
    /** What a hit restores of a cell. */
    struct Outcome
    {
        sim::MixMetrics metrics;
        sim::MixMetrics normalized;
        engine::DriftMetrics drift;
    };

    /** Open-addressing table (power-of-two slots, linear probing,
     *  load at most 3/4) from (seed, fingerprint) to an Outcome. */
    class Index
    {
      public:
        /** Room for `records` keys without growing. */
        explicit Index(size_t records = 0);

        /** Insert, or overwrite the outcome of a cached key. */
        void put(const engine::CellResult &row);

        /** The outcome of (seed, fingerprint), or nullptr. On a miss,
         *  `*seed_cached` (if given) says whether the seed is cached
         *  under another fingerprint. */
        const Outcome *find(uint64_t seed, uint64_t fingerprint,
                            bool *seed_cached = nullptr) const;

        size_t size() const { return size_; }

      private:
        struct Slot
        {
            uint64_t seed = 0;
            uint64_t fingerprint = 0;
            Outcome outcome;
            bool used = false;
        };

        /** Slot holding (seed, fingerprint), or the free slot ending
         *  its probe run. Slots are homed by seed alone, so the run
         *  passes every record of the seed. */
        size_t probe(uint64_t seed, uint64_t fingerprint,
                     bool *seed_cached) const;
        void reserve(size_t records);

        std::vector<Slot> slots_;
        size_t size_ = 0;
    };

    /** Replace the file with its intact records, in file order;
     *  false (with a warning) if that failed and the file is as it
     *  was. */
    bool rewriteIntact() const;

    std::string path_;
    /** Append handle (opened in the ctor, written under mu_). */
    std::FILE *file_ SVARD_GUARDED_BY(mu_) = nullptr;
    bool fsyncPerStore_ = false; ///< SVARD_CACHE_FSYNC nonzero
    mutable Mutex mu_;
    Index index_ SVARD_GUARDED_BY(mu_);
};

} // namespace svard::io

#endif // SVARD_IO_SWEEP_CACHE_H
