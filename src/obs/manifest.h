/**
 * @file
 * Run manifests: a small JSON file written next to every sink/cache
 * output describing what produced it — schema version, run kind,
 * geometry presets, spec fingerprint, base seed, thread count, build
 * flags, wall time, cell/baseline counts, and the final metrics
 * snapshot (the sink queue's high-water mark is its
 * io.sink_queue_high_water gauge). A result file without its manifest
 * is an orphan; with it, any later tool (or a human three months out)
 * can tell exactly which code and configuration produced the bytes.
 *
 * Schema: "svard-manifest-v1".
 */
#ifndef SVARD_OBS_MANIFEST_H
#define SVARD_OBS_MANIFEST_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace svard::obs {

constexpr const char *kManifestSchema = "svard-manifest-v1";

struct RunManifest
{
    std::string kind; ///< "sweep", "adversarial", "charz", ...
    std::vector<std::string> geometries; ///< preset names swept
    uint64_t specFingerprint = 0; ///< hash over every cell fingerprint
    uint64_t baseSeed = 0;
    uint32_t threads = 0; ///< resolved worker count (0 = hw default)
    uint64_t requestsPerCore = 0;
    std::string buildFlags; ///< comma list: ndebug, asan; or debug
    double wallSeconds = 0.0;
    uint64_t cellsTotal = 0;
    uint64_t cellsExecuted = 0;
    uint64_t cellsCached = 0;
    uint64_t baselinesExecuted = 0;
    uint64_t baselinesCached = 0;
    std::string cachePath; ///< sweep cache path ("" if none)
    /** The run was stopped early (SIGINT/SIGTERM or a stop flag);
     *  the sink holds a valid prefix, the cache all finished cells. */
    bool interrupted = false;
    /** Temporal-drift axis (DriftSpec names; empty = no drift axis)
     *  and run-wide totals over every cell, cached ones included. */
    std::vector<std::string> driftPolicies;
    uint64_t escapes = 0;         ///< stale-profile threshold escapes
    uint64_t recalibrations = 0;  ///< policy-triggered recals
};

/** Build-flag summary of this binary (for the manifest/perf records). */
std::string buildFlagsString();

/**
 * Write `m` plus the metrics snapshot to `path` as pretty-printed
 * JSON. The write is atomic (`path`.tmp + rename): a kill mid-write
 * leaves the previous manifest (or none), never a torn JSON next to
 * a valid result file. Returns false (after warning) if the file
 * cannot be written — manifests are bookkeeping and must never kill
 * a finished run.
 */
bool writeManifest(const std::string &path, const RunManifest &m,
                   const Snapshot &metrics);

} // namespace svard::obs

#endif // SVARD_OBS_MANIFEST_H
