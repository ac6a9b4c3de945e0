/**
 * @file
 * Shared plumbing for the figure/table reproduction benches: default
 * experiment scales (override with SVARD_FULL=1 or the individual
 * knobs), per-module characterization rigs, and manufacturer grouping.
 */
#ifndef SVARD_BENCH_BENCH_UTIL_H
#define SVARD_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <signal.h>

#include "charz/characterizer.h"
#include "common/log.h"
#include "common/table.h"
#include "fault/vuln_model.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "sim/presets.h"

namespace svard::bench {

/** Monotonic wall-clock seconds since `start`. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Device + model + characterizer for one module. */
struct ModuleRig
{
    explicit ModuleRig(const std::string &label)
        : spec(dram::moduleByLabel(label)),
          subarrays(std::make_shared<dram::SubarrayMap>(spec)),
          model(std::make_shared<fault::VulnerabilityModel>(spec,
                                                            subarrays)),
          device(spec, subarrays, model),
          charz(device)
    {}

    const dram::ModuleSpec &spec;
    std::shared_ptr<dram::SubarrayMap> subarrays;
    std::shared_ptr<fault::VulnerabilityModel> model;
    dram::DramDevice device;
    charz::Characterizer charz;
};

/** All 15 module labels in paper order. */
inline std::vector<std::string>
allLabels()
{
    std::vector<std::string> out;
    for (const auto &m : dram::allModules())
        out.push_back(m.label);
    return out;
}

/**
 * Default characterization options at bench scale: every row with
 * SVARD_FULL=1, otherwise a prime-strided subsample (a power-of-two
 * stride would alias with subarray boundaries and oversample edge
 * rows). SVARD_ROWS_PER_BANK overrides the target sample size
 * (at least 1).
 */
inline charz::CharzOptions
benchCharzOptions(const dram::ModuleSpec &spec, bool quick_wcdp = true)
{
    charz::CharzOptions opt;
    opt.quickWcdp = quick_wcdp;
    // Per-row results are bit-identical at any worker count, so the
    // figures are free to use the same thread knob as the sweeps.
    opt.threads =
        static_cast<unsigned>(envInt("SVARD_THREADS", 1));
    if (fullScale()) {
        opt.rowStep = 1;
        return opt;
    }
    const int64_t target = envInt("SVARD_ROWS_PER_BANK", 384);
    if (target < 1)
        SVARD_FATAL("SVARD_ROWS_PER_BANK must be at least 1 (got " +
                    std::to_string(target) + ")");
    uint32_t step = static_cast<uint32_t>(
        std::max<int64_t>(1, spec.rowsPerBank / target));
    // Snap to an odd (subarray-coprime) stride.
    if (step % 2 == 0)
        ++step;
    opt.rowStep = step;
    return opt;
}

/** String environment knob with a default. */
inline std::string
envStr(const char *name, const std::string &fallback)
{
    const char *raw = std::getenv(name);
    return raw && *raw ? raw : fallback;
}

/**
 * SVARD_GEOMETRY: comma-separated geometry preset names
 * (sim/presets.h — "ddr4-table4", "ddr5-4800-32bank",
 * "hbm2-pc-16ch"). Empty means the default Table 4 system. Unknown
 * names die with the known list — a typo must not silently sweep the
 * default geometry.
 */
inline std::vector<std::string>
geometryEnv()
{
    const std::string raw = envStr("SVARD_GEOMETRY", "");
    std::vector<std::string> out;
    size_t start = 0;
    while (start < raw.size()) {
        size_t at = raw.find(',', start);
        if (at == std::string::npos)
            at = raw.size();
        std::string name = raw.substr(start, at - start);
        // Accept the natural "a, b" spelling.
        while (!name.empty() && name.front() == ' ')
            name.erase(name.begin());
        while (!name.empty() && name.back() == ' ')
            name.pop_back();
        if (!name.empty()) {
            try {
                // presets::get is the one validator; its message
                // already lists the known names.
                (void)sim::presets::get(name);
            } catch (const std::invalid_argument &e) {
                SVARD_FATAL(std::string("SVARD_GEOMETRY: ") +
                            e.what());
            }
            out.push_back(std::move(name));
        }
        start = at + 1;
    }
    return out;
}

/** Single-geometry variant (fig13): the config of the
 *  named preset, or `fallback` when SVARD_GEOMETRY is unset. Dies if
 *  more than one preset is named. */
inline sim::SimConfig
geometryEnvConfig(const sim::SimConfig &fallback)
{
    const auto names = geometryEnv();
    if (names.empty())
        return fallback;
    if (names.size() > 1)
        SVARD_FATAL("SVARD_GEOMETRY: this bench runs one geometry "
                    "at a time (got \"" +
                    envStr("SVARD_GEOMETRY", "") + "\")");
    return sim::presets::get(names[0]);
}

/** The graceful-stop flag SIGINT/SIGTERM handlers set (one per
 *  process; wire it into SweepSpec::stopFlag). */
inline std::atomic<bool> &
stopRequestedFlag()
{
    static std::atomic<bool> flag{false};
    return flag;
}

/**
 * Install SIGINT/SIGTERM handlers that set stopRequestedFlag()
 * instead of killing the process: in-flight cells finish and
 * checkpoint, sinks flush, and the manifest records
 * `"interrupted": true`. Benches exit 130 on an interrupted run (the
 * shell convention for death-by-SIGINT), so scripts can distinguish
 * "stopped, resumable" from "finished". A second signal falls back
 * to the default disposition — a stuck sweep stays killable.
 */
inline void
installStopHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = [](int) {
        stopRequestedFlag().store(true);
        struct sigaction dfl = {};
        dfl.sa_handler = SIG_DFL;
        ::sigaction(SIGINT, &dfl, nullptr);
        ::sigaction(SIGTERM, &dfl, nullptr);
    };
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

/** True when `a` and `b` name the same file, however spelled
 *  ("c.ckpt" vs "./c.ckpt", symlinks, hard links). Neither needs to
 *  exist yet. */
inline bool
samePath(const std::string &a, const std::string &b)
{
    namespace fs = std::filesystem;
    std::error_code ea, eb;
    const fs::path ca = fs::weakly_canonical(a, ea);
    const fs::path cb = fs::weakly_canonical(b, eb);
    return (ea || eb ? a == b : ca == cb) || fs::equivalent(a, b, ea);
}

/**
 * Shared streaming/caching plumbing of the sweep benches
 * (fig12/fig13): a result sink and a per-cell sweep cache resolved
 * from argv.
 *
 *   --out=PATH    stream finished cells to PATH as CSV as they
 *                 complete, wrapped in an AsyncSink so workers never
 *                 block on file I/O (.jsonl/.bin/.svc are retired
 *                 and exit via fatal:).
 *   --cache=PATH  per-cell cache + checkpoint: cached cells skip
 *                 execution, finished cells append immediately, so a
 *                 killed sweep resumes from PATH.
 *   --resume      assert that a checkpoint already exists at the
 *                 cache path (guards against a typoed path silently
 *                 recomputing everything).
 *   --manifest=PATH  write a run manifest (obs/manifest.h) after the
 *                 sweep: schema, spec fingerprint, seed, threads,
 *                 build flags, wall time, cell counts, metrics
 *                 snapshot. Defaults to `<out>.manifest.json` (or
 *                 `<cache>.manifest.json` when only a cache is
 *                 named) so every persisted sweep output carries its
 *                 provenance record.
 *
 * A dead cache path degrades gracefully (warn + run uncached) —
 * except under --resume, where an unusable checkpoint must die
 * loudly rather than silently recompute the world.
 */
struct SweepIo
{
    std::shared_ptr<io::ResultSink> sink;
    std::shared_ptr<io::SweepCache> cache;
    std::string outPath;
    std::string cachePath;
    std::string manifestPath;
    bool resume = false;
};

inline SweepIo
parseSweepIo(int argc, char **argv)
{
    SweepIo out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0)
            out.outPath = arg.substr(6);
        else if (arg.rfind("--cache=", 0) == 0)
            out.cachePath = arg.substr(8);
        else if (arg.rfind("--manifest=", 0) == 0)
            out.manifestPath = arg.substr(11);
        else if (arg == "--resume")
            out.resume = true;
        else
            SVARD_FATAL("unknown argument \"" + arg +
                        "\" (expected --out=PATH, --cache=PATH, "
                        "--manifest=PATH, --resume)");
    }
    if (out.manifestPath.empty()) {
        if (!out.outPath.empty())
            out.manifestPath = out.outPath + ".manifest.json";
        else if (!out.cachePath.empty())
            out.manifestPath = out.cachePath + ".manifest.json";
    }
    if (!out.outPath.empty() && !out.cachePath.empty() &&
        samePath(out.outPath, out.cachePath))
        SVARD_FATAL("--out and --cache must name different files "
                    "(\"" + out.outPath + "\"): the sink would "
                    "truncate the checkpoint it is resuming from");
    // writeManifest writes `<manifest>.tmp`, then renames it over the
    // manifest path: either step would replace the CSV or the
    // checkpoint if it named one.
    for (const std::string *other : {&out.outPath, &out.cachePath})
        for (const std::string &mine :
             {out.manifestPath, out.manifestPath + ".tmp"})
            if (!other->empty() && samePath(mine, *other))
                SVARD_FATAL("--manifest=\"" + out.manifestPath +
                            "\" would replace \"" + *other +
                            "\" (--out or --cache) when it is written");
    if (out.resume) {
        if (out.cachePath.empty())
            SVARD_FATAL("--resume requires --cache=PATH");
        if (!io::SweepCache::fileExists(out.cachePath))
            SVARD_FATAL("--resume: no checkpoint at \"" +
                        out.cachePath + "\"");
    }
    // A retired --out extension or a malformed SVARD_CACHE_FSYNC is
    // an argument error like the ones above: exit 1, not an abort.
    // The extension is checked before the cache is opened, so a
    // rejected run leaves no fresh checkpoint file behind; the CSV
    // itself is only opened after the cache, so an unusable --resume
    // checkpoint never truncates it.
    try {
        if (!out.outPath.empty())
            io::checkSinkPath(out.outPath);
        if (!out.cachePath.empty()) {
            // Degrade, don't die: an unwritable cache loses
            // checkpointing, not the run. --resume stays strict — its
            // contract is "the checkpoint is there and loads".
            out.cache = io::SweepCache::openOrNull(out.cachePath);
            if (out.resume && !out.cache)
                SVARD_FATAL("--resume: checkpoint \"" + out.cachePath +
                            "\" exists but cannot be used");
        }
        if (!out.outPath.empty())
            out.sink = std::make_shared<io::AsyncSink>(
                io::makeSinkForPath(out.outPath));
    } catch (const std::invalid_argument &e) {
        SVARD_FATAL(e.what());
    }
    return out;
}

} // namespace svard::bench

#endif // SVARD_BENCH_BENCH_UTIL_H
