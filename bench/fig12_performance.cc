/**
 * @file
 * Reproduces paper Fig. 12: weighted speedup, harmonic speedup, and
 * maximum slowdown (all normalized to the no-defense baseline) for
 * AQUA, BlockHammer, Hydra, PARA, and RRS, with and without Svärd
 * (read-disturbance profiles of modules H1, M0, S0), sweeping the
 * chip's worst-case HC_first from 4K down to 64.
 *
 * The whole grid is one declarative SweepSpec executed by the
 * experiment engine, which shards the {defense x threshold x provider
 * x mix} cells across a thread pool with deterministic per-cell seeds
 * — the same results at any thread count.
 *
 * Streaming & resume: `--out=PATH` streams cells to a CSV sink as
 * workers finish; `--cache=PATH` checkpoints every finished cell, so
 * a killed sweep resumed with the same cache re-executes only missing
 * cells and a repeat run executes none. `--resume` asserts the
 * checkpoint exists.
 *
 * Scale knobs: SVARD_MIXES (default 5; paper scale 120 via
 * SVARD_FULL=1), SVARD_REQS requests per core (default 6000),
 * SVARD_THREADS worker threads (default: hardware concurrency),
 * SVARD_TINY=1 shrinks the grid to {PARA, Hydra} x {1K, 128} x
 * {NoSvard, Svard-S0} for smoke tests and the CI cache check,
 * SVARD_GEOMETRY a comma-separated list of geometry presets
 * (sim/presets.h) swept as the grid's geometry axis — each preset's
 * name lands in the sink's geometry column and cache fingerprints.
 * Expected shape: overheads grow as HC_first shrinks; ordering
 * Hydra < AQUA < PARA < RRS < BlockHammer; every Svärd configuration
 * is at or above No-Svärd, with S0's profile best.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "engine/runner.h"

using namespace svard;
using namespace svard::bench;

int
main(int argc, char **argv)
{
    const SweepIo sio = parseSweepIo(argc, argv);
    installStopHandlers();

    engine::SweepSpec spec;
    spec.requestsPerCore =
        static_cast<size_t>(envInt("SVARD_REQS", 6000));
    spec.threads =
        static_cast<unsigned>(envInt("SVARD_THREADS", 0));

    const bool tiny = envInt("SVARD_TINY", 0) != 0;
    if (tiny) {
        spec.defenses = {"para", "hydra"};
        spec.thresholds = {1024, 128};
        spec.providers = {engine::ProviderSpec::uniform(),
                          engine::ProviderSpec::svard("S0")};
    } else {
        spec.defenses = {"aqua", "blockhammer", "hydra", "para",
                         "rrs"};
        spec.thresholds = {4096, 2048, 1024, 512, 256, 128, 64};
        spec.providers = {engine::ProviderSpec::uniform(),
                          engine::ProviderSpec::svard("H1"),
                          engine::ProviderSpec::svard("M0"),
                          engine::ProviderSpec::svard("S0")};
    }
    const uint32_t n_mixes = static_cast<uint32_t>(
        fullScale() ? 120 : envInt("SVARD_MIXES", tiny ? 2 : 5));
    const auto mixes = sim::workloadMixes(120, spec.config.cores);
    const size_t take = std::min<size_t>(n_mixes, mixes.size());
    spec.mixes.assign(mixes.begin(), mixes.begin() + take);
    spec.geometryNames = geometryEnv();

    spec.sink = sio.sink;
    spec.cache = sio.cache;
    spec.manifestPath = sio.manifestPath;
    spec.progressLabel = "fig12-sweep";
    spec.stopFlag = &stopRequestedFlag();

    const auto sweep_start = std::chrono::steady_clock::now();
    engine::ExperimentRunner runner(std::move(spec));
    runner.run();
    if (runner.interrupted()) {
        std::fprintf(stderr,
                     "fig12: interrupted (%zu cells executed, %zu "
                     "cached); re-run with the same --cache to "
                     "resume\n",
                     runner.executedCells(), runner.cachedCells());
        return 130;
    }

    Table t("Fig. 12: defense performance with and without Svärd "
            "(normalized to no-defense baseline, mean over " +
                std::to_string(take) + " mixes)",
            {"Geometry", "Defense", "HCfirst", "Config",
             "WeightedSpeedup", "HarmonicSpeedup", "MaxSlowdown"});

    const auto &geoms = runner.geometries();
    for (const auto &row : runner.summarize())
        t.addRow({geoms[row.geom].geometry, row.defense,
                  Table::fmtHc(int64_t(row.threshold)),
                  row.provider,
                  Table::fmt(row.meanNormalized.weightedSpeedup, 4),
                  Table::fmt(row.meanNormalized.harmonicSpeedup, 4),
                  Table::fmt(row.meanNormalized.maxSlowdown, 4)});
    t.print();

    // Machine-checkable cache effectiveness line (the CI cold/hot
    // check greps for "executed 0 cells" on the second run).
    std::fprintf(stderr, "fig12: executed %zu cells, %zu from cache\n",
                 runner.executedCells(), runner.cachedCells());
    std::fprintf(stderr, "fig12: wall %.3f s\n",
                 secondsSince(sweep_start));
    return 0;
}
