/**
 * @file
 * Temporal-drift robustness sweep: how the five defenses behave when
 * the module's HC_first profile drifts away from its calibration-time
 * characterization (slow aging drops from the Fig. 10 stress
 * transform, plus thermal operating-point excursions around the 55 C
 * calibration temperature), under each online recalibration policy.
 *
 * The grid is {defense} x {drift model} x {recal policy}, executed by
 * the same experiment engine as fig12 — deterministic per-cell seeds,
 * byte-identical at any thread count, resumable through --cache. The
 * drift axis rides in SweepSpec::drifts; per-cell escape counts,
 * escape rates, recalibration counts, and recalibration refresh-duty
 * cost land in the sink's drift columns and the run manifest.
 *
 * Scale knobs: SVARD_MIXES (default 3), SVARD_REQS (default 6000),
 * SVARD_THREADS, SVARD_EPOCHS drifted tREFW epochs (default 32),
 * SVARD_GUARDBAND the escape margin (default 0.02, in [0, 0.9)): a
 * row escapes when its drifted HC_first falls more than this fraction
 * below its calibrated value. No defense reads it.
 * SVARD_TINY=1 shrinks to {PARA, Hydra} x {aging} x {none,
 * periodic:8} for smoke tests and the CI drift-grid check.
 *
 * Expected shape: with policy `none` the escape rate grows with drift
 * strength and every defense pays nothing in recalibration duty;
 * `periodic`/`reactive`/`margin` trade recal duty for escapes, and
 * the thermal+aging composite drifts hardest.
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "engine/runner.h"

using namespace svard;
using namespace svard::bench;

int
main(int argc, char **argv)
{
    // Parsed and range-checked before parseSweepIo opens --out, so a
    // malformed or out-of-range value exits without leaving a file
    // behind. The runner's own check stays for library callers.
    const double guardband = [] {
        const std::string raw = envStr("SVARD_GUARDBAND", "0.02");
        double v = 0.0;
        const char *end = raw.data() + raw.size();
        const auto [ptr, ec] = std::from_chars(raw.data(), end, v);
        if (ec != std::errc() || ptr != end)
            SVARD_FATAL("SVARD_GUARDBAND: expected a number, got \"" +
                        raw + "\"");
        if (!(v >= 0.0 && v < 0.9))
            SVARD_FATAL("SVARD_GUARDBAND: must be in [0, 0.9), got \"" +
                        raw + "\"");
        return v;
    }();
    const SweepIo sio = parseSweepIo(argc, argv);
    installStopHandlers();

    engine::SweepSpec spec;
    spec.requestsPerCore =
        static_cast<size_t>(envInt("SVARD_REQS", 6000));
    spec.threads =
        static_cast<unsigned>(envInt("SVARD_THREADS", 0));

    const bool tiny = envInt("SVARD_TINY", 0) != 0;
    const uint32_t epochs =
        static_cast<uint32_t>(envInt("SVARD_EPOCHS", 32));

    std::vector<std::string> models;
    std::vector<std::string> policies;
    if (tiny) {
        spec.defenses = {"para", "hydra"};
        spec.thresholds = {1024};
        spec.providers = {engine::ProviderSpec::svard("S0")};
        models = {"aging:16"};
        policies = {"none", "periodic:8"};
    } else {
        spec.defenses = {"aqua", "blockhammer", "hydra", "para",
                         "rrs"};
        spec.thresholds = {1024};
        spec.providers = {engine::ProviderSpec::uniform(),
                          engine::ProviderSpec::svard("S0")};
        models = {"aging:64", "aging:64+thermal:10:32"};
        policies = {"none", "periodic:8", "reactive:4", "margin:0.1"};
    }
    for (const auto &m : models)
        for (const auto &p : policies) {
            engine::DriftSpec d;
            d.model = m;
            d.policy = p;
            d.epochs = epochs;
            d.guardband = guardband;
            spec.drifts.push_back(std::move(d));
        }

    const uint32_t n_mixes = static_cast<uint32_t>(
        fullScale() ? 15 : envInt("SVARD_MIXES", tiny ? 2 : 3));
    const auto mixes = sim::workloadMixes(120, spec.config.cores);
    const size_t take = std::min<size_t>(n_mixes, mixes.size());
    spec.mixes.assign(mixes.begin(), mixes.begin() + take);
    spec.geometryNames = geometryEnv();

    spec.sink = sio.sink;
    spec.cache = sio.cache;
    spec.manifestPath = sio.manifestPath;
    spec.progressLabel = "drift-sweep";
    spec.stopFlag = &stopRequestedFlag();

    const auto sweep_start = std::chrono::steady_clock::now();
    engine::ExperimentRunner runner(std::move(spec));
    runner.run();
    if (runner.interrupted()) {
        std::fprintf(stderr,
                     "fig_drift: interrupted (%zu cells executed, %zu "
                     "cached); re-run with the same --cache to "
                     "resume\n",
                     runner.executedCells(), runner.cachedCells());
        return 130;
    }

    Table t("Temporal drift: defense performance, guardband escapes, "
            "and recalibration cost (mean over " +
                std::to_string(take) + " mixes)",
            {"Geometry", "Defense", "Config", "Drift",
             "WeightedSpeedup", "MaxSlowdown", "EscapeRate",
             "Escapes", "Recals", "RecalCost"});

    const auto &geoms = runner.geometries();
    for (const auto &row : runner.summarize())
        t.addRow({geoms[row.geom].geometry, row.defense,
                  row.provider, row.drift,
                  Table::fmt(row.meanNormalized.weightedSpeedup, 4),
                  Table::fmt(row.meanNormalized.maxSlowdown, 4),
                  Table::fmt(row.driftMetrics.escapeRate, 5),
                  std::to_string(row.driftMetrics.escapes),
                  std::to_string(row.driftMetrics.recalibrations),
                  Table::fmt(row.driftMetrics.recalCost, 5)});
    t.print();

    // Machine-checkable cache effectiveness line (the CI cold/hot
    // check greps for "executed 0 cells" on the second run).
    std::fprintf(stderr,
                 "fig_drift: executed %zu cells, %zu from cache\n",
                 runner.executedCells(), runner.cachedCells());
    std::fprintf(stderr, "fig_drift: wall %.3f s\n",
                 secondsSince(sweep_start));
    return 0;
}
