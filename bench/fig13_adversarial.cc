/**
 * @file
 * Reproduces paper Fig. 13: the slowdown benign cores suffer while an
 * adversarial access pattern targets Hydra (row-count-cache thrashing)
 * or RRS (continuous swap triggering), for No-Svärd and the three
 * Svärd profiles, at a worst-case HC_first of 64. Bars are normalized
 * to the No-Svärd slowdown: Svärd configurations land below 1.0, S0's
 * profile lowest; Hydra's reduction is small (its adversarial cost is
 * counter traffic, which Svärd does not reduce), RRS's is large.
 *
 * The {attack case x provider x target row} grid runs through the
 * experiment engine's adversarial sweep (SVARD_THREADS workers,
 * deterministic per-cell seeds). `--out`/`--cache`/`--resume` stream
 * the defended cells to a sink and checkpoint both reference and
 * defended runs, so an interrupted sweep resumes with only its missing
 * cells.
 */
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

    engine::AdversarialSpec adv;
    adv.stopFlag = &stopRequestedFlag();
    // SVARD_GEOMETRY runs the adversarial grid on a named preset
    // (one at a time; the default is the paper's Table 4 system).
    adv.config = geometryEnvConfig(adv.config);
    adv.threshold = 64.0;
    adv.requestsPerCore =
        static_cast<size_t>(envInt("SVARD_REQS", 6000));
    adv.threads = static_cast<unsigned>(envInt("SVARD_THREADS", 0));
    adv.sink = sio.sink;
    adv.cache = sio.cache;
    adv.manifestPath = sio.manifestPath;
    adv.progressLabel = "fig13-adversarial";
    const size_t requests = adv.requestsPerCore;

    // Traces are generated for the geometry under attack: the row
    // stride that keeps bank bits fixed depends on the MOP layout,
    // so a Table-4 trace would stop being adversarial on a preset.
    adv.cases.push_back(
        {"Hydra-thrash", "hydra",
         {sim::adversarialHydraTrace(requests, 3, adv.config)}});
    // The RRS attacker hammers a fixed row pair; its vulnerability bin
    // decides Svärd's headroom, so average over several target rows
    // (the expected-case attacker does not know the profile).
    adv.cases.push_back(
        {"RRS-swap", "rrs",
         {sim::adversarialRrsTrace(requests, 3, 1537, adv.config),
          sim::adversarialRrsTrace(requests, 3, 5011, adv.config),
          sim::adversarialRrsTrace(requests, 3, 9973, adv.config),
          sim::adversarialRrsTrace(requests, 3, 20011,
                                   adv.config)}});
    adv.providers = {engine::ProviderSpec::uniform(),
                     engine::ProviderSpec::svard("S0"),
                     engine::ProviderSpec::svard("M0"),
                     engine::ProviderSpec::svard("H1")};

    engine::SweepIoStats io_stats;
    const auto sweep_start = std::chrono::steady_clock::now();
    const auto results = engine::runAdversarialSweep(adv, &io_stats);
    if (stopRequestedFlag().load()) {
        std::fprintf(stderr,
                     "fig13: interrupted (%zu cells executed, %zu "
                     "cached); re-run with the same --cache to "
                     "resume\n",
                     io_stats.executed, io_stats.cached);
        return 130;
    }

    Table t("Fig. 13: slowdown under adversarial access patterns "
            "(normalized to No-Svärd; HCfirst = 64)",
            {"Case", "Defense", "Config", "BenignWS", "Slowdown",
             "NormToNoSvard"});

    // The engine normalizes each case to its first provider — the
    // No-Svärd baseline leading adv.providers above.
    for (const auto &r : results)
        t.addRow({r.caseName, r.defense, r.provider,
                  Table::fmt(r.benignWs, 3),
                  Table::fmt(r.slowdown, 3),
                  Table::fmt(r.normalizedSlowdown, 3)});
    t.print();

    std::fprintf(stderr, "fig13: executed %zu cells, %zu from cache\n",
                 io_stats.executed, io_stats.cached);
    std::fprintf(stderr, "fig13: wall %.3f s\n",
                 secondsSince(sweep_start));
    return 0;
}
