/**
 * @file
 * Performance face-off on the cycle-level simulator: one workload mix,
 * every defense, at a chosen worst-case HC_first, with and without
 * Svärd (module S0's profile). Prints the three paper metrics
 * normalized to the no-defense baseline — a single-mix slice of
 * Fig. 12.
 *
 * Usage: defense_faceoff [hc_first=128] [requests_per_core=6000]
 */
#include <cstdio>
#include <cstdlib>

#include "engine/runner.h"

using namespace svard;

int
main(int argc, char **argv)
{
    const double threshold = argc > 1 ? std::atof(argv[1]) : 128.0;
    const size_t requests = argc > 2 ? std::atol(argv[2]) : 6000;

    // Every defense the registry knows, after the "none" baseline
    // (extensions registered at startup show up here automatically).
    engine::SweepSpec spec;
    spec.defenses = {"none"};
    for (const auto &name : defense::DefenseRegistry::instance().names())
        if (name != "none")
            spec.defenses.push_back(name);
    spec.thresholds = {threshold};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S0")};
    spec.mixes = {{"faceoff", {16, 17, 16, 17, 0, 2, 8, 11}}};
    spec.requestsPerCore = requests;
    engine::ExperimentRunner runner(std::move(spec));
    const std::vector<engine::CellResult> &cells = runner.run();

    const sim::MixMetrics &base = cells.front().metrics;
    std::printf("No defense: WS %.3f HS %.3f maxSd %.3f "
                "(HC_first sweep point: %.0f)\n\n",
                base.weightedSpeedup, base.harmonicSpeedup,
                base.maxSlowdown, threshold);
    std::printf("%-12s %-9s %10s %10s %10s\n", "defense", "config",
                "normWS", "normHS", "normMaxSd");
    for (const engine::CellResult &r : cells) {
        if (r.defense == "none")
            continue;
        std::printf("%-12s %-9s %10.4f %10.4f %10.4f\n",
                    r.defense.c_str(),
                    r.cell.provider == 0 ? "uniform" : "Svärd-S0",
                    r.normalized.weightedSpeedup,
                    r.normalized.harmonicSpeedup,
                    r.normalized.maxSlowdown);
    }
    return 0;
}
