/**
 * @file
 * Ablation (beyond the paper, called out in DESIGN.md): how much of
 * Svärd's benefit survives as the per-row metadata shrinks from 14
 * vulnerability bins (4 bits/row) down to 2 (1 bit/row)? Bins are
 * merged from the weak end, which is the conservative direction, so
 * coarser profiles approach the NoSvärd baseline from above. Run at
 * the harshest sweep point (HC_first = 64) with PARA and RRS, the two
 * defenses whose trigger rates scale directly with the threshold.
 */
#include <memory>

#include "bench_util.h"
#include "common/stats.h"
#include "sim/system.h"

using namespace svard;
using namespace svard::bench;
using namespace svard::sim;

int
main()
{
    SimConfig cfg;
    const size_t requests =
        static_cast<size_t>(envInt("SVARD_REQS", 6000));
    const uint32_t n_mixes =
        static_cast<uint32_t>(envInt("SVARD_MIXES", 3));
    const double threshold = 64.0;
    const uint64_t seed = 11;
    const auto mixes = workloadMixes(120, cfg.cores);

    // Profile bins are this ablation's own axis, which the engine's
    // providers do not sweep: drive System directly, seeded as the
    // engine seeds a mix, with each alone IPC simulated once.
    std::vector<double> alone(benchmarkSuite().size(), 0.0);
    auto run_mix = [&](const WorkloadMix &mix, const std::string &defense,
                       std::shared_ptr<const core::ThresholdProvider>
                           provider) {
        System sys(cfg, mixTraces(mix, requests, seed), requests, defense,
                   std::move(provider), seed);
        return computeMixMetrics(sys.run(), mix, [&](uint32_t b) {
                   if (alone[b] == 0.0)
                       alone[b] = aloneIpc(cfg, b, requests, seed);
                   return alone[b];
               }).weightedSpeedup;
    };

    const auto &spec = dram::moduleByLabel("S0");
    auto sa = std::make_shared<dram::SubarrayMap>(spec);
    fault::VulnerabilityModel model(spec, sa);

    Table t("Ablation: Svärd benefit vs profile granularity "
            "(S0 profile, HCfirst=64, norm. weighted speedup)",
            {"Defense", "Bins", "BitsPerRow", "NormWS"});

    for (const char *defense : {"PARA", "RRS"}) {
        std::vector<double> base;
        for (uint32_t m = 0; m < n_mixes; ++m)
            base.push_back(run_mix(mixes[m], "none", nullptr));

        auto eval = [&](const char *name,
                        std::shared_ptr<const core::ThresholdProvider>
                            provider,
                        int bits) {
            std::vector<double> ws;
            for (uint32_t m = 0; m < n_mixes; ++m)
                ws.push_back(run_mix(mixes[m], defense, provider) /
                             base[m]);
            t.addRow({defense, name,
                      bits >= 0 ? Table::fmt(int64_t(bits)) : "-",
                      Table::fmt(mean(ws), 4)});
        };

        eval("NoSvard",
             std::make_shared<core::UniformThreshold>(threshold,
                                                      cfg.rowsPerBank),
             0);
        for (uint32_t bins : {2u, 4u, 8u, 14u}) {
            auto prof = std::make_shared<core::VulnProfile>(
                core::VulnProfile::fromModel(model, bins)
                    .resampledTo(cfg.banksPerRank(), cfg.rowsPerBank)
                    .scaledTo(threshold));
            int bits = 1;
            while ((1u << bits) < prof->numBins())
                ++bits;
            eval(("Svard-" + std::to_string(prof->numBins()) + "bin")
                     .c_str(),
                 std::make_shared<core::Svard>(prof), bits);
        }
    }
    t.print();
    return 0;
}
