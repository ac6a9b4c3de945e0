/**
 * @file
 * Microbenchmark for the paper's Sec. 6.4 overhead argument: a Svärd
 * table lookup must hide entirely under the DRAM row activation it
 * accompanies (tRCD ~= 14 ns; the paper's CACTI estimate is 0.47 ns
 * for the SRAM table). Also reports the metadata storage cost: 4 bits
 * per row.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "core/svard.h"
#include "defense/registry.h"
#include "fault/vuln_model.h"

using namespace svard;

namespace {

std::shared_ptr<core::VulnProfile>
profileS3()
{
    // S3 is the smallest module (32K rows/bank) - fast to build.
    static std::shared_ptr<core::VulnProfile> prof = [] {
        const auto &spec = dram::moduleByLabel("S3");
        auto sa = std::make_shared<dram::SubarrayMap>(spec);
        fault::VulnerabilityModel model(spec, sa);
        return std::make_shared<core::VulnProfile>(
            core::VulnProfile::fromModel(model));
    }();
    return prof;
}

void
BM_SvardLookup(benchmark::State &state)
{
    core::Svard svard(profileS3());
    uint32_t row = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(svard.victimThreshold(1, row));
        row = (row * 2654435761u) % (32 * 1024);
    }
}
BENCHMARK(BM_SvardLookup);

void
BM_SvardAggressorBudget(benchmark::State &state)
{
    core::Svard svard(profileS3());
    uint32_t row = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(svard.aggressorBudget(1, row));
        row = 1 + (row * 2654435761u) % (32 * 1024 - 2);
    }
}
BENCHMARK(BM_SvardAggressorBudget);

void
BM_UniformLookup(benchmark::State &state)
{
    core::UniformThreshold uni(4096.0, 32 * 1024);
    uint32_t row = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(uni.victimThreshold(1, row));
        row = (row * 2654435761u) % (32 * 1024);
    }
}
BENCHMARK(BM_UniformLookup);

void
BM_ProfileScaling(benchmark::State &state)
{
    auto prof = profileS3();
    for (auto _ : state)
        benchmark::DoNotOptimize(prof->scaledTo(64.0));
}
BENCHMARK(BM_ProfileScaling);

/**
 * Defense construction through the registry: the experiment engine
 * pays this once per sweep cell, so it must stay negligible next to
 * the cell's simulation time.
 */
void
BM_RegistryConstruct(benchmark::State &state)
{
    auto svard = std::make_shared<core::Svard>(profileS3());
    const auto names = defense::defenseNames();
    size_t i = 0;
    for (auto _ : state) {
        const defense::DefenseContext ctx(svard, 7, 16);
        benchmark::DoNotOptimize(defense::makeDefenseByName(
            names[i % names.size()], ctx));
        ++i;
    }
}
BENCHMARK(BM_RegistryConstruct);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    const auto prof = profileS3();
    std::printf("Svard metadata: %u bins, %llu bits total "
                "(%.3f%% of a 16-bank x 32K-row x 8KB chip)\n",
                prof->numBins(),
                static_cast<unsigned long long>(prof->metadataBits()),
                100.0 * static_cast<double>(prof->metadataBits()) /
                    (16.0 * 32 * 1024 * 8192 * 8));
    return 0;
}
