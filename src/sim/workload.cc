#include "sim/workload.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "sim/addrmap.h"

namespace svard::sim {

const std::vector<BenchProfile> &
benchmarkSuite()
{
    // Profiles span the suites' behaviour space: streaming
    // high-bandwidth (libquantum/lbm-alike), pointer-chasing
    // latency-bound (mcf/omnetpp-alike), moderate (gcc/xalanc-alike),
    // transactional (TPC-alike), key-value (YCSB-alike), and media
    // kernels. MPKI values are LLC-miss rates.
    // Footprints are the post-LLC *hot* regions each workload keeps
    // re-visiting; together with MPKI and locality they set the per-row
    // activation density the defenses react to.
    static const std::vector<BenchProfile> suite = {
        {"stream-hi", "SPEC06", 32.0, 0.30, 0.85, 8, 0.90},
        {"stream-md", "SPEC17", 18.0, 0.25, 0.80, 8, 0.85},
        {"ptrchase-hi", "SPEC06", 26.0, 0.10, 0.05, 32, 0.05},
        {"ptrchase-md", "SPEC17", 14.0, 0.12, 0.10, 24, 0.05},
        {"mixed-hi", "SPEC17", 20.0, 0.20, 0.45, 16, 0.40},
        {"mixed-md", "SPEC06", 9.0, 0.22, 0.50, 12, 0.40},
        {"gemm-tiled", "SPEC17", 6.0, 0.35, 0.70, 4, 0.60},
        {"compress", "SPEC06", 4.0, 0.30, 0.55, 8, 0.50},
        {"oltp-a", "TPC", 12.0, 0.40, 0.25, 32, 0.10},
        {"oltp-b", "TPC", 8.0, 0.45, 0.30, 48, 0.10},
        {"olap-scan", "TPC", 22.0, 0.05, 0.75, 64, 0.80},
        {"kv-read", "YCSB", 10.0, 0.05, 0.20, 32, 0.10},
        {"kv-update", "YCSB", 11.0, 0.50, 0.20, 32, 0.10},
        {"video-enc", "MediaBench", 7.0, 0.35, 0.65, 4, 0.70},
        {"video-dec", "MediaBench", 5.0, 0.20, 0.70, 4, 0.70},
        {"filter2d", "MediaBench", 13.0, 0.30, 0.60, 8, 0.65},
        {"hotspot-a", "KERNEL", 70.0, 0.15, 0.10, 2, 0.05},
        {"hotspot-b", "KERNEL", 50.0, 0.30, 0.20, 4, 0.10},
    };
    return suite;
}

const BenchProfile &
benchmarkByName(const std::string &name)
{
    for (const auto &b : benchmarkSuite())
        if (b.name == name)
            return b;
    SVARD_FATAL("unknown benchmark: " + name);
}

std::vector<TraceEntry>
generateTrace(const BenchProfile &profile, size_t n, uint64_t seed,
              uint64_t core_offset)
{
    // The stream is a function of (benchmark, seed) only; core_offset
    // relocates it. A benchmark therefore issues the identical access
    // pattern alone and inside a mix, as the paper's trace-driven
    // methodology does.
    uint64_t name_hash = 1469598103934665603ULL;
    for (char c : profile.name)
        name_hash = (name_hash ^ static_cast<uint8_t>(c)) *
                    1099511628211ULL;
    Rng rng(hashSeed({seed, name_hash, 0x7124CEULL}));
    std::vector<TraceEntry> trace;
    trace.reserve(n);

    const uint64_t footprint =
        static_cast<uint64_t>(profile.footprintMB) * 1024 * 1024;
    const double mean_gap = 1000.0 / profile.mpki;
    uint64_t cursor = core_offset + rng.below(footprint);

    for (size_t i = 0; i < n; ++i) {
        // Geometric gaps reproduce the bursty arrivals of real misses.
        double u = rng.uniform();
        if (u < 1e-12)
            u = 1e-12;
        const uint32_t gap = 1 + static_cast<uint32_t>(
                                     -std::log(u) * (mean_gap - 1.0));

        if (rng.chance(profile.streamFrac)) {
            cursor += 64; // next cache block
        } else if (rng.chance(profile.rowLocality)) {
            // Another block in the same 4-block MOP run / row
            // neighbourhood.
            cursor = (cursor & ~uint64_t(255)) + 64 * rng.below(4);
        } else {
            cursor = core_offset + (rng.below(footprint) & ~uint64_t(63));
        }
        if (cursor >= core_offset + footprint)
            cursor = core_offset + (cursor % footprint);

        trace.push_back({gap, rng.chance(profile.writeFrac), cursor});
    }
    return trace;
}

std::vector<WorkloadMix>
workloadMixes(uint32_t count, uint32_t cores, uint64_t seed)
{
    const auto &suite = benchmarkSuite();
    Rng rng(seed);
    std::vector<WorkloadMix> mixes;
    mixes.reserve(count);
    for (uint32_t m = 0; m < count; ++m) {
        WorkloadMix mix;
        mix.name = "mix" + std::to_string(m);
        for (uint32_t c = 0; c < cores; ++c)
            mix.benchIdx.push_back(
                static_cast<uint32_t>(rng.below(suite.size())));
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

std::vector<TraceEntry>
adversarialHydraTrace(size_t n, uint64_t seed, const SimConfig &cfg)
{
    // Touch one block in each of many distinct rows, cycling through
    // more rows than Hydra's row-count cache can hold so every
    // activation misses the RCC. Low gap keeps the pattern hot.
    Rng rng(seed);
    std::vector<TraceEntry> trace;
    trace.reserve(n);
    constexpr uint64_t kRows = 8192; // > Hydra::kRccEntries (4096)
    const uint64_t row_stride = MopMapper::rowStrideBytes(cfg);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t row = i % kRows;
        trace.push_back({2, false, row * row_stride});
    }
    return trace;
}

WorkloadMix
adversarialBenignMix(uint32_t cores)
{
    WorkloadMix benign;
    benign.name = "adversarial-benign";
    const auto &suite = benchmarkSuite();
    for (uint32_t c = 1; c < cores; ++c)
        benign.benchIdx.push_back(c % suite.size());
    return benign;
}

uint64_t
coreTraceOffset(uint64_t seed, uint32_t core)
{
    // The 256 KiB factor is deliberately NOT geometry-derived: the
    // offset only scatters cores apart in physical address space
    // (deterministic entropy, no row-pure contract), and benign
    // traces are generated once per mix and shared across the
    // engine's whole geometry axis — a geometry-dependent offset
    // would silently fork the workload per geometry.
    const uint64_t row_scatter =
        hashSeed({seed, core, 0x0FF5E7ULL}) % 16384;
    return (core + 1) * (4ULL << 30) + row_scatter * (256 * 1024);
}

std::vector<TraceEntry>
adversarialRrsTrace(size_t n, uint64_t seed, uint32_t base_row,
                    const SimConfig &cfg)
{
    // Classic double-sided hammer: alternate two aggressor rows as
    // fast as possible, maximizing swap operations.
    Rng rng(seed);
    std::vector<TraceEntry> trace;
    trace.reserve(n);
    const uint64_t row_stride = MopMapper::rowStrideBytes(cfg); // +1 DRAM row
    const uint64_t base = static_cast<uint64_t>(base_row) * row_stride;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t row = (i & 1) ? base + 2 * row_stride : base;
        // Different block each time so requests miss any row buffer
        // coalescing and force an activation.
        const uint64_t block = (i / 2) % 128;
        trace.push_back({2, false, row + block * 64});
    }
    return trace;
}

} // namespace svard::sim
