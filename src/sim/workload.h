/**
 * @file
 * Synthetic workload generator. The paper evaluates 120 8-core
 * multiprogrammed mixes drawn from SPEC CPU2006/2017, TPC, MediaBench,
 * and YCSB; we do not have those traces, so each suite is represented
 * by seeded synthetic benchmark profiles spanning the relevant
 * behaviour space — memory intensity (MPKI), row-buffer locality,
 * read/write mix, and footprint — which are the workload properties
 * the evaluated defenses and metrics are sensitive to.
 */
#ifndef SVARD_SIM_WORKLOAD_H
#define SVARD_SIM_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/config.h"

namespace svard::sim {

/** One memory request of a core's trace. */
struct TraceEntry
{
    uint32_t gap;     ///< instructions since the previous request
    bool write;
    uint64_t address; ///< physical byte address
};

/** Statistical profile of a synthetic benchmark. */
struct BenchProfile
{
    std::string name;
    std::string suite;
    double mpki;         ///< memory requests per kilo-instruction
    double writeFrac;    ///< fraction of requests that are writes
    double rowLocality;  ///< P(next request falls in the same row run)
    uint32_t footprintMB;///< resident working set
    double streamFrac;   ///< fraction of accesses that stream linearly
};

/** The built-in benchmark suite (names are -alike, not the originals). */
const std::vector<BenchProfile> &benchmarkSuite();

const BenchProfile &benchmarkByName(const std::string &name);

/**
 * Generate a benchmark's memory trace: `n` requests with seeded
 * address and gap streams. `core_offset` shifts the address space so
 * cores do not share rows (multiprogrammed, not multithreaded).
 */
std::vector<TraceEntry> generateTrace(const BenchProfile &profile,
                                      size_t n, uint64_t seed,
                                      uint64_t core_offset);

/**
 * Per-core base address: disjoint 4 GiB regions plus a seeded row-
 * granular scatter. Without the scatter every core's footprint starts
 * at a multiple of 16K rows — a whole number of subarrays on every
 * module — and spatially-structured profiles (e.g. S0's subarray
 * parity) would alias pathologically with the placement, which no OS
 * page allocator produces. Shared by every trace-placing runner so
 * experiment cells are comparable across the sim and engine layers.
 */
uint64_t coreTraceOffset(uint64_t seed, uint32_t core);

/** An 8-core multiprogrammed mix: benchmark indices into the suite. */
struct WorkloadMix
{
    std::string name;
    std::vector<uint32_t> benchIdx;
};

/**
 * The paper's 120 randomly-chosen 8-core mixes (seeded, reproducible).
 */
std::vector<WorkloadMix> workloadMixes(uint32_t count = 120,
                                       uint32_t cores = 8,
                                       uint64_t seed = 2024);

/**
 * The fixed benign companion mix of adversarial runs (paper Fig. 13):
 * cores 1..cores-1 cycle through the benchmark suite while core 0
 * executes the attack trace. adversarialBenignWs (sim/system.h) and
 * the experiment engine both use it, so every adversarial run reports
 * comparable benign weighted speedups.
 */
WorkloadMix adversarialBenignMix(uint32_t cores);

/**
 * Adversarial access-pattern traces (paper Fig. 13).
 * - Hydra: cycles over more distinct rows than the row-count cache
 *   holds, forcing a counter fetch per activation in steady state.
 * - RRS: hammers a single row pair, forcing continual row swaps.
 *
 * The physical addresses that land on consecutive DRAM rows (bank
 * bits fixed) depend on the MOP mapping, so the generators take the
 * geometry under attack; the default is the Table 4 system. Passing
 * the run's actual config matters: a trace generated for the DDR4
 * layout stops being adversarial on a DDR5/HBM2 preset (the row
 * stride doubles, so Hydra's cache is no longer thrashed and RRS's
 * aggressor pair collapses onto adjacent rows).
 */
std::vector<TraceEntry> adversarialHydraTrace(
    size_t n, uint64_t seed, const SimConfig &cfg = SimConfig{});
/** base_row picks the hammered aggressor pair (base, base+2); the
 *  victim's vulnerability bin — and thus Svärd's headroom — depends
 *  on it, so evaluations average over several bases. */
std::vector<TraceEntry> adversarialRrsTrace(
    size_t n, uint64_t seed, uint32_t base_row = 1000,
    const SimConfig &cfg = SimConfig{});

} // namespace svard::sim

#endif // SVARD_SIM_WORKLOAD_H
