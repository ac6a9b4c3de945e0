/**
 * @file
 * Golden-stats safety net for the hot-path rewrites (flat counter
 * tables, allocation-free activate path, event-driven controller
 * scheduling): every cell of a seeded defense x provider x mix grid
 * must produce *bit-identical* SimStats (ControllerStats + per-core
 * IPC + end time) and DefenseStats to the recorded values (captured
 * with SVARD_DUMP_GOLDEN=1); any scheduling or counting change —
 * however small — moves at least one fingerprint.
 *
 * Re-pinned for PR 5 after two deliberate timing-model fixes: (a)
 * SimConfig::cpuTick rounds to nearest instead of truncating,
 * removing the systematic downward bias of every non-integer tick
 * (the exact-half 3.2 GHz case moves from 312 to 313 ps — same 0.5 ps
 * error magnitude, but consistent with round-to-nearest everywhere
 * else), and (b) the controller enforces
 * tRRD_L between same-bank-group activations (it used tRRD_S for
 * every ACT-ACT pair, under-constraining same-group ACTs on every
 * standard). The pre/post equality structure across defenses was
 * verified unchanged when re-pinning.
 *
 * Also hosts the allocation-counting test backing the "zero heap
 * allocations per activation" invariant of MemController::tryIssue
 * and the defenses' onActivate hot paths.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/svard.h"
#include "core/vuln_profile.h"
#include "defense/registry.h"
#include "dram/module_spec.h"
#include "dram/subarray.h"
#include "fault/vuln_model.h"
#include "sim/controller.h"
#include "sim/presets.h"
#include "sim/system.h"
#include "sim/workload.h"

// ------------------------------------------------------------------
// Global allocation counter (used by the zero-allocation tests).
// Counting is toggled so gtest bookkeeping does not pollute counts.
// ------------------------------------------------------------------
static std::atomic<uint64_t> g_heapAllocs{0};
static std::atomic<bool> g_countAllocs{false};

void *
operator new(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// Out of line: inlined into a caller, GCC pairs them with `new` and
// warns that `free` releases `operator new` memory
// (-Wmismatched-new-delete), although the `operator new` above is
// malloc.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace svard;

constexpr size_t kReqs = 1500;
constexpr uint64_t kSeed = 11;
constexpr double kThreshold = 512.0;

/** Fold every stat that the byte-identity guarantee covers into one
 *  64-bit fingerprint (doubles mixed by bit pattern — exact). */
uint64_t
statsFingerprint(const sim::RunResult &r)
{
    HashStream h;
    h.mix(r.endTime);
    h.mix(r.ipc.size());
    for (double ipc : r.ipc)
        h.mix(ipc);
    const sim::ControllerStats &c = r.controller;
    h.mix(c.reads).mix(c.writes).mix(c.activations).mix(c.rowHits);
    h.mix(c.rowConflicts).mix(c.refreshes).mix(c.preventiveRefreshes);
    h.mix(c.migrations).mix(c.swaps).mix(c.metadataAccesses);
    h.mix(c.throttleStall);
    const defense::DefenseStats &d = r.defense;
    h.mix(d.activationsObserved).mix(d.preventiveRefreshes);
    h.mix(d.throttleEvents).mix(d.throttleDelayTotal);
    h.mix(d.migrations).mix(d.swaps).mix(d.metadataAccesses);
    return h.value();
}

std::string
describeStats(const sim::RunResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "end=%lld reads=%llu writes=%llu acts=%llu hits=%llu "
        "conf=%llu ref=%llu pref=%llu mig=%llu swap=%llu meta=%llu "
        "stall=%lld | d.acts=%llu d.pref=%llu d.thr=%llu d.delay=%lld "
        "d.mig=%llu d.swap=%llu d.meta=%llu ipc0=%.17g",
        static_cast<long long>(r.endTime),
        static_cast<unsigned long long>(r.controller.reads),
        static_cast<unsigned long long>(r.controller.writes),
        static_cast<unsigned long long>(r.controller.activations),
        static_cast<unsigned long long>(r.controller.rowHits),
        static_cast<unsigned long long>(r.controller.rowConflicts),
        static_cast<unsigned long long>(r.controller.refreshes),
        static_cast<unsigned long long>(
            r.controller.preventiveRefreshes),
        static_cast<unsigned long long>(r.controller.migrations),
        static_cast<unsigned long long>(r.controller.swaps),
        static_cast<unsigned long long>(r.controller.metadataAccesses),
        static_cast<long long>(r.controller.throttleStall),
        static_cast<unsigned long long>(r.defense.activationsObserved),
        static_cast<unsigned long long>(r.defense.preventiveRefreshes),
        static_cast<unsigned long long>(r.defense.throttleEvents),
        static_cast<long long>(r.defense.throttleDelayTotal),
        static_cast<unsigned long long>(r.defense.migrations),
        static_cast<unsigned long long>(r.defense.swaps),
        static_cast<unsigned long long>(r.defense.metadataAccesses),
        r.ipc.empty() ? 0.0 : r.ipc[0]);
    return buf;
}

/** Workload of one golden cell. kMix* are benign seeded mixes; the
 *  kAdv* traces hammer rows hard enough to trigger every defense's
 *  preventive actions (refreshes, throttles, migrations, swaps,
 *  metadata traffic), so the goldens cover the action paths too. */
enum TraceKind : uint32_t
{
    kMix0 = 0,
    kMix1 = 1,
    kAdvRrs = 2,
    kAdvHydra = 3,
};

struct GoldenCell
{
    const char *defense;
    const char *provider; ///< "uniform" or "svard"
    uint32_t channels;
    uint32_t trace;       ///< TraceKind
    uint64_t fingerprint; ///< statsFingerprint of the run
};

/**
 * The grid: every defense mechanism x {uniform, Svärd-S0} x {2 seeded
 * benign mixes, 1 adversarial hammer trace} on the paper system, plus
 * one 2-channel Hydra cell covering the multi-channel engine.
 * Fingerprints recorded pre-rewrite.
 */
const GoldenCell kGolden[] = {
    // clang-format off
    {"para", "uniform", 1, 0, 0x9747993c7133a111ULL},
    {"para", "uniform", 1, 1, 0x4132c775e97904bdULL},
    {"para", "uniform", 1, 2, 0x3c7d07e26589b3bbULL},
    {"para", "svard", 1, 0, 0xdf10534468be6cdaULL},
    {"para", "svard", 1, 1, 0x56589e7419425b3bULL},
    {"para", "svard", 1, 2, 0x39c72b38acd49f9cULL},
    {"blockhammer", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"blockhammer", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"blockhammer", "uniform", 1, 2, 0xeed9ec910702c4cfULL},
    {"blockhammer", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"blockhammer", "svard", 1, 1, 0x77990fb350958deaULL},
    {"blockhammer", "svard", 1, 2, 0xeed9ec910702c4cfULL},
    {"hydra", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"hydra", "uniform", 1, 1, 0x6a5b8bea14622e55ULL},
    {"hydra", "uniform", 1, 2, 0x81fdf15cd2670758ULL},
    {"hydra", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"hydra", "svard", 1, 1, 0x6a5b8bea14622e55ULL},
    {"hydra", "svard", 1, 2, 0x81fdf15cd2670758ULL},
    {"aqua", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"aqua", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"aqua", "uniform", 1, 2, 0x410e5d09e6128a92ULL},
    {"aqua", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"aqua", "svard", 1, 1, 0x77990fb350958deaULL},
    {"aqua", "svard", 1, 2, 0x410e5d09e6128a92ULL},
    {"rrs", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"rrs", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"rrs", "uniform", 1, 2, 0xcab70a0aee47a232ULL},
    {"rrs", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"rrs", "svard", 1, 1, 0x77990fb350958deaULL},
    {"rrs", "svard", 1, 2, 0xcab70a0aee47a232ULL},
    {"graphene", "uniform", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"graphene", "uniform", 1, 1, 0x77990fb350958deaULL},
    {"graphene", "uniform", 1, 2, 0x923f2378e5d9f67aULL},
    {"graphene", "svard", 1, 0, 0x43eda8b5e6c1cd55ULL},
    {"graphene", "svard", 1, 1, 0x77990fb350958deaULL},
    {"graphene", "svard", 1, 2, 0x923f2378e5d9f67aULL},
    {"hydra", "svard", 1, 3, 0x0f791e2510bc8d7bULL},
    {"hydra", "svard", 2, 0, 0x0e81af4db3eec19dULL},
    // clang-format on
};

/**
 * Cells in which Svärd acts for every registry defense. At kGolden's
 * threshold 512, uniform and Svärd-S0 share a fingerprint for every
 * defense but PARA, so those cells cannot tell a Svärd that never
 * changes a threshold from one that works. Here the threshold is 128,
 * core 0 runs the RRS hammer, and Svärd reads module H1's profile:
 * under S0's, the counting defenses (AQUA, RRS, Graphene) still give
 * uniform's stats on every kGolden trace at 128.
 */
constexpr double kActingThreshold = 128.0;

struct ActingCell
{
    const char *defense;
    const char *provider; ///< "uniform" or "svard" (Svärd-H1)
    uint64_t fingerprint; ///< statsFingerprint of the run
};

const ActingCell kGoldenSvardActs[] = {
    // clang-format off
    {"aqua", "uniform", 0x4bcb6005192dfd05ULL},
    {"aqua", "svard", 0xafa7acc56f5b5b87ULL},
    {"blockhammer", "uniform", 0x6d291f7c1ff99a78ULL},
    {"blockhammer", "svard", 0x087b6cfa0efa9f01ULL},
    {"graphene", "uniform", 0x301ef6144191a5d0ULL},
    {"graphene", "svard", 0x4d054447da42c54eULL},
    {"hydra", "uniform", 0x575ec3f6ac7671a6ULL},
    {"hydra", "svard", 0x10a8a490ab8f84d5ULL},
    {"para", "uniform", 0x91301aeda53fd541ULL},
    {"para", "svard", 0xb8bfc276635b9bfbULL},
    {"rrs", "uniform", 0xf0a75f8558998708ULL},
    {"rrs", "svard", 0xcc8b4837e07b0f45ULL},
    // clang-format on
};

class GoldenStatsTest : public ::testing::Test
{
  protected:
    /** `label`'s profile on the simulated geometry, its floor bin
     *  scaled to `threshold`. */
    static std::shared_ptr<const core::VulnProfile>
    buildProfile(const char *label, double threshold)
    {
        sim::SimConfig cfg;
        const auto &spec = dram::moduleByLabel(label);
        auto sa = std::make_shared<dram::SubarrayMap>(spec);
        fault::VulnerabilityModel model(spec, sa);
        return std::make_shared<core::VulnProfile>(
            core::VulnProfile::fromModel(model)
                .resampledTo(cfg.banksPerRank(), cfg.rowsPerBank)
                .scaledTo(threshold));
    }

    static std::shared_ptr<const core::ThresholdProvider>
    makeProvider(const std::string &kind, const sim::SimConfig &cfg)
    {
        static const auto s0 = buildProfile("S0", kThreshold);
        if (kind == "uniform")
            return std::make_shared<core::UniformThreshold>(
                kThreshold, cfg.rowsPerBank);
        return std::make_shared<core::Svard>(s0);
    }

    /** A kGoldenSvardActs cell's run. */
    static sim::RunResult
    runActingCell(const std::string &defense, const std::string &kind)
    {
        static const auto h1 = buildProfile("H1", kActingThreshold);
        const sim::SimConfig cfg;
        std::shared_ptr<const core::ThresholdProvider> provider;
        if (kind == "uniform")
            provider = std::make_shared<core::UniformThreshold>(
                kActingThreshold, cfg.rowsPerBank);
        else
            provider = std::make_shared<core::Svard>(h1);
        return runCell(defense.c_str(), std::move(provider), 1, kAdvRrs);
    }

    static sim::RunResult
    runCell(const char *defense, const char *provider,
            uint32_t channels, uint32_t trace_kind)
    {
        return runCell(defense, makeProvider(provider, sim::SimConfig{}),
                       channels, trace_kind);
    }

    static sim::RunResult
    runCell(const char *defense,
            std::shared_ptr<const core::ThresholdProvider> provider,
            uint32_t channels, uint32_t trace_kind)
    {
        sim::SimConfig cfg;
        cfg.channels = channels;
        const auto &suite = sim::benchmarkSuite();
        std::vector<std::vector<sim::TraceEntry>> traces;
        if (trace_kind == kAdvRrs || trace_kind == kAdvHydra) {
            // Core 0 hammers, the rest run the fixed benign mix —
            // the Fig. 13 setup, which fires preventive actions.
            traces.push_back(
                trace_kind == kAdvRrs
                    ? sim::adversarialRrsTrace(kReqs, kSeed, 1000)
                    : sim::adversarialHydraTrace(kReqs, kSeed));
            const sim::WorkloadMix benign =
                sim::adversarialBenignMix(cfg.cores);
            for (uint32_t c = 1; c < cfg.cores; ++c)
                traces.push_back(sim::generateTrace(
                    suite[benign.benchIdx[c - 1]], kReqs, kSeed,
                    sim::coreTraceOffset(kSeed, c)));
        } else {
            const auto mixes = sim::workloadMixes(2, cfg.cores);
            const sim::WorkloadMix &mix = mixes[trace_kind];
            for (uint32_t c = 0; c < mix.benchIdx.size(); ++c)
                traces.push_back(sim::generateTrace(
                    suite[mix.benchIdx[c]], kReqs, kSeed,
                    sim::coreTraceOffset(kSeed, c)));
        }
        sim::System sys(cfg, std::move(traces), kReqs, defense,
                        std::move(provider), kSeed);
        return sys.run();
    }
};

TEST_F(GoldenStatsTest, StatsBitIdenticalAcrossHotPathRewrites)
{
    const bool dump = std::getenv("SVARD_DUMP_GOLDEN") != nullptr;
    if (dump) {
        const char *defenses[] = {"para",  "blockhammer", "hydra",
                                  "aqua",  "rrs",         "graphene"};
        const char *providers[] = {"uniform", "svard"};
        for (const char *d : defenses)
            for (const char *p : providers)
                for (uint32_t t : {kMix0, kMix1, kAdvRrs}) {
                    const sim::RunResult r = runCell(d, p, 1, t);
                    std::printf("    {\"%s\", \"%s\", 1, %u, "
                                "0x%016llxULL},\n",
                                d, p, t,
                                static_cast<unsigned long long>(
                                    statsFingerprint(r)));
                }
        const sim::RunResult rh =
            runCell("hydra", "svard", 1, kAdvHydra);
        std::printf("    {\"hydra\", \"svard\", 1, %u, "
                    "0x%016llxULL},\n",
                    static_cast<uint32_t>(kAdvHydra),
                    static_cast<unsigned long long>(
                        statsFingerprint(rh)));
        const sim::RunResult r = runCell("hydra", "svard", 2, kMix0);
        std::printf("    {\"hydra\", \"svard\", 2, 0, "
                    "0x%016llxULL},\n",
                    static_cast<unsigned long long>(
                        statsFingerprint(r)));
        GTEST_SKIP() << "golden dump mode";
    }

    for (const GoldenCell &g : kGolden) {
        const sim::RunResult r =
            runCell(g.defense, g.provider, g.channels, g.trace);
        EXPECT_EQ(statsFingerprint(r), g.fingerprint)
            << g.defense << "/" << g.provider << " ch=" << g.channels
            << " trace=" << g.trace << "\n  " << describeStats(r);
    }
}

TEST_F(GoldenStatsTest, SvardActingCellsPinned)
{
    const bool dump = std::getenv("SVARD_DUMP_GOLDEN") != nullptr;
    for (const ActingCell &g : kGoldenSvardActs) {
        const sim::RunResult r = runActingCell(g.defense, g.provider);
        if (dump)
            std::printf("    {\"%s\", \"%s\", 0x%016llxULL},\n",
                        g.defense, g.provider,
                        static_cast<unsigned long long>(
                            statsFingerprint(r)));
        else
            EXPECT_EQ(statsFingerprint(r), g.fingerprint)
                << g.defense << "/" << g.provider << "\n  "
                << describeStats(r);
    }
    if (dump)
        GTEST_SKIP() << "golden dump mode";
}

/** On the acting cells, Svärd must change every registry defense's
 *  stats. In kGolden only PARA's cells notice a provider whose
 *  per-row thresholds never reach the defense; here every defense's
 *  do. */
TEST_F(GoldenStatsTest, SvardMovesEveryDefenseOnActingCells)
{
    size_t pinned = 0;
    for (const std::string &name : defense::defenseNames()) {
        if (name == "none")
            continue;
        EXPECT_NE(statsFingerprint(runActingCell(name, "uniform")),
                  statsFingerprint(runActingCell(name, "svard")))
            << name << ": Svärd-H1 left every stat as uniform's";
        for (const ActingCell &g : kGoldenSvardActs)
            pinned += name == g.defense;
    }
    // Each registry defense has its uniform and its Svärd cell pinned.
    EXPECT_EQ(pinned, std::size(kGoldenSvardActs));
    EXPECT_EQ(pinned, 2 * (defense::defenseNames().size() - 1));
}

/** ControllerStats::tfawStalls of every kGolden cell, in kGolden
 *  order. The fingerprints above do not mix it, so it is pinned on its
 *  own: it counts, per pick, the closed banks that the tFAW window
 *  alone held back, which depends on how a pick finds its candidates,
 *  not only on what it issues. */
const uint64_t kGoldenTfawStalls[] = {
    // clang-format off
    9864ULL, // para/uniform ch=1 trace=0
    29962ULL, // para/uniform ch=1 trace=1
    95335ULL, // para/uniform ch=1 trace=2
    11615ULL, // para/svard ch=1 trace=0
    31504ULL, // para/svard ch=1 trace=1
    96851ULL, // para/svard ch=1 trace=2
    14652ULL, // blockhammer/uniform ch=1 trace=0
    42260ULL, // blockhammer/uniform ch=1 trace=1
    80265ULL, // blockhammer/uniform ch=1 trace=2
    14652ULL, // blockhammer/svard ch=1 trace=0
    42260ULL, // blockhammer/svard ch=1 trace=1
    80265ULL, // blockhammer/svard ch=1 trace=2
    14652ULL, // hydra/uniform ch=1 trace=0
    41883ULL, // hydra/uniform ch=1 trace=1
    135399ULL, // hydra/uniform ch=1 trace=2
    14652ULL, // hydra/svard ch=1 trace=0
    41883ULL, // hydra/svard ch=1 trace=1
    135399ULL, // hydra/svard ch=1 trace=2
    14652ULL, // aqua/uniform ch=1 trace=0
    42260ULL, // aqua/uniform ch=1 trace=1
    137310ULL, // aqua/uniform ch=1 trace=2
    14652ULL, // aqua/svard ch=1 trace=0
    42260ULL, // aqua/svard ch=1 trace=1
    137310ULL, // aqua/svard ch=1 trace=2
    14652ULL, // rrs/uniform ch=1 trace=0
    42260ULL, // rrs/uniform ch=1 trace=1
    132428ULL, // rrs/uniform ch=1 trace=2
    14652ULL, // rrs/svard ch=1 trace=0
    42260ULL, // rrs/svard ch=1 trace=1
    132428ULL, // rrs/svard ch=1 trace=2
    14652ULL, // graphene/uniform ch=1 trace=0
    42260ULL, // graphene/uniform ch=1 trace=1
    136491ULL, // graphene/uniform ch=1 trace=2
    14652ULL, // graphene/svard ch=1 trace=0
    42260ULL, // graphene/svard ch=1 trace=1
    136491ULL, // graphene/svard ch=1 trace=2
    15609ULL, // hydra/svard ch=1 trace=3
    4597ULL, // hydra/svard ch=2 trace=0
    // clang-format on
};

/** One Hydra cell per geometry preset: core 0 runs the RRS hammer
 *  built for the preset, the rest the Fig. 13 benign mix. */
struct PresetTfaw
{
    const char *preset;
    uint64_t tfawStalls;
};

const PresetTfaw kPresetTfawStalls[] = {
    // clang-format off
    {"ddr4-table4", 135399ULL},
    {"ddr5-4800-32bank", 39770ULL},
    {"hbm2-pc-16ch", 9ULL},
    // clang-format on
};

/** Core 0 runs the RRS hammer built for `cfg`'s address map, the rest
 *  the Fig. 13 benign mix, under `defense` at the uniform threshold. */
sim::RunResult
runHammerCell(const sim::SimConfig &cfg, const char *defense)
{
    const auto &suite = sim::benchmarkSuite();
    std::vector<std::vector<sim::TraceEntry>> traces;
    traces.push_back(sim::adversarialRrsTrace(kReqs, kSeed, 1000, cfg));
    const sim::WorkloadMix benign = sim::adversarialBenignMix(cfg.cores);
    for (uint32_t c = 1; c < cfg.cores; ++c)
        traces.push_back(sim::generateTrace(
            suite[benign.benchIdx[c - 1]], kReqs, kSeed,
            sim::coreTraceOffset(kSeed, c)));
    sim::System sys(cfg, std::move(traces), kReqs, defense,
                    std::make_shared<core::UniformThreshold>(
                        kThreshold, cfg.rowsPerBank),
                    kSeed);
    return sys.run();
}

TEST_F(GoldenStatsTest, TfawStallsPinned)
{
    const bool dump = std::getenv("SVARD_DUMP_GOLDEN") != nullptr;
    static_assert(std::size(kGoldenTfawStalls) == std::size(kGolden));
    for (size_t i = 0; i < std::size(kGolden); ++i) {
        const GoldenCell &g = kGolden[i];
        const uint64_t n =
            runCell(g.defense, g.provider, g.channels, g.trace)
                .controller.tfawStalls;
        if (dump)
            std::printf("    %lluULL, // %s/%s ch=%u trace=%u\n",
                        static_cast<unsigned long long>(n), g.defense,
                        g.provider, g.channels, g.trace);
        else
            EXPECT_EQ(n, kGoldenTfawStalls[i])
                << g.defense << "/" << g.provider << " ch=" << g.channels
                << " trace=" << g.trace;
    }
    size_t presets = 0;
    for (const std::string &preset : sim::presets::names()) {
        const uint64_t n = runHammerCell(sim::presets::get(preset), "hydra")
                               .controller.tfawStalls;
        if (dump) {
            std::printf("    {\"%s\", %lluULL},\n", preset.c_str(),
                        static_cast<unsigned long long>(n));
            continue;
        }
        const PresetTfaw *pin = nullptr;
        for (const PresetTfaw &p : kPresetTfawStalls)
            if (preset == p.preset)
                pin = &p;
        if (!pin) {
            ADD_FAILURE() << preset << " has no pinned tfawStalls";
            continue;
        }
        ++presets;
        EXPECT_EQ(n, pin->tfawStalls) << preset;
    }
    if (dump)
        GTEST_SKIP() << "golden dump mode";
    EXPECT_EQ(presets, std::size(kPresetTfawStalls))
        << "stale preset pins";
}

/**
 * 2-channel hammer cells. The RRS aggressors' 128 blocks alternate
 * channels by MOP run, so the defense acts on both channels. kGolden's
 * 2-channel cell runs a benign mix, where no defense acts, so it
 * cannot tell per-channel defense instances from one instance shared
 * by both controllers; these cells can: a shared instance counts one
 * channel's activations against the other's rows (same bank and row
 * ids) and moves the action counts.
 */
struct TwoChannelCell
{
    const char *defense;
    uint64_t fingerprint;            ///< statsFingerprint of the run
    uint64_t preventiveRefreshes[2]; ///< per channel
};

const TwoChannelCell kTwoChannel[] = {
    // clang-format off
    {"hydra", 0xc95ed83d02cd3c86ULL, {64, 64}},
    {"graphene", 0x3e3652bbfc52c443ULL, {18, 14}},
    // clang-format on
};

TEST_F(GoldenStatsTest, TwoChannelDefensesActPerChannel)
{
    const bool dump = std::getenv("SVARD_DUMP_GOLDEN") != nullptr;
    sim::SimConfig cfg;
    cfg.channels = 2;
    for (const TwoChannelCell &g : kTwoChannel) {
        const sim::RunResult r = runHammerCell(cfg, g.defense);
        ASSERT_EQ(r.perChannel.size(), 2u);
        if (dump) {
            std::printf("    {\"%s\", 0x%016llxULL, {%llu, %llu}},\n",
                        g.defense,
                        static_cast<unsigned long long>(
                            statsFingerprint(r)),
                        static_cast<unsigned long long>(
                            r.perChannel[0].preventiveRefreshes),
                        static_cast<unsigned long long>(
                            r.perChannel[1].preventiveRefreshes));
            continue;
        }
        EXPECT_EQ(statsFingerprint(r), g.fingerprint)
            << g.defense << "\n  " << describeStats(r);
        for (uint32_t c = 0; c < 2; ++c) {
            EXPECT_GT(r.perChannel[c].preventiveRefreshes, 0u)
                << g.defense << " never acted on channel " << c;
            EXPECT_EQ(r.perChannel[c].preventiveRefreshes,
                      g.preventiveRefreshes[c])
                << g.defense << " channel " << c;
        }
        // Each channel's instance counts only its own actions.
        EXPECT_EQ(r.defense.preventiveRefreshes,
                  r.controller.preventiveRefreshes)
            << g.defense;
    }
    if (dump)
        GTEST_SKIP() << "golden dump mode";
}

// ------------------------------------------------------------------
// Allocation-free activate path
// ------------------------------------------------------------------

/** Drive `n` distinct-row read bursts through a bare controller. */
void
driveActivations(sim::MemController &mc, const sim::SimConfig &cfg,
                 uint32_t rows, dram::Tick *clock)
{
    for (uint32_t r = 0; r < rows; ++r) {
        sim::MemRequest req;
        req.core = 0;
        req.write = false;
        req.addr.rank = r % cfg.ranks;
        req.addr.bankGroup = (r / 2) % cfg.bankGroups;
        req.addr.bank = (r / 8) % cfg.banksPerGroup;
        req.addr.row = (r * 37) % 4096;
        req.addr.column = 0;
        req.arrive = *clock;
        // Under swap-heavy defenses a queue slot can take many
        // microseconds to free; keep simulating until one does.
        while (!mc.enqueue(req))
            *clock = mc.run(*clock + 500 * dram::kPsPerNs);
    }
    // Drain fully so the counted phase starts from an idle queue.
    while (!mc.idle())
        *clock = mc.run(*clock + 1000 * dram::kPsPerNs);
}

/** Drive a defense to steady state, then count heap allocations over
 *  one more full pass of the same working set. `warmup` passes are
 *  tuned so action paths (refresh, migrate, metadata) actually fire
 *  before counting starts (trigger point: 0.5 x threshold 64 = 32
 *  ACTs per row). `throttles`, if set, receives the throttle events
 *  of the warm-up and of the counted pass. */
uint64_t
countSteadyStateAllocs(const char *name, int warmup,
                       uint64_t (*throttles)[2] = nullptr)
{
    sim::SimConfig cfg;
    auto provider = std::make_shared<core::UniformThreshold>(
        64.0, cfg.rowsPerBank);
    auto defense = defense::makeDefenseByName(
        name, defense::DefenseContext(cfg, provider, kSeed));
    if (!defense)
        return ~0ULL;
    sim::MemController mc(cfg, defense.get(), nullptr);

    dram::Tick clock = 0;
    for (int pass = 0; pass < warmup; ++pass)
        driveActivations(mc, cfg, 192, &clock);

    const uint64_t throttled = defense->stats().throttleEvents;
    g_heapAllocs.store(0);
    g_countAllocs.store(true);
    driveActivations(mc, cfg, 192, &clock);
    g_countAllocs.store(false);
    if (throttles) {
        (*throttles)[0] = throttled;
        (*throttles)[1] = defense->stats().throttleEvents - throttled;
    }
    return g_heapAllocs.load();
}

/**
 * After warm-up, the activate path — tryIssue, the defense's
 * onActivate into the controller's reusable ActionBuffer, the flat
 * counter tables, and the preventive-action execution — must perform
 * ZERO heap allocations. PARA/Hydra/BlockHammer reach steady state
 * in a few passes; AQUA and Graphene are warmed past their action
 * trigger points so migrations and neighbor refreshes fire during
 * the counted pass. (BlockHammer stays at short warm-up: past its
 * blacklist point it throttles with refresh-window-scale delays.)
 */
TEST(AllocationFreeActivatePath, SteadyStateTryIssueNeverAllocates)
{
    for (const char *name : {"para", "hydra", "blockhammer"})
        EXPECT_EQ(countSteadyStateAllocs(name, 4), 0u)
            << name << " allocated on the steady-state activate path";
    for (const char *name : {"aqua", "graphene"})
        EXPECT_EQ(countSteadyStateAllocs(name, 40), 0u)
            << name << " allocated on the steady-state activate path";
}

/**
 * The throttle path too. BlockHammer first throttles in the 17th pass
 * over the working set, so with 16 warm-up passes the counted pass is
 * the first to park denied activations: the controller's parked list
 * must already be reserved, and released requests rejoin their bank
 * lists without touching the heap.
 */
TEST(AllocationFreeActivatePath, ThrottledActivatesNeverAllocate)
{
    uint64_t throttles[2] = {};
    EXPECT_EQ(countSteadyStateAllocs("blockhammer", 16, &throttles), 0u);
    EXPECT_EQ(throttles[0], 0u) << "warm-up already throttled";
    EXPECT_GT(throttles[1], 0u) << "the counted pass never throttled";
}

/**
 * RRS is exercised too but held to an amortized bound instead of
 * strict zero: each swap resets a RANDOM partner row's counter,
 * inserting fresh keys, so its flat table legitimately grows every
 * few thousand swaps. A handful of allocations per pass is table
 * growth; per-activation allocation would show up as hundreds.
 */
TEST(AllocationFreeActivatePath, RrsAllocatesOnlyForAmortizedGrowth)
{
    EXPECT_LE(countSteadyStateAllocs("rrs", 40), 16u);
}

} // namespace
