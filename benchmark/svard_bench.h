/**
 * @file
 * Shared pieces of svard_bench: command-line options, the outcome of
 * one workload repetition, the workload table, the seeded inputs the
 * workloads and layer probes share, and timing helpers.
 *
 * The benchmark measures the library from outside: every number comes
 * from timing calls into a layer's public API (or from the program's
 * own obs spans and counters), never from instrumentation added to
 * src/.
 */
#ifndef SVARD_BENCHMARK_SVARD_BENCH_H
#define SVARD_BENCHMARK_SVARD_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "charz/characterizer.h"
#include "common/rng.h"
#include "dram/module_spec.h"
#include "dram/subarray.h"
#include "engine/sweep.h"
#include "fault/vuln_model.h"
#include "obs/trace.h"

namespace svard::benchmark {

using Clock = std::chrono::steady_clock;

/** Parsed command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 30.0;   ///< time budget of an untraced run
    std::string traceDir;    ///< non-empty: traced (per-layer) run
    unsigned threads = 0;    ///< resolved worker count (> 0)
    bool smoke = false;      ///< ~1 s per workload, one repetition
    std::string workDir = "svard_bench.work";
    std::string expectDigest; ///< pinned digest of the run (hex)
};

/** What one repetition of a workload did. */
struct RepResult
{
    double setupS = 0.0;   ///< median of the repetition's set-ups
    double measureS = 0.0; ///< measured phase wall
    uint64_t ops = 0;    ///< operations attempted (cells or rows)
    uint64_t failed = 0; ///< operations that failed a check
    uint64_t digest = 0; ///< hash of the outputs, enumeration order
    std::vector<std::string> errors;

    /** Record a failed output check of `n_ops` operations. */
    void
    fail(uint64_t n_ops, const std::string &what)
    {
        failed = std::min(ops, failed + n_ops);
        if (errors.size() < 8)
            errors.push_back(what);
    }
};

/** One benchmark workload. */
struct Workload
{
    const char *name;
    /** Set up and run one repetition from `seed`; fills `out`. May
     *  throw: the caller counts every op of a throwing rep as failed. */
    void (*rep)(const Options &opt, uint64_t seed, RepResult &out);
};

/** The four workloads, in the order BENCHMARK.json lists them. */
const std::vector<Workload> &workloads();

/** The seed a run's workload and layer probes build their inputs from. */
inline uint64_t
runSeed(const Options &opt)
{
    return hashSeed({opt.seed, 0xBE4C4ULL});
}

/** Requests per core of every simulated cell (fewer in smoke mode). */
inline size_t
requestsPerCore(const Options &opt)
{
    return opt.smoke ? 1500 : 6000;
}

/** HC_first of the Fig. 13 attacks. */
constexpr double kFig13Threshold = 64.0;

/** The paper's Fig. 12 axes (a 2 x 2 x 2 corner in smoke mode) over
 *  the first `mixes` of the paper's canonical mixes, traces and cell
 *  seeds from `seed`. */
engine::SweepSpec fig12Axes(const Options &opt, uint64_t seed,
                            uint32_t mixes);

/** The paper-scale Fig. 12 grid, 5 x 7 x 4 x 120 mixes = 16,800 cells
 *  (in smoke mode too), traces and cell seeds from `seed`. */
engine::SweepSpec paperScaleAxes(const Options &opt, uint64_t seed);

/** Cells of paperScaleAxes, resolved but not simulated, with
 *  seed-derived metrics as the checkpoint of a finished sweep would
 *  hold. */
std::vector<engine::CellResult> paperScaleRecords(const Options &opt,
                                                  uint64_t seed);

/** `count` distinct rows in [1, rows) drawn from `seed`. */
inline std::vector<uint32_t>
seededRows(uint64_t seed, uint32_t count, uint32_t rows)
{
    Rng rng(seed);
    std::set<uint32_t> out;
    while (out.size() < count)
        out.insert(1 + static_cast<uint32_t>(rng.below(rows - 1)));
    return {out.begin(), out.end()};
}

/** Victim rows of module `module` that charz-fig05 adds to each bank. */
inline std::vector<uint32_t>
charzVictims(uint64_t seed, size_t module, uint32_t count)
{
    return seededRows(hashSeed({seed, module, 0xC5ULL}), count,
                      dram::allModules()[module].rowsPerBank);
}

/** Base rows of the Fig. 13 RRS attacks. */
inline std::vector<uint32_t>
rrsTargets(uint64_t seed, uint32_t count)
{
    Rng rng(hashSeed({seed, 0xF13ULL}));
    std::vector<uint32_t> out;
    for (uint32_t t = 0; t < count; ++t)
        out.push_back(1000 + static_cast<uint32_t>(rng.below(30000)));
    return out;
}

/** Device + model + characterizer of one module. */
struct ModuleRig
{
    explicit ModuleRig(const dram::ModuleSpec &module)
        : spec(module),
          subarrays(std::make_shared<dram::SubarrayMap>(module)),
          model(std::make_shared<fault::VulnerabilityModel>(module,
                                                            subarrays)),
          device(module, subarrays, model), charz(device)
    {}

    const dram::ModuleSpec &spec;
    std::shared_ptr<dram::SubarrayMap> subarrays;
    std::shared_ptr<fault::VulnerabilityModel> model;
    dram::DramDevice device;
    charz::Characterizer charz;
};

/** A metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Isolated per-layer probes (layers.cc). Inputs derive from
 *  runSeed(opt); failures (e.g. a replay that does not reproduce the
 *  live defense statistics) land in `errors`. */
std::vector<Metric> layerProbes(const Options &opt,
                                std::vector<std::string> &errors);

/** Per-span-name totals of one trace file. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;         ///< minus same-lane child spans
    std::vector<double> durUs;   ///< every span's duration
};

/** A trace file folded by span name ("category/name"). */
struct TraceFold
{
    std::map<std::string, SpanTotals> spans;
    double windowUs = 0.0;  ///< the "bench/rep" span
    double coveredUs = 0.0; ///< union of program spans inside it
};

/** Fold the chrome-trace file at `path`; false (with *err) when it
 *  cannot be read or parsed. */
bool foldTrace(const std::string &path, TraceFold *out, std::string *err);

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Seconds per call of `fn`, amortized over as many calls as fit in
 * `min_seconds` (at least `min_calls`) between two timestamps — one
 * clock read per batch, not per call, so short calls are not dwarfed
 * by the clock.
 */
template <typename Fn>
double
secondsPerCall(Fn &&fn, double min_seconds, int min_calls = 1)
{
    int calls = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = secondsSince(start);
    } while (calls < min_calls || elapsed < min_seconds);
    return elapsed / calls;
}

/** Set-ups a repetition makes when its set-up is short (see timeSetup). */
constexpr int kShortSetups = 9;

/**
 * Time a repetition's set-up. `fn` builds the repetition's inputs,
 * replacing any earlier ones; it runs `times` times (once in smoke
 * mode), each call timed on its own as a "bench/setup" span, and the
 * median is the set-up time. Set-ups of microseconds to milliseconds
 * vary by tens of percent from call to call (allocator state, page
 * faults), so those workloads set up kShortSetups times; a set-up of
 * a fraction of a second or more is timed once.
 */
template <typename Fn>
void
timeSetup(const Options &opt, int times, RepResult &r, Fn &&fn)
{
    std::vector<double> took;
    for (int i = 0; i < (opt.smoke ? 1 : times); ++i) {
        obs::Span span("bench", "setup");
        const auto start = Clock::now();
        fn();
        took.push_back(secondsSince(start));
    }
    r.setupS = median(took);
}

/** The measured phase of a repetition: writes its wall seconds on
 *  scope exit and records a "bench/measure" span. */
class MeasuredPhase
{
  public:
    explicit MeasuredPhase(RepResult &r)
        : span_("bench", "measure"), out_(&r.measureS),
          start_(Clock::now())
    {}
    ~MeasuredPhase() { *out_ = secondsSince(start_); }

    MeasuredPhase(const MeasuredPhase &) = delete;
    MeasuredPhase &operator=(const MeasuredPhase &) = delete;

  private:
    obs::Span span_;
    double *out_;
    Clock::time_point start_;
};

} // namespace svard::benchmark

#endif // SVARD_BENCHMARK_SVARD_BENCH_H
