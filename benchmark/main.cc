/**
 * @file
 * svard_bench: runs one benchmark workload in its own process.
 *
 *   svard_bench --workload=<name> --seed=<n> [--seconds=<s>]
 *               [--trace=<dir>] [--threads=<n>] [--smoke]
 *               [--work-dir=<dir>] [--expect-digest=<hex>]
 *
 * An untraced run repeats the workload, each repetition with a fresh
 * set-up on the same seeded inputs, until the next repetition would
 * end past --seconds (at least once), and reports the end-to-end
 * metrics as medians over its repetitions. A traced run
 * (--trace=<dir>) reports the per-layer metrics instead (see
 * tracedRun). --smoke runs one small repetition of each phase.
 *
 * Every repetition's outputs are checked (workloads.cc) and hashed.
 * The digest is a pure function of the seed: every repetition, traced
 * or not, must reproduce it, and --expect-digest pins it. The last
 * line of standard output is one JSON object. Exit status: 0 when
 * every check passed, 1 when one failed, 2 on a usage error.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/rng.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svard_bench.h"

using namespace svard;
using namespace svard::benchmark;

namespace {

constexpr int kOverheadPairs = 3;

/** Program counters reported as exact per-layer counts. */
const char *const kCounters[] = {
    "sim.activations",          "sim.row_hits",
    "sim.row_conflicts",        "sim.refreshes",
    "sim.blocked_until_hits",   "defense.preventive_refreshes",
    "defense.metadata_accesses", "defense.swaps",
    "defense.migrations",       "defense.throttle_events",
};

/** A per-layer metric read from one span name of a trace. */
struct SpanMetric
{
    enum Stat { Mean, P50, P95 };
    const char *name;
    const char *owner; ///< the workload whose repetitions make the span
    const char *span;  ///< "category/name"
    Stat stat;
    double perUs; ///< units per microsecond
    const char *unit;
};

const SpanMetric kSpanMetrics[] = {
    {"engine.prepare_s", "fig12-grid", "bench/prepare", SpanMetric::Mean,
     1e-6, "s"},
    {"engine.baselines_s", "fig12-grid", "sweep/baselines",
     SpanMetric::Mean, 1e-6, "s"},
    {"engine.cell_ms_p50", "fig12-grid", "sweep/cell", SpanMetric::P50,
     1e-3, "ms"},
    {"engine.cell_ms_p95", "fig12-grid", "sweep/cell", SpanMetric::P95,
     1e-3, "ms"},
    {"engine.adv_cell_ms_p50", "fig13-adversarial",
     "sweep/adversarial_cell", SpanMetric::P50, 1e-3, "ms"},
    {"engine.adv_cell_ms_p95", "fig13-adversarial",
     "sweep/adversarial_cell", SpanMetric::P95, 1e-3, "ms"},
    {"engine.cache_probe_s", "resume-replay", "sweep/cache_probe",
     SpanMetric::Mean, 1e-6, "s"},
    {"charz.row_us_p50", "charz-fig05", "charz/row", SpanMetric::P50, 1.0,
     "us"},
    {"charz.row_us_p95", "charz-fig05", "charz/row", SpanMetric::P95, 1.0,
     "us"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "svard_bench: %s\nusage: svard_bench --workload=NAME "
                 "--seed=N [--seconds=S] [--trace=DIR] [--threads=N] "
                 "[--smoke] [--work-dir=DIR] [--expect-digest=HEX]\n"
                 "workloads:",
                 why.c_str());
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = !val.empty() && *end == '\0';
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(opt.seconds > 0.0))
                usage("--seconds needs a positive number");
        } else if (key == "--trace") {
            opt.traceDir = val;
            if (val.empty())
                usage("--trace needs a directory");
        } else if (key == "--threads") {
            opt.threads = static_cast<unsigned>(
                std::strtoul(val.c_str(), &end, 10));
            if (val.empty() || *end != '\0' || opt.threads == 0)
                usage("--threads needs a positive count");
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (key == "--work-dir" && !val.empty()) {
            opt.workDir = val;
        } else if (key == "--expect-digest") {
            opt.expectDigest = val;
        } else {
            usage("unknown argument \"" + arg + "\"");
        }
    }
    if (!have_seed)
        usage("--seed needs a whole number");
    if (opt.threads == 0)
        opt.threads = std::max(
            1u, std::min(4u, std::thread::hardware_concurrency()));
    return opt;
}

RepResult
runRep(const Options &opt, const Workload &w)
{
    RepResult r;
    try {
        w.rep(opt, runSeed(opt), r);
    } catch (const std::exception &e) {
        r.ops = std::max<uint64_t>(r.ops, 1);
        r.fail(r.ops, std::string(w.name) + ": " + e.what());
    }
    return r;
}

double
repWall(const RepResult &r)
{
    return r.setupS + r.measureS;
}

double
repOpsPerS(const RepResult &r)
{
    return static_cast<double>(r.ops) / std::max(r.measureS, 1e-9);
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** Peak resident set of this process. VmHWM, not ru_maxrss: Linux
 *  carries ru_maxrss across exec, so it would report the launching
 *  process's peak when that is the larger. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Everything the run prints. */
struct Report
{
    std::vector<RepResult> reps; ///< the workload's own repetitions
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> errors;
    std::map<std::string, SpanTotals> spans;

    /** Count the ops and failures of any repetition the run made. */
    void
    count(const RepResult &r)
    {
        attempted += r.ops;
        failed += r.failed;
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    }

    /** A repetition of the run's workload: same inputs, so the same
     *  outputs as the first. */
    void
    add(const RepResult &r)
    {
        if (!reps.empty() && r.digest != reps.front().digest)
            errors.push_back("repetition " + std::to_string(reps.size()) +
                             " produced different outputs");
        reps.push_back(r);
        count(r);
    }
};

/** Repeat the workload until the next repetition would end past
 *  --seconds (at least once); report the medians over repetitions,
 *  and the set-up of the first, which starts from a fresh process as
 *  a user's run does (later ones reuse its warmed heap, and how many
 *  fit varies from run to run). */
void
untracedRun(const Options &opt, const Workload &w, Report &rep)
{
    const auto start = Clock::now();
    std::vector<double> walls, rates;
    for (;;) {
        const RepResult r = runRep(opt, w);
        rep.add(r);
        walls.push_back(repWall(r));
        rates.push_back(repOpsPerS(r));
        if (opt.smoke || r.failed != 0 ||
            secondsSince(start) + median(walls) > opt.seconds)
            break;
    }
    rep.metrics = {
        {"setup_s", rep.reps.front().setupS, "s"},
        {"wall_s", median(walls), "s"},
        {"ops_per_s", median(rates), "ops/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** One repetition of `w` traced into `path` and folded into *fold. */
RepResult
tracedRep(const Options &opt, const Workload &w, const std::string &path,
          TraceFold *fold, std::vector<std::string> &errors)
{
    obs::startTrace(path);
    RepResult r;
    {
        obs::Span span("bench", "rep");
        r = runRep(opt, w);
    }
    obs::stopTrace();
    std::string err;
    if (!foldTrace(path, fold, &err))
        errors.push_back(err);
    return r;
}

double
spanStat(const SpanTotals &t, SpanMetric::Stat stat)
{
    switch (stat) {
    case SpanMetric::Mean:
        return t.totalUs / static_cast<double>(t.count);
    case SpanMetric::P50:
        return quantile(t.durUs, 0.50);
    case SpanMetric::P95:
        return quantile(t.durUs, 0.95);
    }
    return 0.0;
}

/**
 * One traced repetition of the workload at full size gives its span
 * table and the program's counters. Every other workload then runs one
 * traced smoke-size repetition whose trace gives the span metrics it
 * owns, so every traced run reports every per-layer metric. Smoke-size
 * pairs of this workload, untraced and traced, give the tracing
 * overhead. The isolated layer probes come last.
 */
void
tracedRun(const Options &opt, const Workload &w, Report &rep)
{
    std::filesystem::create_directories(opt.traceDir);
    auto trace_path = [&](const Workload &v, const char *size) {
        return (std::filesystem::path(opt.traceDir) /
                (std::string(v.name) + "-" + size + ".json"))
            .string();
    };

    std::map<std::string, TraceFold> folds;
    obs::resetMetrics();
    rep.add(tracedRep(opt, w, trace_path(w, "full"), &folds[w.name],
                      rep.errors));
    const obs::Snapshot counters = obs::snapshot();

    Options small = opt;
    small.smoke = true;
    for (const auto &v : workloads()) {
        if (&v == &w)
            continue;
        rep.count(tracedRep(small, v, trace_path(v, "smoke"),
                            &folds[v.name], rep.errors));
    }
    // A second of work moves by several percent from run to run, so the
    // overhead is the median of kOverheadPairs smoke-size pairs.
    std::vector<double> ratios;
    for (int i = 0; i < kOverheadPairs; ++i) {
        const RepResult plain = runRep(small, w);
        TraceFold fold;
        const RepResult traced =
            tracedRep(small, w, trace_path(w, "smoke"), &fold, rep.errors);
        rep.count(plain);
        rep.count(traced);
        if (plain.digest != traced.digest)
            rep.errors.push_back("tracing changed the outputs");
        ratios.push_back(repWall(traced) / repWall(plain));
    }
    const double overhead_pct = 100.0 * (median(ratios) - 1.0);

    const TraceFold &own = folds[w.name];
    rep.spans = own.spans;
    for (const SpanMetric &sm : kSpanMetrics) {
        const auto &spans = folds[sm.owner].spans;
        const auto it = spans.find(sm.span);
        if (it == spans.end()) {
            rep.errors.push_back(std::string("no ") + sm.span +
                                 " spans in the " + sm.owner + " trace");
            continue;
        }
        rep.metrics.push_back(
            {sm.name, spanStat(it->second, sm.stat) * sm.perUs, sm.unit});
    }
    const TraceFold &grid = folds["fig12-grid"];
    rep.metrics.push_back({"engine.phase_coverage_pct",
                           100.0 * grid.coveredUs /
                               std::max(grid.windowUs, 1e-9),
                           "%"});
    rep.metrics.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
    for (const char *name : kCounters)
        rep.metrics.push_back(
            {name, static_cast<double>(counters.value(name)), "count"});
    for (auto &m : layerProbes(opt, rep.errors))
        rep.metrics.push_back(std::move(m));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    out += obs::json::escape(s);
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload *w = nullptr;
    for (const auto &cand : workloads())
        if (opt.workload == cand.name)
            w = &cand;
    if (!w)
        usage("unknown workload \"" + opt.workload + "\"");
    // The program's counters feed the traced run; collection is on by
    // default, so forcing it only shields the run from SVARD_METRICS.
    obs::setMetricsEnabled(true);

    Report rep;
    if (opt.traceDir.empty())
        untracedRun(opt, *w, rep);
    else
        tracedRun(opt, *w, rep);

    uint64_t attempted = rep.attempted, failed = rep.failed;
    const std::string digest = hex(rep.reps.front().digest);
    if (!opt.expectDigest.empty() && opt.expectDigest != digest) {
        rep.errors.push_back("digest " + digest + " differs from the " +
                             "pinned " + opt.expectDigest);
        failed = attempted; // the whole run's output is suspect
    }
    const bool correct = failed == 0 && rep.errors.empty();

    for (const auto &e : rep.errors)
        std::fprintf(stderr, "svard_bench: FAIL %s\n", e.c_str());

    std::string out = "{\"workload\": " + jsonString(w->name) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"threads\": " + std::to_string(opt.threads) +
                      ", \"reps\": " + std::to_string(rep.reps.size()) +
                      ", \"digest\": " + jsonString(digest) +
                      ", \"correct\": " + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"errors\": [";
    for (size_t i = 0; i < rep.errors.size(); ++i)
        out += (i ? ", " : "") + jsonString(rep.errors[i]);
    out += "], \"rep_setup_s\": [";
    for (size_t i = 0; i < rep.reps.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(rep.reps[i].setupS);
    out += "], \"rep_measure_s\": [";
    for (size_t i = 0; i < rep.reps.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(rep.reps[i].measureS);
    out += "], \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i)
        out += (i ? ", " : "") + jsonString(rep.metrics[i].name) +
               ": {\"value\": " + jsonNumber(rep.metrics[i].value) +
               ", \"unit\": " + jsonString(rep.metrics[i].unit) + "}";
    out += "}, \"spans\": {";
    bool first = true;
    for (const auto &[name, t] : rep.spans) {
        out += (first ? "" : ", ") + jsonString(name) +
               ": {\"count\": " + std::to_string(t.count) +
               ", \"total_s\": " + jsonNumber(t.totalUs * 1e-6) +
               ", \"self_s\": " + jsonNumber(t.selfUs * 1e-6) + "}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct ? 0 : 1;
}
