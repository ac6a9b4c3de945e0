/**
 * @file
 * Tour of the observability layer (src/obs/): run a small sweep with
 * every instrument switched on programmatically —
 *
 *   - metrics registry: named counters/gauges/histograms sharded
 *     per thread, merged into one snapshot at the end
 *     (obs::setMetricsEnabled / obs::snapshot)
 *   - chrome-trace spans: one span per sweep cell, baseline batch,
 *     cache probe, and sink flush, written as trace.json for
 *     chrome://tracing or https://ui.perfetto.dev
 *     (obs::startTrace / obs::stopTrace)
 *   - heartbeats: machine-readable JSONL progress records
 *     (obs::setHeartbeatPath), plus the live stderr progress line
 *     when stderr is a terminal
 *   - run manifest: a JSON provenance record written next to the
 *     sweep output (SweepSpec::manifestPath)
 *
 * None of this feeds back into simulation: the CSV this writes is
 * byte-identical with every instrument off (CI enforces it).
 *
 * Outside of code, the same instruments hang off environment knobs:
 * SVARD_METRICS, SVARD_TRACE=<path>, SVARD_HEARTBEAT=<path>,
 * SVARD_PROGRESS, SVARD_LOG_LEVEL (see README "Observability").
 *
 * Usage: observed_sweep [out_dir]
 */
#include <cstdio>

#include "engine/runner.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

using namespace svard;

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";
    const std::string out_csv = dir + "/observed_sweep.csv";
    const std::string trace_json = dir + "/observed_sweep.trace.json";
    const std::string heartbeats = dir + "/observed_sweep.heartbeat.jsonl";

    // Switch every instrument on programmatically (equivalently:
    // SVARD_METRICS=1 SVARD_TRACE=... SVARD_HEARTBEAT=... in the env).
    obs::setMetricsEnabled(true);
    obs::startTrace(trace_json);
    obs::setHeartbeatPath(heartbeats);

    engine::SweepSpec spec;
    spec.config.cores = 4;
    spec.requestsPerCore = 2000;
    spec.defenses = {"para", "hydra"};
    spec.thresholds = {1024, 128};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S0")};
    spec.mixes = sim::workloadMixes(2, spec.config.cores);
    spec.sink = std::make_shared<io::AsyncSink>(
        io::makeSinkForPath(out_csv));
    spec.manifestPath = out_csv + ".manifest.json";
    spec.progressLabel = "observed-sweep";

    engine::ExperimentRunner runner(std::move(spec));
    runner.run();
    std::printf("executed %zu cells (+%zu baselines); spec "
                "fingerprint %016llx\n",
                runner.executedCells(), runner.executedBaselines(),
                static_cast<unsigned long long>(
                    runner.specFingerprint()));

    // The merged metrics snapshot: every counter the run touched —
    // controller ACT/row-hit counts, defense actions and table
    // occupancy, cache hits/misses, sink queue high-water...
    std::printf("\n-- metrics snapshot --\n%s\n",
                obs::snapshot().toJson(2).c_str());

    // Flush the trace now (otherwise it is written at process exit).
    obs::stopTrace();

    // The manifest the runner wrote next to the CSV, read back.
    obs::RunManifest m;
    if (obs::readManifest(out_csv + ".manifest.json", &m))
        std::printf("\nmanifest: kind=%s threads=%u "
                    "flags=[%s] wall=%.2fs cells=%llu\n",
                    m.kind.c_str(), m.threads,
                    m.buildFlags.c_str(), m.wallSeconds,
                    static_cast<unsigned long long>(m.cellsTotal));

    std::printf("\nresults:    %s\n"
                "manifest:   %s.manifest.json\n"
                "trace:      %s  (load in chrome://tracing or "
                "ui.perfetto.dev)\n"
                "heartbeats: %s\n",
                out_csv.c_str(), out_csv.c_str(), trace_json.c_str(),
                heartbeats.c_str());
    return 0;
}
