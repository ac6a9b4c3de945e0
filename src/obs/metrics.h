/**
 * @file
 * Process-wide metrics registry: named counters, gauges (merged by
 * max, for high-water marks), and log2-bucket latency histograms.
 *
 * Design constraints, in order:
 *  - Observability must never feed back into simulation: nothing here
 *    is consulted by simulation code, so results are bit-identical
 *    whether metrics are enabled or disabled (CI pins this with a
 *    fig12 CSV byte-compare).
 *  - Hot paths touch only a thread-local shard slot (relaxed atomic
 *    add on a cache line no other thread writes); shards are merged
 *    only at snapshot() time.
 *  - Registration is cheap but mutex-guarded; call sites hold the
 *    returned MetricId in a function-local static so each metric is
 *    registered once.
 *
 * Runtime gate: SVARD_METRICS=0 disables collection (default on);
 * setMetricsEnabled() overrides programmatically.
 */
#ifndef SVARD_OBS_METRICS_H
#define SVARD_OBS_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace svard::obs {

enum class MetricKind : uint8_t
{
    Counter,   ///< monotonic sum across threads
    Gauge,     ///< merged by max across threads (high-water marks)
    Histogram, ///< log2 buckets + count + sum of observed values
};

/** Bucket i of a histogram counts values with bit_width(v) == i. */
constexpr uint32_t kHistogramBuckets = 65;

using MetricId = uint32_t;

/** One merged metric in a snapshot. */
struct MetricValue
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    uint64_t value = 0; ///< counter sum / gauge max / histogram count
    uint64_t sum = 0;   ///< histograms: sum of observed values
    std::vector<uint64_t> buckets; ///< histograms only

    /** Approximate mean of observed values (histograms). */
    double mean() const
    {
        return value ? double(sum) / double(value) : 0.0;
    }
};

/** Point-in-time merge of every thread's shard, sorted by name. */
struct Snapshot
{
    std::vector<MetricValue> metrics;

    const MetricValue *find(const std::string &name) const;

    /** Counter/gauge value by name; 0 when absent. */
    uint64_t value(const std::string &name) const;

    /**
     * Render as a JSON object {"name": v, ...}; histograms render as
     * {"count","sum","mean","buckets"} objects. indent > 0 pretty-
     * prints with that many leading spaces per line.
     */
    std::string toJson(int indent = 0) const;
};

/** Register (or look up) a counter; stable id for the process life. */
MetricId counter(const std::string &name);

/** Register (or look up) a gauge (merged by max across threads). */
MetricId gauge(const std::string &name);

/** Register (or look up) a log2-bucket histogram. */
MetricId histogram(const std::string &name);

/** Add to a counter (hot path; thread-local slot, relaxed order). */
void add(MetricId id, uint64_t delta = 1);

/** Raise a gauge to at least v (per-thread max, merged by max). */
void gaugeMax(MetricId id, uint64_t v);

/** Record one histogram observation (e.g. a latency in µs). */
void observe(MetricId id, uint64_t v);

/** Whether collection is currently on (env/programmatic gate). */
bool metricsEnabled();

/** Turn collection on/off at runtime (overrides SVARD_METRICS). */
void setMetricsEnabled(bool on);

/** Merge every shard into a sorted snapshot (collection keeps going). */
Snapshot snapshot();

/** Zero all shards (tests; not thread-safe vs concurrent writers). */
void resetMetrics();

} // namespace svard::obs

#endif // SVARD_OBS_METRICS_H
