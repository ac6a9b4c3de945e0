#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <unordered_map>

#include "common/log.h"
#include "common/mutex.h"
#include "obs/json.h"

namespace svard::obs {
namespace {

/**
 * Per-thread slot array. Fixed capacity so hot-path access never races
 * with growth; 4K slots ≈ 32 KiB/thread covers ~60 histograms or
 * thousands of counters, and registration panics loudly if exceeded.
 */
constexpr uint32_t kMaxSlots = 4096;

struct Shard
{
    Shard()
    {
        for (auto &s : slots)
            s.store(0, std::memory_order_relaxed);
    }

    std::atomic<uint64_t> slots[kMaxSlots];
};

struct MetricDef
{
    std::string name;
    MetricKind kind;
    uint32_t offset; ///< first slot; histograms use [offset, offset+2+buckets)
};

struct Registry
{
    Mutex mu;
    /** Registration order. */
    std::vector<MetricDef> defs SVARD_GUARDED_BY(mu);
    /** name -> defs index. */
    std::unordered_map<std::string, size_t> byName SVARD_GUARDED_BY(mu);
    uint32_t nextSlot SVARD_GUARDED_BY(mu) = 0;
    /** deque: shard addresses stay stable as threads attach. Grown
     *  under mu; hot-path access goes through each thread's cached
     *  tlsShard pointer, never through this container. */
    std::deque<Shard> shards SVARD_GUARDED_BY(mu);
    std::atomic<bool> enabled{[] {
        const char *e = std::getenv("SVARD_METRICS");
        return !(e && e[0] == '0' && e[1] == '\0');
    }()};
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: outlive static dtors
    return *r;
}

thread_local Shard *tlsShard = nullptr;

Shard *
myShard()
{
    if (!tlsShard) {
        Registry &r = registry();
        MutexLock lock(r.mu);
        r.shards.emplace_back();
        tlsShard = &r.shards.back();
    }
    return tlsShard;
}

uint32_t
slotsFor(MetricKind kind)
{
    return kind == MetricKind::Histogram ? 2 + kHistogramBuckets : 1;
}

MetricId
registerMetric(const std::string &name, MetricKind kind)
{
    Registry &r = registry();
    MutexLock lock(r.mu);
    auto it = r.byName.find(name);
    if (it != r.byName.end()) {
        const MetricDef &d = r.defs[it->second];
        SVARD_ASSERT(d.kind == kind,
                     "metric '" + name + "' re-registered as a different kind");
        return d.offset;
    }
    SVARD_ASSERT(r.nextSlot + slotsFor(kind) <= kMaxSlots,
                 "metrics registry slot space exhausted");
    const uint32_t offset = r.nextSlot;
    r.nextSlot += slotsFor(kind);
    r.byName.emplace(name, r.defs.size());
    r.defs.push_back({name, kind, offset});
    return offset;
}

/** bit_width(v): 0 for 0, else position of the highest set bit + 1. */
uint32_t
bucketOf(uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return v ? 64u - static_cast<uint32_t>(__builtin_clzll(v)) : 0u;
#else
    uint32_t b = 0;
    while (v) {
        ++b;
        v >>= 1;
    }
    return b;
#endif
}

} // namespace

MetricId
counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter);
}

MetricId
gauge(const std::string &name)
{
    return registerMetric(name, MetricKind::Gauge);
}

MetricId
histogram(const std::string &name)
{
    return registerMetric(name, MetricKind::Histogram);
}

void
add(MetricId id, uint64_t delta)
{
    if (!registry().enabled.load(std::memory_order_relaxed))
        return;
    myShard()->slots[id].fetch_add(delta, std::memory_order_relaxed);
}

void
gaugeMax(MetricId id, uint64_t v)
{
    if (!registry().enabled.load(std::memory_order_relaxed))
        return;
    // Only the owning thread writes this slot, so load/compare/store
    // needs no CAS loop.
    std::atomic<uint64_t> &slot = myShard()->slots[id];
    if (v > slot.load(std::memory_order_relaxed))
        slot.store(v, std::memory_order_relaxed);
}

void
observe(MetricId id, uint64_t v)
{
    if (!registry().enabled.load(std::memory_order_relaxed))
        return;
    Shard *s = myShard();
    s->slots[id].fetch_add(1, std::memory_order_relaxed);
    s->slots[id + 1].fetch_add(v, std::memory_order_relaxed);
    s->slots[id + 2 + bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return registry().enabled.load(std::memory_order_relaxed);
}

void
setMetricsEnabled(bool on)
{
    registry().enabled.store(on, std::memory_order_relaxed);
}

Snapshot
snapshot()
{
    Registry &r = registry();
    MutexLock lock(r.mu);
    Snapshot snap;
    snap.metrics.reserve(r.defs.size());
    for (const MetricDef &d : r.defs) {
        MetricValue mv;
        mv.name = d.name;
        mv.kind = d.kind;
        if (d.kind == MetricKind::Histogram)
            mv.buckets.assign(kHistogramBuckets, 0);
        for (const Shard &s : r.shards) {
            switch (d.kind) {
            case MetricKind::Counter:
                mv.value +=
                    s.slots[d.offset].load(std::memory_order_relaxed);
                break;
            case MetricKind::Gauge:
                mv.value = std::max(
                    mv.value,
                    s.slots[d.offset].load(std::memory_order_relaxed));
                break;
            case MetricKind::Histogram:
                mv.value +=
                    s.slots[d.offset].load(std::memory_order_relaxed);
                mv.sum +=
                    s.slots[d.offset + 1].load(std::memory_order_relaxed);
                for (uint32_t b = 0; b < kHistogramBuckets; ++b)
                    mv.buckets[b] += s.slots[d.offset + 2 + b].load(
                        std::memory_order_relaxed);
                break;
            }
        }
        snap.metrics.push_back(std::move(mv));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const MetricValue &a, const MetricValue &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
resetMetrics()
{
    Registry &r = registry();
    MutexLock lock(r.mu);
    for (Shard &s : r.shards)
        for (auto &slot : s.slots)
            slot.store(0, std::memory_order_relaxed);
}

const MetricValue *
Snapshot::find(const std::string &name) const
{
    auto it = std::lower_bound(metrics.begin(), metrics.end(), name,
                               [](const MetricValue &m,
                                  const std::string &n) {
                                   return m.name < n;
                               });
    if (it == metrics.end() || it->name != name)
        return nullptr;
    return &*it;
}

uint64_t
Snapshot::value(const std::string &name) const
{
    const MetricValue *m = find(name);
    return m ? m->value : 0;
}

std::string
Snapshot::toJson(int indent) const
{
    const std::string nl = indent > 0 ? "\n" : "";
    const std::string pad = indent > 0 ? std::string(indent, ' ') : "";
    std::string out = "{";
    bool first = true;
    for (const MetricValue &m : metrics) {
        if (!first)
            out += ",";
        first = false;
        out += nl + pad + "\"" + json::escape(m.name) + "\": ";
        if (m.kind != MetricKind::Histogram) {
            out += std::to_string(m.value);
            continue;
        }
        out += "{\"count\": " + std::to_string(m.value) +
               ", \"sum\": " + std::to_string(m.sum) + ", \"mean\": " +
               json::formatNumber(m.mean()) + ", \"buckets\": [";
        // Trim trailing empty buckets; keep the leading run so index
        // still equals bit_width.
        size_t last = m.buckets.size();
        while (last > 0 && m.buckets[last - 1] == 0)
            --last;
        for (size_t b = 0; b < last; ++b) {
            if (b)
                out += ",";
            out += std::to_string(m.buckets[b]);
        }
        out += "]}";
    }
    out += nl + "}";
    return out;
}

} // namespace svard::obs
