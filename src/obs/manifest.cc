#include "obs/manifest.h"

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "common/log.h"
#include "fault_inject/fault_inject.h"
#include "obs/json.h"

namespace svard::obs {
namespace {

std::string
quoted(const std::string &s)
{
    return "\"" + json::escape(s) + "\"";
}

} // namespace

std::string
buildFlagsString()
{
    std::string flags;
    const auto append = [&flags](const char *f) {
        if (!flags.empty())
            flags += ",";
        flags += f;
    };
#ifdef NDEBUG
    append("ndebug");
#endif
#if defined(__SANITIZE_ADDRESS__)
    append("asan");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    append("asan");
#endif
#endif
    if (flags.empty())
        flags = "debug";
    return flags;
}

bool
writeManifest(const std::string &path, const RunManifest &m,
              const Snapshot &metrics)
{
    // Atomic publish: write the whole document to a sibling tmp file
    // and rename over the target. A kill anywhere in between leaves
    // the previous manifest (or no manifest), never a torn JSON that
    // a reader would choke on next to a valid result.
    const std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        warn("manifest: cannot open '" + tmp + "' for writing");
        return false;
    }
    const int64_t tsMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::string geoms = "[";
    for (size_t i = 0; i < m.geometries.size(); ++i) {
        if (i)
            geoms += ", ";
        geoms += quoted(m.geometries[i]);
    }
    geoms += "]";
    std::string drifts = "[";
    for (size_t i = 0; i < m.driftPolicies.size(); ++i) {
        if (i)
            drifts += ", ";
        drifts += quoted(m.driftPolicies[i]);
    }
    drifts += "]";
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"%s\",\n"
                 "  \"kind\": %s,\n"
                 "  \"created_unix_ms\": %lld,\n"
                 "  \"geometries\": %s,\n"
                 "  \"spec_fingerprint\": %llu,\n"
                 "  \"base_seed\": %llu,\n"
                 "  \"threads\": %u,\n"
                 "  \"requests_per_core\": %llu,\n"
                 "  \"build_flags\": %s,\n"
                 "  \"wall_s\": %s,\n"
                 "  \"cells_total\": %llu,\n"
                 "  \"cells_executed\": %llu,\n"
                 "  \"cells_cached\": %llu,\n"
                 "  \"baselines_executed\": %llu,\n"
                 "  \"baselines_cached\": %llu,\n"
                 "  \"cache_path\": %s,\n"
                 "  \"interrupted\": %s,\n"
                 "  \"drift_policies\": %s,\n"
                 "  \"escapes\": %llu,\n"
                 "  \"recalibrations\": %llu,\n"
                 "  \"metrics\": %s\n"
                 "}\n",
                 kManifestSchema, quoted(m.kind).c_str(),
                 static_cast<long long>(tsMs), geoms.c_str(),
                 static_cast<unsigned long long>(m.specFingerprint),
                 static_cast<unsigned long long>(m.baseSeed), m.threads,
                 static_cast<unsigned long long>(m.requestsPerCore),
                 quoted(m.buildFlags).c_str(),
                 json::formatNumber(m.wallSeconds).c_str(),
                 static_cast<unsigned long long>(m.cellsTotal),
                 static_cast<unsigned long long>(m.cellsExecuted),
                 static_cast<unsigned long long>(m.cellsCached),
                 static_cast<unsigned long long>(m.baselinesExecuted),
                 static_cast<unsigned long long>(m.baselinesCached),
                 quoted(m.cachePath).c_str(),
                 m.interrupted ? "true" : "false", drifts.c_str(),
                 static_cast<unsigned long long>(m.escapes),
                 static_cast<unsigned long long>(m.recalibrations),
                 metrics.toJson(4).c_str());
    bool ok = std::fflush(f) == 0 && !std::ferror(f);
    std::fclose(f);
    if (faults::check("manifest.write"))
        ok = false; // injected failure between write and publish
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("manifest: cannot publish '" + path + "'");
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace svard::obs
