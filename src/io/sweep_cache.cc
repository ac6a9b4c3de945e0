#include "io/sweep_cache.h"

#include <filesystem>
#include <stdexcept>

#include <unistd.h>

#include "common/log.h"
#include "common/table.h"
#include "io/result_sink.h"
#include "obs/metrics.h"

namespace svard::io {

SweepCache::SweepCache(const std::string &path)
    : path_(path), fsyncPerStore_(envInt("SVARD_CACHE_FSYNC", 0) != 0)
{
    // Load whatever a previous (possibly killed) run left behind.
    RecordReadStats stats;
    if (std::FILE *f = std::fopen(path_.c_str(), "rb")) {
        // A retired-format checkpoint (v1 host-endian, v2 without
        // the geometry column, v3 without the drift axis) would
        // otherwise be mistaken for a torn tail and truncated to
        // nothing; fail loudly instead so the user can delete or
        // regenerate it deliberately.
        char magic[4] = {0, 0, 0, 0};
        if (std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
            magic[0] == 'S' && magic[1] == 'V' && magic[2] == 'C' &&
            (magic[3] == '1' || magic[3] == '2' || magic[3] == '3'))
            SVARD_FATAL(std::string("sweep cache \"") + path_ +
                        "\" uses the retired v" + magic[3] +
                        " format (" +
                        (magic[3] == '1'   ? "host-endian records"
                         : magic[3] == '2' ? "no geometry column"
                                           : "no drift axis") +
                        "); delete it to recompute");
        std::rewind(f);
        for (auto &r : readRecords(f, &stats)) {
            const std::pair<uint64_t, uint64_t> key{r.seed,
                                                    r.fingerprint};
            cells_[key] = std::move(r); // duplicates: last one wins
        }
        std::fclose(f);
        // Mid-file damage was skipped by resync; the cells in the
        // dropped region recompute (their lookups miss). Loud, not
        // fatal: the intact majority of the checkpoint still counts.
        if (stats.resyncs > 0)
            warn("sweep cache \"" + path_ + "\": skipped " +
                 std::to_string(stats.droppedBytes) +
                 " corrupt bytes mid-file (" +
                 std::to_string(stats.resyncs) +
                 " resync" + (stats.resyncs == 1 ? "" : "s") +
                 "); dropped cells will recompute");
        // Repair a torn tail (a kill mid-append) before appending:
        // records written after in-file garbage would be invisible to
        // the next load, which stops at the first corrupt byte.
        std::error_code ec;
        const auto on_disk =
            std::filesystem::file_size(path_, ec);
        if (!ec && on_disk > stats.validBytes) {
            warn("sweep cache \"" + path_ + "\": dropping " +
                 std::to_string(on_disk - stats.validBytes) +
                 " bytes of torn tail record");
            std::filesystem::resize_file(path_, stats.validBytes, ec);
            if (ec)
                throw std::runtime_error(
                    "cannot repair sweep cache \"" + path_ +
                    "\": " + ec.message());
        }
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_)
        throw std::runtime_error("cannot open sweep cache \"" + path_ +
                                 "\" for append");
}

SweepCache::~SweepCache()
{
    if (file_)
        std::fclose(file_);
}

bool
SweepCache::lookup(uint64_t seed, uint64_t fingerprint,
                   engine::CellResult *out) const
{
    static const obs::MetricId hits = obs::counter("cache.hits");
    static const obs::MetricId misses = obs::counter("cache.misses");
    static const obs::MetricId invalidated =
        obs::counter("cache.invalidated");
    MutexLock lock(mu_);
    const auto it = cells_.find({seed, fingerprint});
    if (it == cells_.end()) {
        obs::add(misses);
        // Same cell seed cached under a different fingerprint: the
        // spec's resolved inputs changed and invalidated this record.
        const auto near = cells_.lower_bound({seed, 0});
        if (near != cells_.end() && near->first.first == seed)
            obs::add(invalidated);
        return false;
    }
    obs::add(hits);
    *out = it->second;
    return true;
}

void
SweepCache::store(const engine::CellResult &row)
{
    static const obs::MetricId stores = obs::counter("cache.stores");
    obs::add(stores);
    MutexLock lock(mu_);
    const std::pair<uint64_t, uint64_t> key{row.seed,
                                            row.fingerprint};
    if (!cells_.emplace(key, row).second)
        return; // already persisted
    // appendRecord retries transient failures and flushes per record:
    // once it returns, a kill cannot lose the cell to stdio
    // buffering. The sim work per cell dwarfs one small flushed
    // write.
    appendRecord(file_, row, path_);
    // Opt-in power-loss durability: flush only hands the bytes to
    // the OS; fsync makes the kernel persist them.
    if (fsyncPerStore_ && ::fsync(::fileno(file_)) != 0)
        throw std::runtime_error("fsync failed on sweep cache \"" +
                                 path_ + "\"");
}

size_t
SweepCache::size() const
{
    MutexLock lock(mu_);
    return cells_.size();
}

bool
SweepCache::fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::fclose(f);
    return true;
}

std::unique_ptr<SweepCache>
SweepCache::openOrNull(const std::string &path)
{
    try {
        return std::make_unique<SweepCache>(path);
    } catch (const std::invalid_argument &) {
        throw; // a malformed knob is the user's error, not the disk's
    } catch (const std::exception &e) {
        warn(std::string("sweep cache unavailable (") + e.what() +
             "); running uncached — results are unaffected, but this "
             "run cannot checkpoint or resume");
        return nullptr;
    }
}

} // namespace svard::io
