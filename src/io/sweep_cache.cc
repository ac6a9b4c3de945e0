#include "io/sweep_cache.h"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "io/result_sink.h"
#include "io/retry.h"
#include "obs/metrics.h"

namespace svard::io {

SweepCache::SweepCache(const std::string &path)
    : path_(path), fsyncPerStore_(envInt("SVARD_CACHE_FSYNC", 0) != 0)
{
    std::error_code ec;
    const uint64_t on_disk = std::filesystem::file_size(path_, ec);
    // Filled through a callback, so built here and moved into the
    // guarded index_ once loaded.
    Index index(ec ? 0 : on_disk / kMinRecordBytes);
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
        // Duplicates: the last record in the file wins.
        forEachRecord(f, &stats, [&index](const engine::CellResult &r) {
            index.put(r);
        });
        std::fclose(f);
        // Mid-file damage was skipped by resync; the cells in the
        // dropped region recompute (their lookups miss). Loud, not
        // fatal: the intact majority of the checkpoint still counts.
        // The file is rewritten without the damage, so the warning
        // fires once, not on every later open.
        bool rewritten = false;
        if (stats.resyncs > 0) {
            warn("sweep cache \"" + path_ + "\": skipped " +
                 std::to_string(stats.droppedBytes) +
                 " corrupt bytes mid-file (" +
                 std::to_string(stats.resyncs) +
                 " resync" + (stats.resyncs == 1 ? "" : "s") +
                 "); dropped cells will recompute");
            rewritten = rewriteIntact();
        }
        // Repair a torn tail (a kill mid-append) before appending:
        // records written after in-file garbage would be invisible to
        // the next load, which stops at the first corrupt byte. A
        // rewritten file already ends at its last intact record.
        if (!ec && on_disk > stats.validBytes) {
            warn("sweep cache \"" + path_ + "\": dropping " +
                 std::to_string(on_disk - stats.validBytes) +
                 " bytes of torn tail record");
            if (!rewritten)
                std::filesystem::resize_file(path_, stats.validBytes,
                                             ec);
            if (ec)
                throw std::runtime_error(
                    "cannot repair sweep cache \"" + path_ +
                    "\": " + ec.message());
        }
    }
    index_ = std::move(index);
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_)
        throw std::runtime_error("cannot open sweep cache \"" + path_ +
                                 "\" for append");
}

bool
SweepCache::rewriteIntact() const
{
    // Every intact record, in file order, so the last record of a key
    // still wins; decoding and encoding again keeps each record's
    // bytes. Published like the run manifest: written whole to a
    // sibling tmp file, then renamed over the checkpoint, so a kill
    // in between leaves the damaged but loadable original.
    std::string intact;
    if (std::FILE *f = std::fopen(path_.c_str(), "rb")) {
        forEachRecord(f, nullptr, [&intact](const engine::CellResult &r) {
            intact += encodeRecord(r);
        });
        std::fclose(f);
    }
    const std::string tmp = path_ + ".tmp";
    bool ok = false;
    if (std::FILE *f = std::fopen(tmp.c_str(), "wb")) {
        try {
            appendWithRetry(f, tmp, "cache.rewrite", intact);
            ok = !fsyncPerStore_ || ::fsync(::fileno(f)) == 0;
        } catch (const std::runtime_error &) {
            // Retries exhausted: warned about below, original kept.
        }
        ok = std::fclose(f) == 0 && ok;
    }
    // svard-lint: allow(raw-io-fault-points) atomic publish of the bytes the cache.rewrite point guards
    if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        warn("sweep cache \"" + path_ +
             "\": cannot rewrite it without the corrupt bytes; the "
             "next open skips them again");
        return false;
    }
    return true;
}

SweepCache::~SweepCache()
{
    if (file_)
        std::fclose(file_);
}

SweepCache::Index::Index(size_t records)
{
    reserve(records);
}

size_t
SweepCache::Index::probe(uint64_t seed, uint64_t fingerprint,
                         bool *seed_cached) const
{
    // Load stays at most 3/4, so a free slot always ends the run.
    const size_t mask = slots_.size() - 1;
    uint64_t state = seed;
    for (size_t i = splitmix64(state) & mask;; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (!s.used || (s.seed == seed && s.fingerprint == fingerprint))
            return i;
        if (seed_cached && s.seed == seed)
            *seed_cached = true;
    }
}

void
SweepCache::Index::put(const engine::CellResult &row)
{
    if ((size_ + 1) * 4 > slots_.size() * 3)
        reserve(size_ + 1);
    Slot &s = slots_[probe(row.seed, row.fingerprint, nullptr)];
    if (!s.used) {
        s.seed = row.seed;
        s.fingerprint = row.fingerprint;
        s.used = true;
        ++size_;
    }
    s.outcome = {row.metrics, row.normalized, row.drift};
}

const SweepCache::Outcome *
SweepCache::Index::find(uint64_t seed, uint64_t fingerprint,
                        bool *seed_cached) const
{
    const Slot &s = slots_[probe(seed, fingerprint, seed_cached)];
    return s.used ? &s.outcome : nullptr;
}

void
SweepCache::Index::reserve(size_t records)
{
    size_t cap = 16;
    while (cap * 3 < records * 4)
        cap <<= 1;
    if (cap <= slots_.size())
        return;
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(cap));
    for (const Slot &o : old)
        if (o.used)
            slots_[probe(o.seed, o.fingerprint, nullptr)] = o;
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
    bool seed_cached = false;
    const Outcome *hit = index_.find(seed, fingerprint, &seed_cached);
    if (!hit) {
        obs::add(misses);
        // Same cell seed cached under a different fingerprint: the
        // spec's resolved inputs changed and invalidated this record.
        if (seed_cached)
            obs::add(invalidated);
        return false;
    }
    obs::add(hits);
    out->metrics = hit->metrics;
    out->normalized = hit->normalized;
    out->drift = hit->drift;
    return true;
}

void
SweepCache::store(const engine::CellResult &row)
{
    static const obs::MetricId stores = obs::counter("cache.stores");
    obs::add(stores);
    MutexLock lock(mu_);
    if (index_.find(row.seed, row.fingerprint))
        return; // already persisted
    // appendRecord retries transient failures and flushes per record:
    // once it returns, a kill cannot lose the cell to stdio
    // buffering. The sim work per cell dwarfs one small flushed
    // write. The key is indexed only once its record is in the file.
    appendRecord(file_, row, path_);
    index_.put(row);
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
    return index_.size();
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
