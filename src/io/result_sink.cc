#include "io/result_sink.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include <sys/stat.h>

#include "common/log.h"
#include "common/rng.h"
#include "io/retry.h"

namespace svard::io {

namespace {

/** Record framing magic ("SVC4" on disk). v2 fixed the on-disk
 *  convention to little-endian regardless of host (v1 records were
 *  host-endian); v3 added the geometry label to every record so
 *  multi-geometry sweeps are attributable; v4 added the temporal
 *  drift axis (model/policy/epochs/guardband identity plus
 *  escape/recalibration metrics). Older records are treated as a
 *  torn tail on load; whole older cache files are loudly rejected by
 *  SweepCache instead. */
constexpr uint32_t kRecordMagic = 0x34435653u;
/** Defensive cap: no serialized cell is remotely this large. */
constexpr uint32_t kMaxPayload = 1u << 20;
/** CsvSink appends its pending rows once they reach this many bytes
 *  (~300 rows of a Fig. 12 grid). */
constexpr size_t kCsvBatchBytes = 64 * 1024;

std::FILE *
openOrDie(const std::string &path, const char *mode)
{
    std::FILE *f = std::fopen(path.c_str(), mode);
    if (!f)
        SVARD_FATAL("cannot open \"" + path + "\" (mode " + mode + ")");
    return f;
}

/** I/O failures (disk full, revoked quota) must never leave a
 *  silently truncated result table behind a zero exit code. */
[[noreturn]] void
throwWriteError(const std::string &path)
{
    throw std::runtime_error("write failed on \"" + path + "\"");
}

void
checkFlush(std::FILE *f, const std::string &path)
{
    if (std::fflush(f) != 0)
        throwWriteError(path);
}

/** CSV fields are ','-separated, and '|' and '=' stay reserved (the
 *  params column's separators); reject rows that would be
 *  unparseable rather than emit a corrupt file. Throws
 *  (not aborts): on a worker/writer thread this must surface through
 *  the engine's error latch like any other sink failure. */
void
checkFieldClean(const std::string &s)
{
    // A plain loop: find_first_of calls memchr once per character.
    for (const char c : s)
        if (c == ',' || c == '|' || c == '=' || c == '\n' || c == '"')
            throw std::runtime_error(
                "result field contains a separator: \"" + s + "\"");
}

uint64_t
payloadChecksum(std::string_view payload)
{
    return HashStream(0xC0DEC0DEC0DEC0DEULL).mix(payload).value();
}

// --- binary payload primitives --------------------------------------
// The on-disk convention is explicitly little-endian: big-endian
// hosts byte-swap on both paths, so caches and checkpoints can move
// between machines. On little-endian hosts the swaps compile away.

constexpr bool kHostBig = std::endian::native == std::endian::big;

inline uint32_t
toLe32(uint32_t v)
{
    return kHostBig ? __builtin_bswap32(v) : v;
}

inline uint64_t
toLe64(uint64_t v)
{
    return kHostBig ? __builtin_bswap64(v) : v;
}

void
putU32(std::string &b, uint32_t v)
{
    v = toLe32(v);
    b.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putU64(std::string &b, uint64_t v)
{
    v = toLe64(v);
    b.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putF64(std::string &b, double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(b, bits);
}

void
putStr(std::string &b, const std::string &s)
{
    putU32(b, static_cast<uint32_t>(s.size()));
    b.append(s);
}

/** Bounds-checked sequential reader over a payload buffer. */
struct Cursor
{
    std::string_view buf;
    size_t pos = 0;

    size_t remaining() const { return buf.size() - pos; }

    bool
    getU32(uint32_t *v)
    {
        if (pos + sizeof(*v) > buf.size())
            return false;
        std::memcpy(v, buf.data() + pos, sizeof(*v));
        *v = toLe32(*v); // on-disk little-endian -> host
        pos += sizeof(*v);
        return true;
    }

    bool
    getU64(uint64_t *v)
    {
        if (pos + sizeof(*v) > buf.size())
            return false;
        std::memcpy(v, buf.data() + pos, sizeof(*v));
        *v = toLe64(*v); // on-disk little-endian -> host
        pos += sizeof(*v);
        return true;
    }

    bool
    getF64(double *v)
    {
        uint64_t bits = 0;
        if (!getU64(&bits))
            return false;
        std::memcpy(v, &bits, sizeof(*v));
        return true;
    }

    bool
    getStr(std::string *s)
    {
        uint32_t len = 0;
        if (!getU32(&len) || len > remaining())
            return false;
        s->assign(buf.data() + pos, len);
        pos += len;
        return true;
    }
};

std::runtime_error
badField(const std::string &path, const std::string &field,
         const std::string &text)
{
    return std::runtime_error("malformed " + field + " in \"" + path +
                              "\": \"" + text + "\"");
}

/** A numeric CSV field, or a runtime_error naming the file and field:
 *  empty text, trailing garbage and out-of-range values never load
 *  silently as 0. */
double
parseDouble(const std::string &s, const std::string &path,
            const std::string &field)
{
    const char *begin = s.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    // A subnormal result also reports ERANGE, and the writer can emit
    // one; only overflow and underflow all the way to 0 are rejected.
    const bool out_of_range =
        errno == ERANGE && (std::isinf(v) || v == 0.0);
    if (end == begin || *end != '\0' || out_of_range)
        throw badField(path, field, s);
    return v;
}

uint64_t
parseU64(const std::string &s, const std::string &path,
         const std::string &field, uint64_t max = UINT64_MAX)
{
    // strtoull skips blanks and wraps a leading '-'; the writer always
    // starts the field with a digit.
    if (s.empty() || s[0] < '0' || s[0] > '9')
        throw badField(path, field, s);
    char *end = nullptr;
    errno = 0;
    const uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        throw badField(path, field, s);
    return v;
}

std::vector<std::string>
splitOn(const std::string &line, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (;;) {
        const size_t at = line.find(sep, start);
        if (at == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, at - start));
        start = at + 1;
    }
}

/** 17 significant digits round-trip IEEE-754 doubles exactly, so
 *  text written here parses back to the same bits (the property the
 *  resume byte-identity guarantee rests on). `general` at precision
 *  17 is defined to match printf's "%.17g". */
void
appendDouble(std::string &out, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

void
appendUint(std::string &out, uint64_t v)
{
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** One CSV field (checked for separators) and the comma after it. */
void
appendField(std::string &out, const std::string &s)
{
    checkFieldClean(s);
    out += s;
    out.push_back(',');
}

/** One CsvSink row, newline included, appended to `out`. Throws on a
 *  field holding a separator, possibly after a partial append. */
void
appendCsvRow(std::string &out, const engine::CellResult &r)
{
    const uint32_t coords[] = {r.cell.geom,     r.cell.defense,
                               r.cell.threshold, r.cell.provider,
                               r.cell.mix,      r.cell.drift};
    for (size_t i = 0; i < 6; ++i) {
        appendUint(out, coords[i]);
        out.push_back(i < 5 ? '.' : ',');
    }
    const auto num = [&](double v) {
        appendDouble(out, v);
        out.push_back(',');
    };
    const auto u64 = [&](uint64_t v) {
        appendUint(out, v);
        out.push_back(',');
    };
    u64(r.seed);
    u64(r.fingerprint);
    appendField(out, r.geometry);
    appendField(out, r.defense);
    num(r.threshold);
    appendField(out, r.provider);
    appendField(out, r.mix);
    appendField(out, r.driftModel);
    appendField(out, r.driftPolicy);
    u64(r.driftEpochs);
    num(r.guardband);
    num(r.metrics.weightedSpeedup);
    num(r.metrics.harmonicSpeedup);
    num(r.metrics.maxSlowdown);
    num(r.normalized.weightedSpeedup);
    num(r.normalized.harmonicSpeedup);
    num(r.normalized.maxSlowdown);
    u64(r.drift.escapes);
    num(r.drift.escapeRate);
    u64(r.drift.recalibrations);
    num(r.drift.recalCost);
    // The retired params column stays in the header, always empty.
    out.push_back('\n');
}

} // anonymous namespace

std::string
formatDouble(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

// ------------------------------------------------------------------
// CsvSink
// ------------------------------------------------------------------

const char *
CsvSink::header()
{
    return "coords,seed,fingerprint,geometry,defense,threshold,"
           "provider,mix,drift_model,drift_policy,drift_epochs,"
           "guardband,weighted_speedup,harmonic_speedup,"
           "max_slowdown,norm_weighted_speedup,norm_harmonic_speedup,"
           "norm_max_slowdown,escapes,escape_rate,recalibrations,"
           "recal_cost,params";
}

CsvSink::CsvSink(const std::string &path)
    : path_(path), file_(openOrDie(path, "w"))
{
    if (std::fprintf(file_, "%s\n", header()) < 0)
        throwWriteError(path_);
}

CsvSink::~CsvSink()
{
    // Destructors must not throw: a failed final append loses the
    // pending rows loudly, never silently.
    try {
        appendPending();
    } catch (const std::exception &e) {
        warn("dropping " +
             std::to_string(std::count(pending_.begin(),
                                       pending_.end(), '\n')) +
             " unwritten CSV rows: " + e.what());
    }
    if (file_)
        std::fclose(file_);
}

void
CsvSink::write(const engine::CellResult &r)
{
    // A failed write leaves pending_ as it found it, so a caller's
    // retry of the same row cannot duplicate it.
    const size_t before = pending_.size();
    try {
        appendCsvRow(pending_, r);
        if (pending_.size() >= kCsvBatchBytes)
            appendPending();
    } catch (...) {
        pending_.resize(before);
        throw;
    }
}

void
CsvSink::appendPending()
{
    if (pending_.empty())
        return;
    // One retryable transaction per batch of whole rows: a failed
    // attempt is truncated back to the previous batch's end, so only
    // a kill mid-append (torn) can leave part of a row in the file.
    appendWithRetry(file_, path_, "csv.write", pending_);
    pending_.clear();
}

void
CsvSink::flush()
{
    appendPending();
    checkFlush(file_, path_);
}

std::vector<engine::CellResult>
readCsvResults(const std::string &path)
{
    std::ifstream in(path);
    if (!in.good())
        throw std::runtime_error("cannot read CSV \"" + path + "\"");
    static const std::vector<std::string> columns =
        splitOn(CsvSink::header(), ',');
    std::vector<engine::CellResult> out;
    std::string s;
    bool first = true;
    // Unbounded line length: the reader must accept any row the
    // writer emitted (labels make rows arbitrarily long).
    while (std::getline(in, s)) {
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
            s.pop_back();
        if (first) {
            first = false;
            if (s != CsvSink::header())
                throw std::runtime_error(
                    "unexpected CSV header in \"" + path + "\"");
            continue;
        }
        if (s.empty())
            continue;
        const auto fields = splitOn(s, ',');
        if (fields.size() != 23)
            throw std::runtime_error("malformed CSV row in \"" + path +
                                     "\": " + s);
        engine::CellResult r;
        const auto coords = splitOn(fields[0], '.');
        if (coords.size() != 6)
            throw badField(path, columns[0], fields[0]);
        uint32_t *const coord[] = {&r.cell.geom,     &r.cell.defense,
                                   &r.cell.threshold, &r.cell.provider,
                                   &r.cell.mix,      &r.cell.drift};
        for (size_t i = 0; i < 6; ++i)
            *coord[i] = static_cast<uint32_t>(
                parseU64(coords[i], path, columns[0], UINT32_MAX));
        const auto num = [&](size_t i) {
            return parseDouble(fields[i], path, columns[i]);
        };
        const auto u64 = [&](size_t i, uint64_t max = UINT64_MAX) {
            return parseU64(fields[i], path, columns[i], max);
        };
        r.seed = u64(1);
        r.fingerprint = u64(2);
        r.geometry = fields[3];
        r.defense = fields[4];
        r.threshold = num(5);
        r.provider = fields[6];
        r.mix = fields[7];
        r.driftModel = fields[8];
        r.driftPolicy = fields[9];
        r.driftEpochs = static_cast<uint32_t>(u64(10, UINT32_MAX));
        r.guardband = num(11);
        r.metrics.weightedSpeedup = num(12);
        r.metrics.harmonicSpeedup = num(13);
        r.metrics.maxSlowdown = num(14);
        r.normalized.weightedSpeedup = num(15);
        r.normalized.harmonicSpeedup = num(16);
        r.normalized.maxSlowdown = num(17);
        r.drift.escapes = u64(18);
        r.drift.escapeRate = num(19);
        r.drift.recalibrations = u64(20);
        r.drift.recalCost = num(21);
        if (!fields[22].empty()) // the retired params column
            throw badField(path, columns[22], fields[22]);
        out.push_back(std::move(r));
    }
    return out;
}

// ------------------------------------------------------------------
// Binary records
// ------------------------------------------------------------------

namespace {

/** Serialize one CellResult into the SVC4 record payload. */
std::string
encodeCellResult(const engine::CellResult &r)
{
    std::string b;
    putU32(b, r.cell.geom);
    putU32(b, r.cell.defense);
    putU32(b, r.cell.threshold);
    putU32(b, r.cell.provider);
    putU32(b, r.cell.mix);
    putU64(b, r.seed);
    putU64(b, r.fingerprint);
    putStr(b, r.geometry);
    putStr(b, r.defense);
    putF64(b, r.threshold);
    putStr(b, r.provider);
    putStr(b, r.mix);
    putU32(b, r.cell.drift);
    putStr(b, r.driftModel);
    putStr(b, r.driftPolicy);
    putU32(b, r.driftEpochs);
    putF64(b, r.guardband);
    putU64(b, r.drift.escapes);
    putU64(b, r.drift.recalibrations);
    putF64(b, r.drift.escapeRate);
    putF64(b, r.drift.recalCost);
    putU32(b, 0); // the retired params count
    putF64(b, r.metrics.weightedSpeedup);
    putF64(b, r.metrics.harmonicSpeedup);
    putF64(b, r.metrics.maxSlowdown);
    putF64(b, r.normalized.weightedSpeedup);
    putF64(b, r.normalized.harmonicSpeedup);
    putF64(b, r.normalized.maxSlowdown);
    return b;
}

/** Inverse of encodeCellResult, decoding in place into `*r` (a
 *  reused CellResult keeps its string capacity); false on a
 *  malformed payload, with `*r` then partly overwritten. */
bool
decodeCellResult(std::string_view payload, engine::CellResult *r)
{
    Cursor c{payload};
    uint32_t nparams = 0;
    if (!c.getU32(&r->cell.geom) || !c.getU32(&r->cell.defense) ||
        !c.getU32(&r->cell.threshold) || !c.getU32(&r->cell.provider) ||
        !c.getU32(&r->cell.mix) || !c.getU64(&r->seed) ||
        !c.getU64(&r->fingerprint) || !c.getStr(&r->geometry) ||
        !c.getStr(&r->defense) ||
        !c.getF64(&r->threshold) || !c.getStr(&r->provider) ||
        !c.getStr(&r->mix) || !c.getU32(&r->cell.drift) ||
        !c.getStr(&r->driftModel) || !c.getStr(&r->driftPolicy) ||
        !c.getU32(&r->driftEpochs) || !c.getF64(&r->guardband) ||
        !c.getU64(&r->drift.escapes) ||
        !c.getU64(&r->drift.recalibrations) ||
        !c.getF64(&r->drift.escapeRate) ||
        !c.getF64(&r->drift.recalCost) || !c.getU32(&nparams) ||
        nparams != 0) // the retired params count
        return false;
    return c.getF64(&r->metrics.weightedSpeedup) &&
           c.getF64(&r->metrics.harmonicSpeedup) &&
           c.getF64(&r->metrics.maxSlowdown) &&
           c.getF64(&r->normalized.weightedSpeedup) &&
           c.getF64(&r->normalized.harmonicSpeedup) &&
           c.getF64(&r->normalized.maxSlowdown) &&
           c.pos == payload.size();
}

} // anonymous namespace

std::string
encodeRecord(const engine::CellResult &r)
{
    const std::string payload = encodeCellResult(r);
    std::string frame;
    putU32(frame, kRecordMagic);
    putU32(frame, static_cast<uint32_t>(payload.size()));
    putU64(frame, r.seed);
    putU64(frame, r.fingerprint);
    frame += payload;
    putU64(frame, payloadChecksum(payload));
    return frame;
}

void
appendRecord(std::FILE *f, const engine::CellResult &r,
             const std::string &path)
{
    // One write transaction per record: a kill can truncate the tail
    // record but never interleave two records, and the retry's
    // truncate-back keeps failed attempts out of the file.
    appendWithRetry(f, path, "cache.store", encodeRecord(r));
}

void
forEachRecord(std::FILE *f, RecordReadStats *stats,
              const std::function<void(const engine::CellResult &)> &fn)
{
    // Slurp the rest of the stream: resync needs random access to
    // scan forward for a record magic, and record files are bounded
    // by sweep size (a few MB), not trace size. Reserving the bytes
    // left in the file reads it without regrowing the buffer.
    std::string buf;
    struct stat file{};
    const long at = std::ftell(f);
    if (at >= 0 && ::fstat(::fileno(f), &file) == 0 && file.st_size > at)
        buf.reserve(static_cast<size_t>(file.st_size - at));
    char chunk[1 << 16];
    for (size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;)
        buf.append(chunk, n);

    static const char magicBytes[4] = {'S', 'V', 'C', '4'};
    constexpr size_t kHeader = 24, kChecksum = 8;
    engine::CellResult r; // decoded into in place, record by record
    RecordReadStats st;
    size_t pos = 0;
    while (pos + kHeader <= buf.size()) {
        uint32_t magic = 0, size = 0;
        uint64_t key = 0, fingerprint = 0;
        std::memcpy(&magic, buf.data() + pos, 4);
        std::memcpy(&size, buf.data() + pos + 4, 4);
        std::memcpy(&key, buf.data() + pos + 8, 8);
        std::memcpy(&fingerprint, buf.data() + pos + 16, 8);
        magic = toLe32(magic);
        size = toLe32(size);
        key = toLe64(key);
        fingerprint = toLe64(fingerprint);
        bool ok = magic == kRecordMagic && size <= kMaxPayload &&
                  pos + kHeader + size + kChecksum <= buf.size();
        if (ok) {
            const std::string_view payload(buf.data() + pos + kHeader,
                                           size);
            uint64_t checksum = 0;
            std::memcpy(&checksum, buf.data() + pos + kHeader + size,
                        8);
            ok = toLe64(checksum) == payloadChecksum(payload) &&
                 decodeCellResult(payload, &r) && r.seed == key &&
                 r.fingerprint == fingerprint;
        }
        if (ok) {
            fn(r);
            pos += kHeader + size + kChecksum;
            st.validBytes = pos;
            continue;
        }
        // Corrupt at pos: scan for the next record magic and resume
        // there. No further magic means this is the torn tail — stop,
        // leaving validBytes at the last intact record for the
        // caller's truncation.
        const size_t next =
            buf.find(magicBytes, pos + 1, sizeof(magicBytes));
        if (next == std::string::npos)
            break;
        st.droppedBytes += next - pos;
        st.resyncs++;
        pos = next;
    }
    if (stats)
        *stats = st;
}

std::vector<engine::CellResult>
readRecords(std::FILE *f, RecordReadStats *stats)
{
    std::vector<engine::CellResult> out;
    forEachRecord(f, stats,
                  [&](const engine::CellResult &r) { out.push_back(r); });
    return out;
}

void
checkSinkPath(const std::string &path)
{
    auto ends_with = [&](const char *suffix) {
        const size_t n = std::strlen(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    if (ends_with(".jsonl") || ends_with(".bin") || ends_with(".svc"))
        throw std::invalid_argument(
            "\"" + path +
            "\": the JSONL and binary result formats are retired; "
            "write .csv, and checkpoint with --cache=PATH");
}

std::unique_ptr<ResultSink>
makeSinkForPath(const std::string &path)
{
    checkSinkPath(path);
    return std::make_unique<CsvSink>(path);
}

} // namespace svard::io
