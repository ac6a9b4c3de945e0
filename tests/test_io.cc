/**
 * @file
 * Tests for the streaming result-sink subsystem: exact CSV and
 * checkpoint-record round-trips, the AsyncSink decorator, and the
 * per-cell sweep cache — including the headline guarantee that a
 * sweep killed mid-run and resumed from its checkpoint produces a
 * byte-identical result table to an uninterrupted run at any thread
 * count, and that a fully cached re-run executes zero cells.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/log.h"
#include "common/rng.h"
#include "engine/runner.h"
#include "fault_inject/fault_inject.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/metrics.h"

namespace svard {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "svard_io_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Every intact SVC4 record in the file at `path`. */
std::vector<engine::CellResult>
readRecordFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return {};
    auto rows = io::readRecords(f);
    std::fclose(f);
    return rows;
}

/** A fresh record file at `path` holding `rows`, in order. */
void
writeRecordFile(const std::string &path,
                const std::vector<engine::CellResult> &rows)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    for (const auto &r : rows)
        io::appendRecord(f, r, path);
    std::fclose(f);
}

/** Synthetic row with awkward doubles (round-trip must be exact). */
engine::CellResult
makeRow(uint32_t i)
{
    engine::CellResult r;
    r.cell = {i, i + 1, i + 2, i + 3, i + 4, i + 5};
    r.seed = hashSeed({i, 0xABCULL});
    r.fingerprint = hashSeed({i, 0xDEFULL});
    r.geometry = i % 2 ? "hbm2-pc-16ch" : "ddr4-table4";
    r.defense = "blockhammer";
    r.threshold = 4096.0 / (i + 3);
    r.provider = "Svard-S0";
    r.mix = "mix-" + std::to_string(i);
    r.driftModel = "aging:16";
    r.driftPolicy = "periodic:8";
    r.driftEpochs = 12 + i;
    r.guardband = 0.1 / (i + 3);
    r.metrics.weightedSpeedup = 1.0 / 3.0 + i;
    r.metrics.harmonicSpeedup = 0.1 * (i + 1);
    r.metrics.maxSlowdown = std::sqrt(2.0) * (i + 1);
    r.normalized.weightedSpeedup = 0.98765432101234567 / (i + 1);
    r.normalized.harmonicSpeedup = 1e300 / std::pow(10.0, i);
    r.normalized.maxSlowdown = -0.0;
    r.drift.escapes = UINT64_MAX - i;
    r.drift.recalibrations = 0xFFFFFFFFULL + i;
    r.drift.escapeRate = 2.5e-310 * (i + 1); // subnormal
    r.drift.recalCost = 1.0 / 3.0 / (i + 1);
    return r;
}

void
expectRowsEqual(const engine::CellResult &a,
                const engine::CellResult &b)
{
    EXPECT_EQ(a.cell.geom, b.cell.geom);
    EXPECT_EQ(a.cell.defense, b.cell.defense);
    EXPECT_EQ(a.cell.threshold, b.cell.threshold);
    EXPECT_EQ(a.cell.provider, b.cell.provider);
    EXPECT_EQ(a.cell.mix, b.cell.mix);
    EXPECT_EQ(a.cell.drift, b.cell.drift);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.geometry, b.geometry);
    EXPECT_EQ(a.defense, b.defense);
    EXPECT_EQ(a.threshold, b.threshold); // exact: == on doubles
    EXPECT_EQ(a.provider, b.provider);
    EXPECT_EQ(a.mix, b.mix);
    EXPECT_EQ(a.driftModel, b.driftModel);
    EXPECT_EQ(a.driftPolicy, b.driftPolicy);
    EXPECT_EQ(a.driftEpochs, b.driftEpochs);
    EXPECT_EQ(a.guardband, b.guardband);
    EXPECT_EQ(a.metrics.weightedSpeedup, b.metrics.weightedSpeedup);
    EXPECT_EQ(a.metrics.harmonicSpeedup, b.metrics.harmonicSpeedup);
    EXPECT_EQ(a.metrics.maxSlowdown, b.metrics.maxSlowdown);
    EXPECT_EQ(a.normalized.weightedSpeedup,
              b.normalized.weightedSpeedup);
    EXPECT_EQ(a.normalized.harmonicSpeedup,
              b.normalized.harmonicSpeedup);
    EXPECT_EQ(a.normalized.maxSlowdown, b.normalized.maxSlowdown);
    EXPECT_EQ(a.drift.escapes, b.drift.escapes);
    EXPECT_EQ(a.drift.recalibrations, b.drift.recalibrations);
    EXPECT_EQ(a.drift.escapeRate, b.drift.escapeRate);
    EXPECT_EQ(a.drift.recalCost, b.drift.recalCost);
}

/** In-memory sink for observing emission order and content. */
class CollectSink : public io::ResultSink
{
  public:
    void
    write(const engine::CellResult &row) override
    {
        rows.push_back(row);
    }

    std::vector<engine::CellResult> rows;
};

// -----------------------------------------------------------------
// Sink round-trips
// -----------------------------------------------------------------

TEST(ResultSink, CsvAndSweepCacheRoundTripIdenticalRows)
{
    std::vector<engine::CellResult> rows;
    for (uint32_t i = 0; i < 6; ++i)
        rows.push_back(makeRow(i));

    const std::string csv = tmpPath("roundtrip.csv");
    const std::string svc = tmpPath("roundtrip.svc");
    std::remove(svc.c_str());
    {
        io::CsvSink cs(csv);
        io::SweepCache cache(svc);
        for (const auto &r : rows) {
            cs.write(r);
            cache.store(r);
        }
        cs.flush();
    }

    // The SVC4 codec, field by field: the cache's file decodes back to
    // the stored rows, identity fields included.
    const auto from_svc = readRecordFile(svc);
    const auto from_csv = io::readCsvResults(csv);
    ASSERT_EQ(from_svc.size(), rows.size());
    ASSERT_EQ(from_csv.size(), rows.size());
    // Reopening reloads every record through the same decoder; a hit
    // restores the outcome fields.
    const io::SweepCache reopened(svc);
    ASSERT_EQ(reopened.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        expectRowsEqual(rows[i], from_svc[i]);
        expectRowsEqual(rows[i], from_csv[i]);
        // Both formats decode to the same rows as each other, too.
        expectRowsEqual(from_csv[i], from_svc[i]);
        engine::CellResult restored = rows[i];
        restored.metrics = {};
        restored.normalized = {};
        restored.drift = {};
        ASSERT_TRUE(reopened.lookup(rows[i].seed, rows[i].fingerprint,
                                    &restored));
        expectRowsEqual(rows[i], restored);
    }
}

TEST(ResultSink, SmallestRecordIsMinRecordBytes)
{
    // SweepCache sizes its index from file length / kMinRecordBytes,
    // so no record may be smaller: pin the size of the emptiest one.
    engine::CellResult r;
    r.driftModel.clear();
    r.driftPolicy.clear();
    const std::string path = tmpPath("minrecord.svc");
    writeRecordFile(path, {r});
    EXPECT_EQ(std::filesystem::file_size(path), io::kMinRecordBytes);
    const auto rows = readRecordFile(path);
    ASSERT_EQ(rows.size(), 1u);
    expectRowsEqual(r, rows[0]);
}

TEST(ResultSink, CsvReaderRejectsMalformedNumericFields)
{
    // One good row from the writer, then corruptions of it: each must
    // throw naming the file and the field instead of loading as 0.
    const std::string good = tmpPath("good.csv");
    {
        io::CsvSink cs(good);
        cs.write(makeRow(0));
        cs.flush();
    }
    ASSERT_EQ(io::readCsvResults(good).size(), 1u);
    std::istringstream lines(slurp(good));
    std::string header, row;
    std::getline(lines, header);
    std::getline(lines, row);
    std::vector<std::string> fields;
    std::istringstream cols(row);
    for (std::string f; std::getline(cols, f, ',');)
        fields.push_back(f);
    // getline drops the empty params column after the last ','.
    ASSERT_EQ(row.back(), ',');
    fields.emplace_back();
    ASSERT_EQ(fields.size(), 23u);

    struct Case
    {
        size_t column;
        const char *text;
        const char *field;
    };
    const Case cases[] = {
        {5, "abc", "threshold"},                    // not a number
        {1, "", "seed"},                            // empty
        {2, "18446744073709551616", "fingerprint"}, // 2^64: too big
        {0, "0.0.0.0.0.0x", "coords"},              // trailing garbage
        {0, "0.0.0.0.0.-1", "coords"},              // negative
        {0, "0.0.0.0.0.4294967296", "coords"},      // 2^32: too big
        {0, " 1.2.3.4.5.6", "coords"},              // leading blank
        {0, "1.2.3.4.5", "coords"},                 // five parts
        {22, "blacklist_fraction=0.5", "params"},   // retired column
    };
    for (const Case &c : cases) {
        std::vector<std::string> bad = fields;
        bad[c.column] = c.text;
        std::string line;
        for (size_t i = 0; i < bad.size(); ++i)
            line += (i ? "," : "") + bad[i];
        const std::string path =
            tmpPath("bad_col" + std::to_string(c.column) + ".csv");
        {
            std::ofstream out(path);
            out << header << "\n" << line << "\n";
        }
        try {
            io::readCsvResults(path);
            ADD_FAILURE() << c.field << " \"" << c.text << "\" loaded";
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            const std::string want = std::string("malformed ") +
                                     c.field + " in \"" + path + "\"";
            EXPECT_NE(msg.find(want), std::string::npos) << msg;
        }
        std::remove(path.c_str());
    }
    std::remove(good.c_str());
}

TEST(ResultSink, RecordReaderDropsTruncatedTailRecord)
{
    const std::string bin = tmpPath("truncated.svc");
    writeRecordFile(bin, {makeRow(0), makeRow(1)});
    // Simulate a kill mid-append: a partial record after intact ones.
    {
        std::FILE *f = std::fopen(bin.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char partial[] = {0x53, 0x56, 0x43, 0x33, 0x7F};
        std::fwrite(partial, 1, sizeof(partial), f);
        std::fclose(f);
    }
    const auto rows = readRecordFile(bin);
    ASSERT_EQ(rows.size(), 2u);
    expectRowsEqual(rows[0], makeRow(0));
    expectRowsEqual(rows[1], makeRow(1));
}

TEST(ResultSink, RecordReaderDropsANonZeroParamsCount)
{
    // The params count is a retired field, always written as 0: a
    // record whose checksum matches but whose count is not 0 is
    // dropped.
    const std::string path = tmpPath("nparams.svc");
    writeRecordFile(path, {makeRow(0)});
    const size_t second = std::filesystem::file_size(path);
    writeRecordFile(path, {makeRow(0), makeRow(1)});
    std::string bytes = slurp(path);
    // The second frame ends with the count, six metric
    // doubles and the little-endian checksum of its payload, which
    // follows a 24-byte header.
    const size_t count_at = bytes.size() - 8 - 6 * 8 - 4;
    std::memset(bytes.data() + count_at, 0xFF, 4);
    const std::string_view payload(bytes.data() + second + 24,
                                   bytes.size() - 8 - second - 24);
    const uint64_t sum =
        HashStream(0xC0DEC0DEC0DEC0DEULL).mix(payload).value();
    for (size_t i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto rows = readRecordFile(path);
    ASSERT_EQ(rows.size(), 1u);
    expectRowsEqual(makeRow(0), rows[0]);
}

TEST(ResultSink, MakeSinkForPathWritesCsvAndRejectsRetiredFormats)
{
    const std::string csv = tmpPath("rows.csv");
    {
        auto sink = io::makeSinkForPath(csv);
        sink->write(makeRow(2));
    }
    const auto from_csv = io::readCsvResults(csv);
    ASSERT_EQ(from_csv.size(), 1u);
    expectRowsEqual(from_csv[0], makeRow(2));

    // The JSONL and binary result formats are retired: asking for
    // one is an error that names it and points at --cache, not a
    // silent CSV file under that name.
    for (const char *name : {"rows.jsonl", "rows.bin", "rows.svc"}) {
        const std::string path = tmpPath(name);
        std::remove(path.c_str());
        try {
            io::makeSinkForPath(path);
            ADD_FAILURE() << name << " made a sink";
        } catch (const std::invalid_argument &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("retired"), std::string::npos) << msg;
            EXPECT_NE(msg.find("--cache"), std::string::npos) << msg;
        }
        EXPECT_FALSE(std::filesystem::exists(path)) << name;
    }
}

TEST(ResultSink, FormatDoubleMatchesPrintf17g)
{
    const auto expectSame = [](double v) {
        char want[64];
        std::snprintf(want, sizeof(want), "%.17g", v);
        const std::string got = io::formatDouble(v);
        if (got != want) {
            uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            ADD_FAILURE() << "bits 0x" << std::hex << bits << ": \""
                          << got << "\" vs printf \"" << want << "\"";
            return false;
        }
        return true;
    };
    const double specials[] = {
        0.0, -0.0, HUGE_VAL, -HUGE_VAL, std::nan(""), -std::nan(""),
        DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), 1.0, 0.1, 1e-4,
        1e-5, 1e16, 1e17, 1e22, 123456789012345678.0, 1.0 / 3.0};
    for (double v : specials)
        expectSame(v);
    // Random bit patterns cover every exponent, both signs, NaN
    // payloads and subnormals; short decimals cover the trailing-zero
    // trimming and the fixed/exponent switch that patterns rarely hit.
    Rng rng(0xF0F7D0B1E5ULL);
    size_t failures = 0;
    for (int i = 0; i < 1000000 && failures < 10; ++i) {
        const uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        failures += !expectSame(v);
    }
    for (int i = 0; i < 100000 && failures < 10; ++i) {
        const double v = static_cast<double>(rng.below(2000000)) /
                         std::pow(10.0, rng.range(-20, 20));
        failures += !expectSame(v);
    }
    EXPECT_EQ(failures, 0u);
}

TEST(CsvBatching, DestroyedWithoutFlushKeepsHeaderAndEveryRow)
{
    // Enough rows for several 64 KiB batches plus a partial one.
    constexpr uint32_t kRows = 700;
    const std::string flushed = tmpPath("batch_flushed.csv");
    const std::string dropped = tmpPath("batch_dropped.csv");
    {
        io::CsvSink a(flushed);
        io::CsvSink b(dropped);
        for (uint32_t i = 0; i < kRows; ++i) {
            a.write(makeRow(i % 6));
            b.write(makeRow(i % 6));
        }
        a.flush();
        // b goes out of scope with its last rows still pending.
    }
    const std::string text = slurp(dropped);
    EXPECT_GT(text.size(), 3u * 64 * 1024);
    EXPECT_EQ(text, slurp(flushed));
    EXPECT_EQ(text.compare(0, std::strlen(io::CsvSink::header()),
                           io::CsvSink::header()),
              0);
    const auto rows = io::readCsvResults(dropped);
    ASSERT_EQ(rows.size(), kRows);
    for (uint32_t i = 0; i < kRows; ++i)
        expectRowsEqual(rows[i], makeRow(i % 6));
}

TEST(CsvBatching, RowWithASeparatorThrowsAndLeavesNoPartialRow)
{
    // The row is built into the pending batch field by field; a
    // rejected field must take the row's already-built prefix with it.
    const std::string path = tmpPath("separator.csv");
    {
        io::CsvSink sink(path);
        sink.write(makeRow(0));
        engine::CellResult bad = makeRow(1);
        bad.driftPolicy = "periodic,8";
        EXPECT_THROW(sink.write(bad), std::runtime_error);
        sink.write(makeRow(2));
        sink.flush();
    }
    const auto rows = io::readCsvResults(path);
    ASSERT_EQ(rows.size(), 2u);
    expectRowsEqual(rows[0], makeRow(0));
    expectRowsEqual(rows[1], makeRow(2));
}

TEST(CsvBatching, AsyncWrappedFileHoldsEveryRowOnceTheQueueDrains)
{
    // No flush(): the writer's drain flush alone must make each row
    // handed to AsyncSink visible in the file (tail -f).
    const std::string path = tmpPath("async_tail.csv");
    io::AsyncSink sink(std::make_unique<io::CsvSink>(path));
    uint32_t written = 0;
    for (uint32_t burst : {1u, 2u, 40u}) {
        for (uint32_t i = 0; i < burst; ++i)
            sink.write(makeRow(written++ % 6));
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (sink.queueDepth() != 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(sink.queueDepth(), 0u);
        const std::string text = slurp(path);
        size_t lines = 0;
        for (char c : text)
            lines += c == '\n';
        EXPECT_EQ(lines, 1u + written) << "after " << written << " rows";
        EXPECT_EQ(io::readCsvResults(path).size(), written);
    }
}

// -----------------------------------------------------------------
// AsyncSink
// -----------------------------------------------------------------

TEST(AsyncSink, DrainsEverythingInOrderThroughATinyQueue)
{
    /** Slow consumer: forces the bounded queue to fill and block. */
    class SlowCollect : public CollectSink
    {
      public:
        void
        write(const engine::CellResult &row) override
        {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            CollectSink::write(row);
        }
    };

    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    auto inner = std::make_unique<SlowCollect>();
    SlowCollect *collected = inner.get();
    io::AsyncSink sink(std::move(inner), /*queue_capacity=*/2);
    for (uint32_t i = 0; i < 100; ++i)
        sink.write(makeRow(i % 6));
    sink.flush();
    ASSERT_EQ(collected->rows.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(collected->rows[i].seed, makeRow(i % 6).seed) << i;
    const uint64_t high_water =
        obs::snapshot().value("io.sink_queue_high_water");
    EXPECT_GE(high_water, 1u);
    EXPECT_LE(high_water, 2u);
}

TEST(AsyncSink, WriterThreadErrorsSurfaceOnTheProducer)
{
    class FailingSink : public io::ResultSink
    {
      public:
        void
        write(const engine::CellResult &) override
        {
            throw std::runtime_error("disk full");
        }
    };

    io::AsyncSink sink(std::make_unique<FailingSink>(), 4);
    // The failure lands on the writer thread; it must reach the
    // producer at the next write() or flush() instead of vanishing.
    EXPECT_THROW(
        {
            for (int i = 0; i < 64; ++i)
                sink.write(makeRow(0));
            sink.flush();
        },
        std::runtime_error);
}

// -----------------------------------------------------------------
// Sweep cache + checkpoint/resume through the engine
// -----------------------------------------------------------------

engine::SweepSpec
ioSpec(unsigned threads)
{
    engine::SweepSpec spec;
    spec.config.cores = 4;
    spec.defenses = {"para", "hydra"};
    spec.thresholds = {128.0};
    spec.providers = {engine::ProviderSpec::uniform(),
                      engine::ProviderSpec::svard("S3")};
    spec.mixes = sim::workloadMixes(2, spec.config.cores);
    spec.requestsPerCore = 800;
    spec.threads = threads;
    return spec;
}

TEST(FormatPins, FingerprintsCsvAndRecordBytesStayPinned)
{
    // Cell fingerprints key every cache and checkpoint, and the CSV
    // and SVC4 bytes are what figures and resumes read back: a change
    // to any of them orphans existing files. Pinned from resolved cell
    // metadata alone (no simulation), so a refactor that moves these
    // bytes fails here before any figure digest notices.
    engine::ExperimentRunner runner(ioSpec(1));
    ASSERT_EQ(runner.prepareCells(), 8u);
    const auto &cells = runner.resolvedCells();
    const std::string csv = tmpPath("pins.csv");
    {
        io::CsvSink sink(csv);
        for (const auto &r : cells)
            sink.write(r);
        sink.flush();
    }
    const auto hashOf = [](const std::string &bytes) {
        return HashStream().mix(std::string_view(bytes)).value();
    };
    EXPECT_EQ(runner.specFingerprint(), 0x46578a9d69187fc2ULL);
    EXPECT_EQ(hashOf(slurp(csv)), 0x72128a1e22a379f1ULL);
    EXPECT_EQ(hashOf(io::encodeRecord(cells[5])), 0x435e498ac4911b1bULL);
    std::remove(csv.c_str());
}

TEST(SweepCache, KilledAndResumedSweepIsBitIdenticalToUninterrupted)
{
    const std::string ref_csv = tmpPath("resume_ref.csv");
    const std::string full_cache = tmpPath("resume_full.cache");
    const std::string killed_cache = tmpPath("resume_killed.cache");
    const std::string resumed_csv = tmpPath("resume_out.csv");
    const std::string hot_csv = tmpPath("resume_hot.csv");
    std::remove(full_cache.c_str());
    std::remove(killed_cache.c_str());

    // Reference: uninterrupted single-threaded run, streaming CSV.
    engine::SweepSpec ref_spec = ioSpec(1);
    ref_spec.sink = std::make_shared<io::CsvSink>(ref_csv);
    engine::ExperimentRunner ref(std::move(ref_spec));
    const auto ref_results = ref.run();
    ASSERT_EQ(ref_results.size(), 8u);
    EXPECT_EQ(ref.executedCells(), 8u);
    EXPECT_EQ(ref.cachedCells(), 0u);

    // Build a complete checkpoint with a sharded run.
    {
        engine::SweepSpec spec = ioSpec(2);
        spec.cache = std::make_shared<io::SweepCache>(full_cache);
        engine::ExperimentRunner runner(std::move(spec));
        runner.run();
        EXPECT_EQ(runner.executedCells(), 8u);
    }

    // Simulate a sweep killed after 3 cells: keep an arbitrary
    // 3-record prefix of the checkpoint (completion order) and a
    // torn partial record where the kill landed. The checkpoint also
    // holds baseline records (alone-IPC and no-defense runs, cached
    // since PR 3); the kill keeps only grid cells, so the resume
    // recomputes baselines but not the checkpointed cells.
    const auto everything = readRecordFile(full_cache);
    std::vector<engine::CellResult> all;
    for (const auto &r : everything)
        if (r.provider != "(alone)" && r.provider != "(baseline)")
            all.push_back(r);
    ASSERT_EQ(all.size(), 8u);
    ASSERT_GT(everything.size(), all.size()); // baselines cached too
    writeRecordFile(killed_cache, {all.begin(), all.begin() + 3});
    {
        std::FILE *f = std::fopen(killed_cache.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[] = {0x53, 0x56, 0x43, 0x33, 0x10,
                                      0x00, 0x00, 0x00, 0xAA};
        std::fwrite(torn, 1, sizeof(torn), f);
        std::fclose(f);
    }

    // Resume from the killed checkpoint at a different thread count:
    // only the 5 missing cells execute, and the streamed CSV is
    // byte-identical to the uninterrupted reference.
    engine::SweepSpec res_spec = ioSpec(4);
    res_spec.cache = std::make_shared<io::SweepCache>(killed_cache);
    res_spec.sink = std::make_shared<io::CsvSink>(resumed_csv);
    engine::ExperimentRunner resumed(std::move(res_spec));
    const auto res_results = resumed.run();
    EXPECT_EQ(resumed.executedCells(), 5u);
    EXPECT_EQ(resumed.cachedCells(), 3u);
    ASSERT_EQ(res_results.size(), ref_results.size());
    for (size_t i = 0; i < ref_results.size(); ++i)
        expectRowsEqual(ref_results[i], res_results[i]);
    EXPECT_EQ(slurp(ref_csv), slurp(resumed_csv));

    // The resume completed the checkpoint: a re-run is fully cached,
    // executes zero cells, and still reproduces the table bytes.
    engine::SweepSpec hot_spec = ioSpec(3);
    hot_spec.cache = std::make_shared<io::SweepCache>(killed_cache);
    hot_spec.sink = std::make_shared<io::CsvSink>(hot_csv);
    engine::ExperimentRunner hot(std::move(hot_spec));
    hot.run();
    EXPECT_EQ(hot.executedCells(), 0u);
    EXPECT_EQ(hot.cachedCells(), 8u);
    EXPECT_EQ(slurp(ref_csv), slurp(hot_csv));
}

TEST(SweepCache, BaselinesAreCachedSoPartialResumesSkipThem)
{
    const std::string cache_path = tmpPath("baseline.cache");
    std::remove(cache_path.c_str());
    auto cache = std::make_shared<io::SweepCache>(cache_path);

    engine::SweepSpec cold_spec = ioSpec(2);
    cold_spec.cache = cache;
    engine::ExperimentRunner cold(std::move(cold_spec));
    cold.run();
    EXPECT_EQ(cold.executedCells(), 8u);
    EXPECT_GT(cold.executedBaselines(), 0u);
    EXPECT_EQ(cold.cachedBaselines(), 0u);

    // Partial resume: one more threshold doubles the grid; only the
    // new cells execute and every baseline comes from the cache.
    engine::SweepSpec grown_spec = ioSpec(2);
    grown_spec.thresholds = {128.0, 256.0};
    grown_spec.cache = cache;
    engine::ExperimentRunner grown(std::move(grown_spec));
    const auto &rows = grown.run();
    EXPECT_EQ(grown.executedCells(), 8u); // the new threshold only
    EXPECT_EQ(grown.cachedCells(), 8u);
    EXPECT_EQ(grown.executedBaselines(), 0u);
    EXPECT_EQ(grown.cachedBaselines(), cold.executedBaselines());

    // Cached baselines must normalize the old cells to the exact
    // same values a from-scratch run of the grown grid produces.
    engine::SweepSpec fresh_spec = ioSpec(1);
    fresh_spec.thresholds = {128.0, 256.0};
    engine::ExperimentRunner fresh(std::move(fresh_spec));
    const auto &fresh_rows = fresh.run();
    ASSERT_EQ(rows.size(), fresh_rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        expectRowsEqual(rows[i], fresh_rows[i]);
}

TEST(SweepCache, HitsSkipExecutionAndSpecEditsInvalidateOnlyChanges)
{
    const std::string cache_path = tmpPath("edit.cache");
    std::remove(cache_path.c_str());
    auto cache = std::make_shared<io::SweepCache>(cache_path);

    auto base = [&] {
        engine::SweepSpec spec = ioSpec(2);
        spec.defenses = {"para"}; // 1 x 1 x 2 x 2 = 4 cells
        spec.cache = cache;
        return spec;
    };

    engine::ExperimentRunner cold(base());
    const auto cold_results = cold.run();
    EXPECT_EQ(cold.executedCells(), 4u);
    EXPECT_EQ(cold.cachedCells(), 0u);

    // Identical spec: pure cache hits, zero executions, same rows,
    // and the sink still receives the full table in order.
    engine::SweepSpec hot_spec = base();
    auto collect = std::make_shared<CollectSink>();
    hot_spec.sink = collect;
    engine::ExperimentRunner hot(std::move(hot_spec));
    const auto hot_results = hot.run();
    EXPECT_EQ(hot.executedCells(), 0u);
    EXPECT_EQ(hot.cachedCells(), 4u);
    ASSERT_EQ(hot_results.size(), cold_results.size());
    ASSERT_EQ(collect->rows.size(), cold_results.size());
    for (size_t i = 0; i < cold_results.size(); ++i) {
        expectRowsEqual(cold_results[i], hot_results[i]);
        expectRowsEqual(cold_results[i], collect->rows[i]);
    }

    // Appending a threshold re-executes only the new cells; the
    // original threshold's cells stay cached.
    engine::SweepSpec edited = base();
    edited.thresholds = {128.0, 256.0};
    engine::ExperimentRunner grown(std::move(edited));
    const auto grown_results = grown.run();
    EXPECT_EQ(grown.executedCells(), 4u);
    EXPECT_EQ(grown.cachedCells(), 4u);
    ASSERT_EQ(grown_results.size(), 8u);
    for (size_t i = 0; i < 4; ++i)
        expectRowsEqual(cold_results[i], grown_results[i]);

    // Editing the trace length changes every cell's inputs: nothing
    // may hit the stale cache entries.
    engine::SweepSpec longer = base();
    longer.requestsPerCore += 1;
    engine::ExperimentRunner changed(std::move(longer));
    changed.run();
    EXPECT_EQ(changed.executedCells(), 4u);
    EXPECT_EQ(changed.cachedCells(), 0u);
}

TEST(SweepCache, HitFillsOnlyTheOutcomeFields)
{
    const std::string path = tmpPath("outcome.cache");
    std::remove(path.c_str());
    const engine::CellResult stored = makeRow(3);
    io::SweepCache cache(path);
    cache.store(stored);

    // The caller's resolved identity fields survive a hit untouched.
    engine::CellResult caller = makeRow(7);
    caller.geometry = "caller-geometry";
    const engine::CellResult before = caller;
    ASSERT_TRUE(cache.lookup(stored.seed, stored.fingerprint, &caller));
    engine::CellResult want = before;
    want.metrics = stored.metrics;
    want.normalized = stored.normalized;
    want.drift = stored.drift;
    expectRowsEqual(want, caller);

    // A miss leaves the caller's row as it was.
    engine::CellResult missed = before;
    EXPECT_FALSE(cache.lookup(stored.seed + 1, stored.fingerprint,
                              &missed));
    expectRowsEqual(before, missed);
}

TEST(SweepCache, DuplicateKeysLastRecordWinsAfterReopen)
{
    const std::string path = tmpPath("dupes.cache");
    engine::CellResult first = makeRow(2);
    engine::CellResult last = makeRow(2);
    last.metrics.weightedSpeedup = 42.0;
    last.normalized.maxSlowdown = 0.5;
    last.drift.escapes = 9;
    writeRecordFile(path, {first, makeRow(4), last});

    io::SweepCache cache(path);
    EXPECT_EQ(cache.size(), 2u);
    engine::CellResult got = makeRow(2);
    ASSERT_TRUE(cache.lookup(last.seed, last.fingerprint, &got));
    expectRowsEqual(last, got);

    // Storing a cached key again neither rewrites nor re-appends it.
    const auto bytes = std::filesystem::file_size(path);
    cache.store(first);
    EXPECT_EQ(std::filesystem::file_size(path), bytes);
    ASSERT_TRUE(cache.lookup(last.seed, last.fingerprint, &got));
    expectRowsEqual(last, got);
}

TEST(SweepCache, MidFileDamageIsRewrittenAwayOnFirstOpen)
{
    const std::string path = tmpPath("healed.cache");
    engine::CellResult last = makeRow(1);
    last.metrics.weightedSpeedup = 7.0;
    const std::vector<engine::CellResult> rows = {
        makeRow(0), makeRow(1), makeRow(2), makeRow(3), last};
    writeRecordFile(path, rows);
    // Flip one payload byte of the third record.
    std::string bytes = slurp(path);
    const size_t third =
        io::encodeRecord(rows[0]).size() + io::encodeRecord(rows[1]).size();
    bytes[third + 40] ^= 1;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    auto lookups = [&](const io::SweepCache &cache) {
        std::vector<std::pair<bool, double>> got;
        for (const auto &r : rows) {
            engine::CellResult out = r;
            const bool hit = cache.lookup(r.seed, r.fingerprint, &out);
            got.push_back({hit, out.metrics.weightedSpeedup});
        }
        return got;
    };
    ::testing::internal::CaptureStderr();
    const auto first = lookups(io::SweepCache(path));
    const std::string warned = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warned.find("corrupt bytes mid-file (1 resync)"),
              std::string::npos)
        << warned;
    EXPECT_FALSE(first[2].first) << "the damaged record was restored";
    EXPECT_TRUE(first[1].first);
    EXPECT_EQ(first[1].second, 7.0) << "the last record no longer wins";

    // The file now holds the intact records' own bytes, in order.
    EXPECT_EQ(slurp(path), io::encodeRecord(rows[0]) +
                               io::encodeRecord(rows[1]) +
                               io::encodeRecord(rows[3]) +
                               io::encodeRecord(last));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    io::RecordReadStats stats;
    EXPECT_EQ(io::readRecords(f, &stats).size(), 4u);
    std::fclose(f);
    EXPECT_EQ(stats.resyncs, 0u);
    EXPECT_EQ(stats.droppedBytes, 0u);
    EXPECT_EQ(stats.validBytes, std::filesystem::file_size(path));

    // A second open skips nothing, warns nothing, finds the same.
    ::testing::internal::CaptureStderr();
    const auto second = lookups(io::SweepCache(path));
    const std::string quiet = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(quiet.find("corrupt"), std::string::npos) << quiet;
    EXPECT_EQ(second, first);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(SweepCache, FailedRewriteLeavesTheDamagedFileAsItWas)
{
    const std::string path = tmpPath("unhealed.cache");
    writeRecordFile(path, {makeRow(0), makeRow(1), makeRow(2)});
    std::string bytes = slurp(path);
    bytes[io::encodeRecord(makeRow(0)).size() + 40] ^= 1;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    faults::configure("cache.rewrite:eio@1+");
    ::testing::internal::CaptureStderr();
    size_t cached = 0;
    {
        const io::SweepCache cache(path);
        cached = cache.size();
    }
    const std::string warned = ::testing::internal::GetCapturedStderr();
    faults::reset();
    EXPECT_EQ(cached, 2u);
    EXPECT_NE(warned.find("cannot rewrite"), std::string::npos) << warned;
    EXPECT_EQ(slurp(path), bytes);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // Without the fault the next open heals it.
    { const io::SweepCache cache(path); }
    EXPECT_EQ(slurp(path), io::encodeRecord(makeRow(0)) +
                               io::encodeRecord(makeRow(2)));
    std::remove(path.c_str());
}

TEST(SweepCache, MissUnderAnotherFingerprintCountsAsInvalidated)
{
    const std::string path = tmpPath("invalidated.cache");
    std::remove(path.c_str());
    // Enough rows to grow the index past its initial capacity, so the
    // seed's probe run crosses rehashed slots.
    io::SweepCache cache(path);
    for (uint32_t i = 0; i < 100; ++i)
        cache.store(makeRow(i));
    ASSERT_EQ(cache.size(), 100u);

    obs::setMetricsEnabled(true);
    obs::resetMetrics();
    engine::CellResult out;
    const engine::CellResult row = makeRow(57);
    // Same seed, edited inputs: a miss that is an invalidation.
    EXPECT_FALSE(cache.lookup(row.seed, row.fingerprint ^ 1, &out));
    // A seed never cached: a plain miss.
    EXPECT_FALSE(cache.lookup(row.seed ^ 1, row.fingerprint, &out));
    EXPECT_TRUE(cache.lookup(row.seed, row.fingerprint, &out));
    const auto snap = obs::snapshot();
    EXPECT_EQ(snap.value("cache.misses"), 2u);
    EXPECT_EQ(snap.value("cache.invalidated"), 1u);
    EXPECT_EQ(snap.value("cache.hits"), 1u);

    // Every stored row still hits after a reopen.
    const io::SweepCache reopened(path);
    EXPECT_EQ(reopened.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_TRUE(reopened.lookup(makeRow(i).seed,
                                    makeRow(i).fingerprint, &out))
            << i;
}

TEST(SweepCache, RetiredFormatFileStopsTheRunAndStaysUntouched)
{
    // A checkpoint in a retired format (v1 host-endian, v2 without
    // the geometry column, v3 without the drift axis) would read as
    // one long torn tail; the cache must exit instead of truncating.
    // Earlier tests leave pool threads behind, which a forked child
    // cannot exit cleanly past: re-exec the binary for each death.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char v : {'1', '2', '3'}) {
        const std::string path =
            tmpPath(std::string("retired_v") + v + ".cache");
        {
            std::ofstream out(path, std::ios::binary);
            out << "SVC" << v << std::string(60, '\x5a');
        }
        const auto size = std::filesystem::file_size(path);
        EXPECT_EXIT(io::SweepCache{path}, ::testing::ExitedWithCode(1),
                    std::string("retired v") + v);
        EXPECT_EQ(std::filesystem::file_size(path), size) << path;
        std::remove(path.c_str());
    }
}

// -----------------------------------------------------------------
// Deterministic mutation fuzzing of the SVC4 record reader
// -----------------------------------------------------------------

/** One to three random edits of a record file whose records start at
 *  `starts`: bit flips, truncation, a splice of its own bytes, an
 *  edited length field, or a stray record magic. */
std::string
mutateRecords(const std::string &file, const std::vector<size_t> &starts,
              Rng &rng)
{
    std::string m = file;
    for (uint64_t edits = 1 + rng.below(3); edits-- > 0;) {
        switch (rng.below(5)) {
        case 0: // bit flips
            for (uint64_t n = 1 + rng.below(8); n-- > 0 && !m.empty();)
                m[rng.below(m.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            break;
        case 1: // truncation
            m.resize(rng.below(m.size() + 1));
            break;
        case 2: { // splice: a slice of the file copied into or over it
            if (m.empty())
                break;
            const std::string slice =
                m.substr(rng.below(m.size()), 1 + rng.below(400));
            const size_t at = rng.below(m.size() + 1);
            if (rng.chance(0.5))
                m.insert(at, slice);
            else
                m.replace(at, slice.size(), slice);
            break;
        }
        case 3: { // a record's length field
            const size_t at = starts[rng.below(starts.size())] + 4;
            if (at + 4 > m.size())
                break;
            uint32_t len = 0;
            std::memcpy(&len, m.data() + at, sizeof(len));
            const uint32_t edited[] = {0,           len - 1,
                                       len + 1,     len + 8,
                                       len * 2,     0xFFFFFFFFu,
                                       static_cast<uint32_t>(rng.next())};
            len = edited[rng.below(std::size(edited))];
            std::memcpy(m.data() + at, &len, sizeof(len));
            break;
        }
        default: { // stray record magic
            const size_t at = rng.below(m.size() + 1);
            if (rng.chance(0.5))
                m.insert(at, "SVC4");
            else
                m.replace(at, 4, "SVC4");
            break;
        }
        }
    }
    return m;
}

TEST(RecordFuzz, MutantsYieldOnlyOriginalRecordsAndOutcomes)
{
    // A valid eight-record file, and where each record starts.
    std::vector<engine::CellResult> originals;
    for (uint32_t i = 0; i < 8; ++i)
        originals.push_back(makeRow(i));
    const std::string path = tmpPath("fuzz.svc");
    std::vector<size_t> starts;
    {
        std::remove(path.c_str());
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        for (const auto &r : originals) {
            starts.push_back(static_cast<size_t>(std::ftell(f)));
            io::appendRecord(f, r, path);
        }
        std::fclose(f);
    }
    const std::string valid = slurp(path);

    // Resync and torn-tail warnings would print once per mutant.
    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Error);
    Rng rng(hashSeed({0x5EC4F022ULL}));
    constexpr int kMutants = 5000;
    size_t resynced = 0, torn = 0, records = 0, retired = 0, opened = 0;
    const auto written = [&](uint64_t seed, uint64_t fingerprint) {
        return std::find_if(originals.begin(), originals.end(),
                            [&](const engine::CellResult &o) {
                                return o.seed == seed &&
                                       o.fingerprint == fingerprint;
                            });
    };
    for (int n = 0; n < kMutants; ++n) {
        SCOPED_TRACE("mutant " + std::to_string(n));
        const std::string m = mutateRecords(valid, starts, rng);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(m.data(), static_cast<std::streamsize>(m.size()));
        }
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        io::RecordReadStats stats;
        const auto rows = io::readRecords(f, &stats);
        std::fclose(f);
        ASSERT_LE(stats.validBytes, m.size());
        ASSERT_LE(stats.droppedBytes, m.size());
        std::set<std::pair<uint64_t, uint64_t>> keys;
        for (const auto &r : rows) {
            const auto o = written(r.seed, r.fingerprint);
            ASSERT_NE(o, originals.end()) << "a record no one wrote";
            expectRowsEqual(*o, r);
            keys.insert({r.seed, r.fingerprint});
        }
        resynced += stats.resyncs > 0;
        torn += stats.validBytes < m.size();
        records += rows.size();

        // A retired format's magic exits by design (the death test
        // above covers it); the cache opens every other mutant.
        if (m.size() >= 4 && m.compare(0, 3, "SVC") == 0 && m[3] >= '1' &&
            m[3] <= '3') {
            ++retired;
            continue;
        }
        try {
            const io::SweepCache cache(path);
            ASSERT_EQ(cache.size(), keys.size());
            for (const auto &o : originals) {
                engine::CellResult got = o;
                got.metrics = {};
                got.normalized = {};
                got.drift = {};
                if (cache.lookup(o.seed, o.fingerprint, &got))
                    expectRowsEqual(o, got);
            }
            // The torn tail is cut off and mid-file damage rewritten
            // away: the file holds exactly the intact records, in
            // order, and reads back without skipping a byte.
            if (stats.resyncs == 0) {
                ASSERT_EQ(std::filesystem::file_size(path),
                          stats.validBytes);
            }
            std::FILE *g = std::fopen(path.c_str(), "rb");
            ASSERT_NE(g, nullptr);
            io::RecordReadStats again;
            const auto healed = io::readRecords(g, &again);
            std::fclose(g);
            ASSERT_EQ(again.resyncs, 0u);
            ASSERT_EQ(again.droppedBytes, 0u);
            ASSERT_EQ(std::filesystem::file_size(path), again.validBytes);
            ASSERT_EQ(healed.size(), rows.size());
            for (size_t i = 0; i < rows.size(); ++i)
                expectRowsEqual(rows[i], healed[i]);
            ++opened;
        } catch (const std::runtime_error &) {
            // A typed refusal is an allowed outcome.
        }
    }
    setLogLevel(level);
    // The mutants reached every branch: resync, torn tail, and
    // surviving records.
    EXPECT_GT(resynced, 0u);
    EXPECT_GT(torn, 0u);
    EXPECT_GT(records, 0u);
    EXPECT_GT(opened, kMutants / 2u);
    std::printf("%d mutants: %zu resynced, %zu torn, %zu records, "
                "%zu opened, %zu retired-magic\n",
                kMutants, resynced, torn, records, opened, retired);
}

TEST(AdversarialSweep, CacheResumesAndSinkStreamsDefendedCells)
{
    const std::string cache_path = tmpPath("adv.cache");
    std::remove(cache_path.c_str());

    auto make_spec = [] {
        engine::AdversarialSpec adv;
        adv.config.cores = 4;
        adv.requestsPerCore = 600;
        adv.threads = 2;
        adv.cases.push_back(
            {"Hydra-thrash", "hydra",
             {sim::adversarialHydraTrace(600, 3)}});
        adv.cases.push_back(
            {"RRS-swap", "rrs",
             {sim::adversarialRrsTrace(600, 3, 1537),
              sim::adversarialRrsTrace(600, 3, 5011)}});
        adv.providers = {engine::ProviderSpec::uniform(),
                         engine::ProviderSpec::svard("S3")};
        return adv;
    };

    engine::AdversarialSpec cold = make_spec();
    cold.cache = std::make_shared<io::SweepCache>(cache_path);
    auto collect = std::make_shared<CollectSink>();
    cold.sink = collect;
    engine::SweepIoStats cold_stats;
    const auto cold_rows = engine::runAdversarialSweep(cold,
                                                       &cold_stats);
    // The counts cover the {case x provider x trace} = 6 defended
    // cells; reference and alone-IPC runs are baselines.
    EXPECT_EQ(cold_stats.executed, 6u);
    EXPECT_EQ(cold_stats.cached, 0u);
    EXPECT_EQ(collect->rows.size(), 6u); // defended cells streamed

    engine::AdversarialSpec hot = make_spec();
    hot.cache = std::make_shared<io::SweepCache>(cache_path);
    engine::SweepIoStats hot_stats;
    const auto hot_rows = engine::runAdversarialSweep(hot, &hot_stats);
    EXPECT_EQ(hot_stats.executed, 0u);
    EXPECT_EQ(hot_stats.cached, 6u);
    ASSERT_EQ(hot_rows.size(), cold_rows.size());
    for (size_t i = 0; i < cold_rows.size(); ++i) {
        EXPECT_EQ(cold_rows[i].caseName, hot_rows[i].caseName);
        EXPECT_EQ(cold_rows[i].provider, hot_rows[i].provider);
        EXPECT_EQ(cold_rows[i].benignWs, hot_rows[i].benignWs);
        EXPECT_EQ(cold_rows[i].slowdown, hot_rows[i].slowdown);
        EXPECT_EQ(cold_rows[i].normalizedSlowdown,
                  hot_rows[i].normalizedSlowdown);
    }
}

TEST(SweepCache, SinkFailureSurfacesAsExceptionAndKeepsCheckpoint)
{
    // A sink that fails mid-stream: the error is raised on a worker
    // thread (workers emit as cells finish), and must surface as an
    // exception from the grid run rather than terminating the
    // process — for both grid kinds.
    class FailAfterOne : public io::ResultSink
    {
      public:
        void
        write(const engine::CellResult &) override
        {
            if (written_++ >= 1)
                throw std::runtime_error("sink broke");
        }

      private:
        int written_ = 0;
    };

    for (const bool adversarial : {false, true}) {
        SCOPED_TRACE(adversarial ? "adversarial grid" : "sweep grid");
        const std::string cache_path =
            tmpPath(adversarial ? "sinkfail_adv.cache" : "sinkfail.cache");
        std::remove(cache_path.c_str());
        auto cache = std::make_shared<io::SweepCache>(cache_path);
        if (adversarial) {
            engine::AdversarialSpec adv;
            adv.config.cores = 4;
            adv.requestsPerCore = 600;
            adv.threads = 4;
            adv.cases.push_back(
                {"RRS-swap", "rrs",
                 {sim::adversarialRrsTrace(600, 3, 1537),
                  sim::adversarialRrsTrace(600, 3, 5011)}});
            adv.providers = {engine::ProviderSpec::uniform(),
                             engine::ProviderSpec::svard("S3")};
            adv.cache = cache;
            adv.sink = std::make_shared<FailAfterOne>();
            EXPECT_THROW(engine::runAdversarialSweep(adv),
                         std::runtime_error);
        } else {
            engine::SweepSpec spec = ioSpec(4);
            spec.cache = cache;
            spec.sink = std::make_shared<FailAfterOne>();
            engine::ExperimentRunner runner(std::move(spec));
            EXPECT_THROW(runner.run(), std::runtime_error);
        }
        // Every cell that finished before the failure stayed
        // checkpointed, so a retry resumes instead of starting over.
        EXPECT_GT(cache->size(), 0u);
    }
}

TEST(SweepCache, ConcurrentSinkFailureDoesNotRaceEmission)
{
    // Regression: the ordered emitter's disabled check used to read
    // the sink pointer without its lock, racing the disable() a
    // failing sink triggers on another worker. With every worker
    // still completing cells while one latches the error, TSan (and
    // clang's thread-safety analysis) must see only locked accesses.
    class FailLate : public io::ResultSink
    {
      public:
        void
        write(const engine::CellResult &) override
        {
            if (written_.fetch_add(1) >= 5)
                throw std::runtime_error("sink broke late");
        }

      private:
        std::atomic<int> written_{0};
    };

    engine::SweepSpec spec = ioSpec(4);
    spec.mixes = sim::workloadMixes(4, spec.config.cores);
    spec.sink = std::make_shared<FailLate>();
    engine::ExperimentRunner runner(std::move(spec));
    EXPECT_THROW(runner.run(), std::runtime_error);
}

} // namespace
} // namespace svard
