/**
 * @file
 * Tests for the deterministic fault-injection harness and the
 * recovery paths it drives: the SVARD_FAULT grammar, count-based
 * triggering, the transactional append retry (transient EIO absorbed,
 * persistent short writes surfaced with the file rolled back),
 * mid-file record resync, atomic manifest replacement, AsyncSink
 * error propagation, CsvSink's whole-row batch appends, and the
 * cache's graceful-degradation open.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "engine/sweep.h"
#include "fault_inject/fault_inject.h"
#include "io/async_sink.h"
#include "io/result_sink.h"
#include "io/sweep_cache.h"
#include "obs/json.h"
#include "obs/manifest.h"

namespace svard {
namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "svard_faults_" + name;
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

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

engine::CellResult
makeRow(uint32_t i)
{
    engine::CellResult r;
    r.cell = {i, i, i, i, i};
    r.seed = 0x1000 + i;
    r.fingerprint = 0x2000 + i;
    r.geometry = "ddr4-table4";
    r.defense = "para";
    r.threshold = 128.0;
    r.provider = "NoSvard";
    r.mix = "mix-" + std::to_string(i);
    r.metrics.weightedSpeedup = 1.0 + i / 3.0;
    r.normalized.weightedSpeedup = 0.5 + i / 7.0;
    return r;
}

/** Every test leaves the process plan-free. */
class FaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { faults::reset(); }
};

using FaultGrammar = FaultTest;
using RetryPath = FaultTest;
using ResyncPath = FaultTest;
using ManifestAtomicity = FaultTest;
using AsyncSinkFaults = FaultTest;
using CsvBatchFaults = FaultTest;
using Degradation = FaultTest;

TEST_F(FaultGrammar, CountBasedOneShotAndPersistentTriggers)
{
    faults::configure("p.once:eio@2,p.forever:short@1+");
    EXPECT_FALSE(faults::check("p.once"));
    EXPECT_EQ(faults::check("p.once").action, faults::Action::Eio);
    EXPECT_FALSE(faults::check("p.once")) << "one-shot refires";
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(faults::check("p.forever").action,
                  faults::Action::Short);
    EXPECT_EQ(faults::hitCount("p.once"), 3u);
    EXPECT_FALSE(faults::check("p.unlisted"));
}

TEST_F(FaultGrammar, ArgAndSummaryAndClear)
{
    faults::configure("a.b:stall@3:250");
    EXPECT_NE(faults::planSummary().find("a.b"), std::string::npos);
    faults::configure("");
    EXPECT_FALSE(faults::anyActive());
    EXPECT_EQ(faults::hitCount("a.b"), 0u) << "configure resets counts";
}

TEST_F(FaultGrammar, MalformedSpecsThrow)
{
    EXPECT_THROW(faults::configure("nocolon"), std::invalid_argument);
    EXPECT_THROW(faults::configure("p:badaction@1"),
                 std::invalid_argument);
    EXPECT_THROW(faults::configure("p:kill@0"),
                 std::invalid_argument);
    EXPECT_THROW(faults::configure("p:kill"), std::invalid_argument);
    // Counts past UINT64_MAX are rejected, not saturated.
    EXPECT_THROW(faults::configure("p:kill@99999999999999999999"),
                 std::invalid_argument);
    EXPECT_THROW(faults::configure("p:stall@1:99999999999999999999"),
                 std::invalid_argument);
}

TEST_F(FaultGrammar, StallSleepsForItsArgument)
{
    faults::configure("z.z:stall@1:80");
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(faults::check("z.z")) << "stall executes in check()";
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(ms, 70);
}

TEST_F(RetryPath, TransientEioIsAbsorbedByTheRetry)
{
    const std::string path = tmpPath("transient.svc");
    std::remove(path.c_str());
    faults::configure("cache.store:eio@1");
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        io::appendRecord(f, makeRow(1), path);
        io::appendRecord(f, makeRow(2), path);
        std::fclose(f);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    const auto rows = io::readRecords(f);
    std::fclose(f);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].seed, makeRow(1).seed);
    EXPECT_GT(faults::hitCount("cache.store"), 2u)
        << "the failed attempt plus retries must all consult the "
           "injection point";
}

TEST_F(RetryPath, PersistentShortWriteRollsTheFileBack)
{
    const std::string path = tmpPath("shortwrite.svc");
    std::remove(path.c_str());
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    io::appendRecord(f, makeRow(1), path);
    std::fflush(f);
    const std::string before = slurp(path);

    faults::configure("cache.store:short@1+");
    EXPECT_THROW(io::appendRecord(f, makeRow(2), path),
                 std::runtime_error);
    std::fclose(f);
    // The transaction truncated the partial garbage away: the file
    // holds exactly the pre-failure bytes and still loads cleanly.
    EXPECT_EQ(slurp(path), before);
    faults::reset();
    f = std::fopen(path.c_str(), "rb");
    const auto rows = io::readRecords(f);
    std::fclose(f);
    ASSERT_EQ(rows.size(), 1u);
}

TEST_F(ResyncPath, MidFileCorruptionResyncsOntoTheNextRecord)
{
    const std::string path = tmpPath("resync.svc");
    std::remove(path.c_str());
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    io::appendRecord(f, makeRow(1), path);
    std::fflush(f);
    const size_t first_end = static_cast<size_t>(std::ftell(f));
    io::appendRecord(f, makeRow(2), path);
    std::fclose(f);

    const std::string intact = slurp(path);
    const std::string garbage = "GARBAGE-NO-MAGIC-HERE";
    spill(path, intact.substr(0, first_end) + garbage +
                    intact.substr(first_end));

    f = std::fopen(path.c_str(), "rb");
    io::RecordReadStats stats;
    const auto rows = io::readRecords(f, &stats);
    std::fclose(f);
    ASSERT_EQ(rows.size(), 2u) << "the record after the damage must "
                                  "survive";
    EXPECT_EQ(rows[1].seed, makeRow(2).seed);
    EXPECT_EQ(stats.resyncs, 1u);
    EXPECT_EQ(stats.droppedBytes, garbage.size());
    EXPECT_EQ(stats.validBytes, intact.size() + garbage.size());
}

TEST_F(ResyncPath, TornTailIsTruncatedNotCountedAsDamage)
{
    const std::string path = tmpPath("torntail.svc");
    std::remove(path.c_str());
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    io::appendRecord(f, makeRow(1), path);
    std::fflush(f);
    const size_t intact_end = static_cast<size_t>(std::ftell(f));
    io::appendRecord(f, makeRow(2), path);
    std::fclose(f);
    const std::string full = slurp(path);
    // Chop the second record mid-frame: what a kill mid-append leaves.
    spill(path, full.substr(0, intact_end + 9));

    f = std::fopen(path.c_str(), "rb");
    io::RecordReadStats stats;
    const auto rows = io::readRecords(f, &stats);
    std::fclose(f);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(stats.validBytes, intact_end);
    EXPECT_EQ(stats.droppedBytes, 0u) << "tail truncation is routine "
                                         "crash recovery, not damage";
    EXPECT_EQ(stats.resyncs, 0u);

    // SweepCache repairs the tail on open and appends cleanly after.
    io::SweepCache cache(path);
    EXPECT_EQ(cache.size(), 1u);
    cache.store(makeRow(3));
    io::SweepCache again(path);
    EXPECT_EQ(again.size(), 2u);
}

TEST_F(ManifestAtomicity, FailedRewriteLeavesTheOldManifestIntact)
{
    const std::string path = tmpPath("manifest.json");
    obs::RunManifest m;
    m.kind = "sweep";
    m.specFingerprint = 0xAB;
    ASSERT_TRUE(obs::writeManifest(path, m, obs::snapshot()));
    const std::string before = slurp(path);

    faults::configure("manifest.write:eio@1");
    m.specFingerprint = 0xCD;
    EXPECT_FALSE(obs::writeManifest(path, m, obs::snapshot()));
    // tmp+rename: the failed write never touches the published file,
    // and no orphan temp survives.
    EXPECT_EQ(slurp(path), before);
    EXPECT_NE(std::remove((path + ".tmp").c_str()), 0)
        << "failed writes must clean up their temp file";

    faults::reset();
    obs::json::Value r;
    std::string err;
    ASSERT_TRUE(obs::json::Value::parse(slurp(path), &r, &err)) << err;
    EXPECT_EQ(r.find("spec_fingerprint")->asU64(), 0xABu);
}

TEST_F(AsyncSinkFaults, PersistentWriteFaultReachesTheProducer)
{
    const std::string path = tmpPath("asyncsink.csv");
    std::remove(path.c_str());
    faults::configure("csv.write:eio@1+");
    auto sink = std::make_shared<io::AsyncSink>(
        std::make_unique<io::CsvSink>(path));
    sink->write(makeRow(1));
    // The writer thread's drain flush exhausts CsvSink's retry budget;
    // the latched error must surface on the producer side rather than
    // vanish.
    EXPECT_THROW(
        {
            for (int i = 0; i < 64; ++i)
                sink->write(makeRow(2 + i));
            sink->flush();
        },
        std::runtime_error);
}

TEST_F(AsyncSinkFaults, TransientWriteFaultIsInvisible)
{
    const std::string path = tmpPath("asyncsink_ok.csv");
    std::remove(path.c_str());
    faults::configure("csv.write:eio@1");
    {
        io::AsyncSink sink(std::make_unique<io::CsvSink>(path));
        for (uint32_t i = 0; i < 4; ++i)
            sink.write(makeRow(i));
        sink.flush();
    }
    // Header + 4 rows despite the injected hiccup, which the writer's
    // first batch append hit and CsvSink's retry absorbed.
    const std::string text = slurp(path);
    size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, 5u);
    EXPECT_GE(faults::hitCount("csv.write"), 2u);
}

// Enough rows for three 64 KiB CSV batches plus a partial fourth.
constexpr uint32_t kBatchRows = 1500;

/** The CSV a fault-free CsvSink writes for rows 0..n-1. */
std::string
referenceCsv(uint32_t n)
{
    const std::string path = tmpPath("csv_reference.csv");
    {
        io::CsvSink sink(path);
        for (uint32_t i = 0; i < n; ++i)
            sink.write(makeRow(i));
        sink.flush();
    }
    return slurp(path);
}

TEST_F(CsvBatchFaults, TransientEioLeavesTheCsvByteIdentical)
{
    const std::string want = referenceCsv(kBatchRows);
    ASSERT_GT(want.size(), 3u * 64 * 1024);
    const std::string path = tmpPath("csv_eio_once.csv");
    faults::configure("csv.write:eio@1");
    {
        io::CsvSink sink(path);
        for (uint32_t i = 0; i < kBatchRows; ++i)
            sink.write(makeRow(i));
        sink.flush();
    }
    EXPECT_EQ(slurp(path), want);
    // csv.write counts batch appends, not rows: three full batches
    // and the flush's remainder, plus the one retried attempt.
    EXPECT_EQ(faults::hitCount("csv.write"), 5u);
}

TEST_F(CsvBatchFaults, PersistentEioFailsFlushAndKeepsOnlyWholeRows)
{
    const std::string want = referenceCsv(kBatchRows);
    const std::string path = tmpPath("csv_eio_forever.csv");
    faults::configure("csv.write:eio@1+");
    {
        io::CsvSink sink(path);
        for (uint32_t i = 0; i < 10; ++i)
            sink.write(makeRow(i));
        EXPECT_THROW(sink.flush(), std::runtime_error);
    } // the destructor's final append fails too, with a warning
    const std::string text = slurp(path);
    EXPECT_EQ(text, std::string(io::CsvSink::header()) + "\n");
    EXPECT_TRUE(io::readCsvResults(path).empty());

    // Failing from the second batch on: the file is the header plus
    // exactly the first batch's rows, each of them whole.
    faults::configure("csv.write:eio@2+");
    {
        io::CsvSink sink(path);
        try {
            for (uint32_t i = 0; i < kBatchRows; ++i)
                sink.write(makeRow(i));
            sink.flush();
            ADD_FAILURE() << "persistent EIO did not surface";
        } catch (const std::runtime_error &) {
        }
    }
    const std::string partial = slurp(path);
    ASSERT_FALSE(partial.empty());
    EXPECT_EQ(partial.back(), '\n');
    EXPECT_EQ(want.compare(0, partial.size(), partial), 0)
        << "the failed file is not a prefix of the fault-free one";
    const auto rows = io::readCsvResults(path);
    EXPECT_GT(rows.size(), 0u);
    EXPECT_LT(rows.size(), kBatchRows);
}

TEST_F(CsvBatchFaults, RetriedRowAfterAFailedBatchIsNotDuplicated)
{
    const std::string want = referenceCsv(kBatchRows);
    const std::string path = tmpPath("csv_retry_row.csv");
    faults::configure("csv.write:eio@1+");
    {
        io::CsvSink sink(path);
        uint32_t failed_at = kBatchRows;
        for (uint32_t i = 0; i < kBatchRows; ++i) {
            try {
                sink.write(makeRow(i));
            } catch (const std::runtime_error &) {
                failed_at = i;
                break;
            }
        }
        ASSERT_LT(failed_at, kBatchRows) << "no batch append failed";
        // A caller retrying the same row once the fault is gone.
        faults::reset();
        for (uint32_t i = failed_at; i < kBatchRows; ++i)
            sink.write(makeRow(i));
        sink.flush();
    }
    EXPECT_EQ(slurp(path), want);
}

TEST_F(Degradation, OpenOrNullWarnsInsteadOfThrowing)
{
    auto cache = io::SweepCache::openOrNull(
        "/nonexistent-svard-dir/cache.svc");
    EXPECT_EQ(cache, nullptr);
    const std::string ok_path = tmpPath("degrade_ok.svc");
    std::remove(ok_path.c_str()); // a stale old-format file is fatal
    auto ok = io::SweepCache::openOrNull(ok_path);
    ASSERT_NE(ok, nullptr);
    ok->store(makeRow(1));
    EXPECT_EQ(ok->size(), 1u);
}

TEST_F(Degradation, FsyncOptInStoresAndReloads)
{
    const std::string path = tmpPath("fsync.svc");
    std::remove(path.c_str());
    ::setenv("SVARD_CACHE_FSYNC", "1", 1);
    {
        io::SweepCache cache(path);
        cache.store(makeRow(1));
        cache.store(makeRow(2));
    }
    ::unsetenv("SVARD_CACHE_FSYNC");
    io::SweepCache cache(path);
    EXPECT_EQ(cache.size(), 2u);
    engine::CellResult out;
    EXPECT_TRUE(
        cache.lookup(makeRow(2).seed, makeRow(2).fingerprint, &out));
    EXPECT_DOUBLE_EQ(out.normalized.weightedSpeedup,
                     makeRow(2).normalized.weightedSpeedup);
}

TEST_F(Degradation, FsyncKnobParsesAsAnInteger)
{
    // Any nonzero integer turns fsync on. /dev/null takes writes but
    // rejects fsync (EINVAL), so a store there fails exactly when the
    // cache fsyncs.
    ::setenv("SVARD_CACHE_FSYNC", "2", 1);
    {
        io::SweepCache cache("/dev/null");
        EXPECT_THROW(cache.store(makeRow(1)), std::runtime_error);
    }
    ::setenv("SVARD_CACHE_FSYNC", "0", 1);
    {
        io::SweepCache cache("/dev/null");
        EXPECT_NO_THROW(cache.store(makeRow(1)));
    }
    // A word is a typo, not "off": it throws naming the variable,
    // and openOrNull passes that on instead of running uncached.
    ::setenv("SVARD_CACHE_FSYNC", "true", 1);
    const std::string path = tmpPath("fsync_knob.svc");
    try {
        io::SweepCache cache(path);
        ADD_FAILURE() << "SVARD_CACHE_FSYNC=true opened a cache";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("SVARD_CACHE_FSYNC"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(io::SweepCache::openOrNull(path),
                 std::invalid_argument);
    ::unsetenv("SVARD_CACHE_FSYNC");
}

} // namespace
} // namespace svard
