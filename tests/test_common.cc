/**
 * @file
 * Unit tests for the common utilities: RNG determinism/moments,
 * descriptive statistics, histograms, and the table emitter.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <utility>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "support/mutate.h"

namespace svard {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowIsInRangeAndCoversRange)
{
    Rng rng(9);
    std::vector<int> hits(10, 0);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = rng.below(10);
        ASSERT_LT(v, 10u);
        ++hits[v];
    }
    for (int h : hits)
        EXPECT_GT(h, 700); // near-uniform: expect ~1000 each
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double z = rng.normal();
        sum += z;
        sq += z * z;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BinomialMoments)
{
    Rng rng(13);
    const uint64_t n = 10000;
    const double p = 0.01;
    double sum = 0.0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.binomial(n, p));
    EXPECT_NEAR(sum / trials, n * p, 3.0);
}

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(17);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
}

TEST(HashSeed, OrderSensitive)
{
    EXPECT_NE(hashSeed({1, 2}), hashSeed({2, 1}));
    EXPECT_EQ(hashSeed({1, 2, 3}), hashSeed({1, 2, 3}));
}

TEST(Stats, MeanAndStdev)
{
    std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(stdev(xs), 2.138, 0.001);
}

TEST(Stats, CoefficientOfVariation)
{
    std::vector<double> xs = {10, 10, 10};
    EXPECT_DOUBLE_EQ(coefficientOfVariation(xs), 0.0);
    std::vector<double> ys = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(coefficientOfVariation(ys), 2.138 / 5.0, 0.001);
}

TEST(Stats, QuantileInterpolation)
{
    std::vector<double> xs = {1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Stats, BoxStatsBasics)
{
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    const BoxStats bs = boxStats(xs);
    EXPECT_EQ(bs.n, 100u);
    EXPECT_DOUBLE_EQ(bs.min, 1.0);
    EXPECT_DOUBLE_EQ(bs.max, 100.0);
    EXPECT_NEAR(bs.median, 50.5, 1e-9);
    EXPECT_NEAR(bs.q1, 25.75, 1e-9);
    EXPECT_NEAR(bs.q3, 75.25, 1e-9);
    EXPECT_LE(bs.whiskerLow, bs.q1);
    EXPECT_GE(bs.whiskerHigh, bs.q3);
}

TEST(Stats, BoxStatsWhiskersExcludeOutliers)
{
    std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 1000};
    const BoxStats bs = boxStats(xs);
    EXPECT_LT(bs.whiskerHigh, 1000.0);
    EXPECT_DOUBLE_EQ(bs.max, 1000.0);
}

TEST(Stats, CategoricalHistogram)
{
    CategoricalHistogram h({1, 2, 4});
    h.add(1);
    h.add(1);
    h.add(4);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(4), 1.0 / 3.0);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Stats, PearsonKnownValues)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    std::vector<double> zs = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
    std::vector<double> cs = {3, 3, 3, 3, 3};
    EXPECT_DOUBLE_EQ(pearson(xs, cs), 0.0);
}

TEST(Table, RowsAndFormat)
{
    Table t("demo", {"a", "b"});
    t.addRow({Table::fmt(int64_t(1)), Table::fmt(2.5, 1)});
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(Table::fmtHc(4096), "4K");
    EXPECT_EQ(Table::fmtHc(1000), "1000");
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
}

TEST(Table, EnvIntFallback)
{
    EXPECT_EQ(envInt("SVARD_SURELY_UNSET_ENV_VAR", 123), 123);

    const char *var = "SVARD_TEST_ENV_INT";
    ::setenv(var, "", 1);
    EXPECT_EQ(envInt(var, 5), 5);
    ::setenv(var, "-42", 1);
    EXPECT_EQ(envInt(var, 5), -42);
    // Malformed or out-of-range values throw, naming the variable,
    // instead of reading as a silent 0, 12 or saturated INT64_MAX.
    for (const char *bad : {"abc", "12abc", "99999999999999999999"}) {
        ::setenv(var, bad, 1);
        try {
            envInt(var, 5);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
                << e.what();
        }
    }
    ::unsetenv(var);
}

/** The independent oracle for envInt: the value of `s` when it is
 *  one whole base-10 integer (optional sign, digits only) in int64_t. */
std::optional<int64_t>
wholeInt(const std::string &s)
{
    // from_chars takes a '-' but not a '+', so strip one '+' and
    // refuse a second sign after it.
    const size_t skip = !s.empty() && s[0] == '+' ? 1 : 0;
    if (skip == 1 && (s.size() == 1 || s[1] == '-'))
        return std::nullopt;
    int64_t v = 0;
    const char *end = s.data() + s.size();
    const auto [p, ec] = std::from_chars(s.data() + skip, end, v);
    if (ec != std::errc() || p != end)
        return std::nullopt;
    return v;
}

TEST(EnvIntFuzz, MutantsReadAsStrtollOrAreRejected)
{
    // Each mutant of a valid knob value either reads as the integer
    // strtoll gives for it, and the oracle agrees it is one, or throws
    // std::invalid_argument naming the knob. Nothing else may happen.
    const char *var = "SVARD_TEST_ENV_FUZZ";
    const std::vector<std::string> seeds = {
        "0", "1", "-42", "+7", "500", "1500", "9223372036854775807",
        "-9223372036854775808"};
    const std::vector<std::string> tokens = {
        "9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "0x10", "1e3", "2.5", "00", "-0", "+",
        "-", " ", "\t", "abc", "18446744073709551615"};
    const std::string alphabet = "0123456789+- xXeE.\t\n\x01\x7f\xff";
    constexpr int kMutants = 100000;
    Rng rng(hashSeed({0xE4F1ULL}));
    int parsed = 0, rejected = 0;
    for (int n = 0; n < kMutants; ++n) {
        const std::string m = fuzz::mutate(seeds[rng.below(seeds.size())],
                                           rng, alphabet, tokens);
        ::setenv(var, m.c_str(), 1);
        if (m.empty()) { // unset or empty: the fallback
            EXPECT_EQ(envInt(var, 5), 5);
            continue;
        }
        const std::optional<int64_t> want = wholeInt(m);
        try {
            const int64_t got = envInt(var, 5);
            ++parsed;
            EXPECT_EQ(got, std::strtoll(m.c_str(), nullptr, 10))
                << "\"" << m << "\"";
            EXPECT_TRUE(want && *want == got)
                << "\"" << m << "\" read as " << got;
        } catch (const std::invalid_argument &e) {
            ++rejected;
            EXPECT_FALSE(want) << "\"" << m << "\" rejected";
            EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
                << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "\"" << m << "\" threw " << e.what()
                          << ", not std::invalid_argument";
        }
    }
    ::unsetenv(var);
    EXPECT_GT(parsed, kMutants / 20);
    EXPECT_GT(rejected, kMutants / 20);
    std::printf("envInt: %d mutants, %d parsed, %d rejected\n",
                kMutants, parsed, rejected);
}

// -----------------------------------------------------------------
// FlatTable (the defenses' hot-path counter store)
// -----------------------------------------------------------------

TEST(FlatTable, InsertFindAndGrowthKeepEveryEntry)
{
    FlatTable<uint32_t> t(16);
    // Push far past the initial capacity so several growths happen.
    for (uint64_t k = 0; k < 10000; ++k)
        t.refOrInsert(k * 0x9E3779B97F4A7C15ULL) =
            static_cast<uint32_t>(k);
    EXPECT_EQ(t.size(), 10000u);
    EXPECT_GT(t.capacity(), 10000u);
    for (uint64_t k = 0; k < 10000; ++k) {
        const uint32_t *v = t.find(k * 0x9E3779B97F4A7C15ULL);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(*v, static_cast<uint32_t>(k));
    }
    EXPECT_EQ(t.find(0xDEADBEEFULL), nullptr);
}

TEST(FlatTable, GenerationClearIsO1AndResurrectsNothing)
{
    FlatTable<uint32_t> t;
    for (uint64_t k = 0; k < 500; ++k)
        t.refOrInsert(k) = 7;
    const size_t cap = t.capacity();
    t.clear(); // generation bump, no slot wipe
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), cap);
    for (uint64_t k = 0; k < 500; ++k)
        EXPECT_EQ(t.find(k), nullptr) << k;
    // Re-inserting after a clear default-constructs fresh values.
    EXPECT_EQ(t.refOrInsert(3), 0u);
    t.refOrInsert(3) = 9;
    EXPECT_EQ(*t.find(3), 9u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(FlatTable, CollidingKeysChainAndEraseTombstonesCorrectly)
{
    // Many keys landing in a small table force probe chains; erase
    // must tombstone (keeping later chain members reachable), and a
    // reinsert may reuse the tombstone.
    FlatTable<uint64_t> t(16);
    constexpr uint64_t kKeys = 11; // under the growth watermark of 16
    for (uint64_t k = 0; k < kKeys; ++k)
        t.refOrInsert(k) = k + 100;
    ASSERT_EQ(t.capacity(), 16u);
    // Erase a middle element: everything else stays reachable.
    EXPECT_TRUE(t.erase(5));
    EXPECT_FALSE(t.erase(5));
    EXPECT_EQ(t.size(), kKeys - 1);
    for (uint64_t k = 0; k < kKeys; ++k) {
        if (k == 5)
            EXPECT_EQ(t.find(k), nullptr);
        else
            EXPECT_EQ(*t.find(k), k + 100) << k;
    }
    t.refOrInsert(5) = 205;
    EXPECT_EQ(*t.find(5), 205u);
    EXPECT_EQ(t.size(), kKeys);
}

TEST(FlatTable, EraseInsertChurnStaysConsistentAcrossRehashes)
{
    // LRU-style churn (the Hydra RCC pattern): erase + insert pairs
    // accumulate tombstones until in-place rehashes purge them.
    FlatTable<uint32_t> t(32);
    for (uint64_t k = 0; k < 20; ++k)
        t.refOrInsert(k) = static_cast<uint32_t>(k);
    for (uint64_t round = 0; round < 2000; ++round) {
        const uint64_t evict = round;
        const uint64_t insert = round + 20;
        ASSERT_TRUE(t.erase(evict)) << round;
        t.refOrInsert(insert) = static_cast<uint32_t>(insert);
        ASSERT_EQ(t.size(), 20u);
    }
    for (uint64_t k = 2000; k < 2020; ++k)
        EXPECT_EQ(*t.find(k), static_cast<uint32_t>(k));
}

TEST(HashStream, WordFoldsMatchHashSeed)
{
    // The device's fault-injection loop folds the loop-invariant
    // (seed, bank, row) prefix of its per-bit orientation hash once
    // and finishes it per attempt — valid only while HashStream's
    // fold IS hashSeed's fold. Pin that equivalence.
    const uint64_t parts[] = {0xC0FFEE, 3, 77777, 129, 0x0B17};
    HashStream h;
    for (uint64_t p : parts)
        h.mix(p);
    EXPECT_EQ(h.value(),
              hashSeed({0xC0FFEEULL, 3ULL, 77777ULL, 129ULL, 0x0B17ULL}));

    HashStream prefix;
    prefix.mix(uint64_t(0xC0FFEE)).mix(uint32_t(3)).mix(uint32_t(77777));
    HashStream resumed = prefix;
    resumed.mix(uint32_t(129)).mix(0x0B17ULL);
    EXPECT_EQ(resumed.value(), h.value());
}

TEST(HashStream, StringFoldMatchesTheByteAtATimeDefinition)
{
    // Strings fold as a length word, then each 8-byte chunk as one
    // word with its first byte most significant, then the short tail
    // the same way. Every checkpoint checksum and cell fingerprint is
    // this value, so pin the word-at-a-time loop to the definition,
    // high bytes and every tail length included.
    const auto reference = [](const std::string &s) {
        HashStream h;
        h.mix(uint64_t{s.size()});
        uint64_t word = 0;
        int filled = 0;
        for (const unsigned char c : s) {
            word = (word << 8) | c;
            if (++filled == 8) {
                h.mix(word);
                word = 0;
                filled = 0;
            }
        }
        if (filled)
            h.mix(word);
        return h.value();
    };
    Rng rng(7);
    std::string s;
    for (size_t len = 0; len <= 40; ++len) {
        EXPECT_EQ(HashStream().mix(s).value(), reference(s)) << len;
        s.push_back(static_cast<char>(rng.below(256)));
    }
}

TEST(FlatTable, EmptyTableAllocatesNothingUntilFirstInsert)
{
    // Defenses and the device hold tables that may never see a row;
    // an untouched table must cost no slot-array allocation.
    FlatTable<uint64_t> t(64);
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_EQ(t.find(42), nullptr);
    EXPECT_FALSE(t.erase(42));
    t.clear(); // clear of a never-allocated table is a no-op
    EXPECT_EQ(t.capacity(), 0u);
    t.refOrInsert(42) = 7;
    EXPECT_EQ(t.capacity(), 64u);
    EXPECT_EQ(*t.find(42), 7u);
}

TEST(FlatTable, ForEachVisitsExactlyTheLiveEntries)
{
    FlatTable<uint32_t> t(16);
    for (uint64_t k = 0; k < 300; ++k)
        t.refOrInsert(k) = static_cast<uint32_t>(k * 3);
    EXPECT_TRUE(t.erase(7));
    EXPECT_TRUE(t.erase(250));
    std::map<uint64_t, uint32_t> seen;
    t.forEach([&](uint64_t k, const uint32_t &v) {
        EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate " << k;
    });
    EXPECT_EQ(seen.size(), t.size());
    for (uint64_t k = 0; k < 300; ++k) {
        if (k == 7 || k == 250) {
            EXPECT_FALSE(seen.count(k));
        } else {
            ASSERT_TRUE(seen.count(k)) << k;
            EXPECT_EQ(seen[k], static_cast<uint32_t>(k * 3));
        }
    }
    t.clear();
    size_t visited = 0;
    t.forEach([&](uint64_t, const uint32_t &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(FlatTable, ForEachOrderIsDeterministicForSameHistory)
{
    // forEach order is the slot order, which is a pure function of
    // the insertion/erase history — two tables fed the identical
    // sequence must visit in the identical order. Defense counter
    // scans and the streaming-cache fingerprints rely on this.
    auto build = [](FlatTable<uint32_t> &t) {
        Rng rng(0x0D3);
        for (int op = 0; op < 5000; ++op) {
            const uint64_t key = rng.below(800);
            if (rng.below(10) < 3)
                t.erase(key);
            else
                t.refOrInsert(key) = static_cast<uint32_t>(op);
        }
    };
    FlatTable<uint32_t> a(16), b(16);
    build(a);
    build(b);
    std::vector<std::pair<uint64_t, uint32_t>> order_a, order_b;
    a.forEach([&](uint64_t k, const uint32_t &v) {
        order_a.emplace_back(k, v);
    });
    b.forEach([&](uint64_t k, const uint32_t &v) {
        order_b.emplace_back(k, v);
    });
    ASSERT_FALSE(order_a.empty());
    EXPECT_EQ(order_a, order_b);
}

// -----------------------------------------------------------------
// parallelFor (persistent pool)
// -----------------------------------------------------------------

TEST(ParallelFor, EveryIndexRunsExactlyOnceAtAnyWidth)
{
    for (unsigned threads : {1u, 2u, 5u}) {
        std::vector<std::atomic<int>> hits(1000);
        for (auto &h : hits)
            h.store(0);
        parallelFor(hits.size(), threads,
                    [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(ParallelFor, WorkerExceptionsPropagateToTheCaller)
{
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(64);
        for (auto &h : hits)
            h.store(0);
        // Two indices throw: the first exception (in index order when
        // inline, in time when pooled) reaches the caller, and every
        // index still runs exactly once.
        std::string what;
        try {
            parallelFor(hits.size(), threads, [&](size_t i) {
                hits[i].fetch_add(1);
                if (i == 13 || i == 40)
                    throw std::runtime_error("boom " + std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        if (threads == 1)
            EXPECT_EQ(what, "boom 13");
        else
            EXPECT_TRUE(what == "boom 13" || what == "boom 40") << what;
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << threads << " threads, " << i;
    }
    // The pool survives a throwing job and runs the next one.
    std::atomic<int> total{0};
    parallelFor(64, 4, [&](size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 64);
}

} // namespace
} // namespace svard
