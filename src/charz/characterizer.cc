#include "charz/characterizer.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "bender/test_session.h"
#include "common/log.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace svard::charz {

namespace {

// Stream tag of the per-row workspace RNG seeds (the device folds the
// module seed in itself, so a workspace stream is effectively
// hash(module seed, bank, row)).
constexpr uint64_t kRowWorkspaceTag = 0xC4A312ULL;

/**
 * Alg. 1 for one victim row, executed against `session`'s device. The
 * caller hands in a freshly-seeded isolated workspace, so the result
 * is a pure function of (module, bank, victim, options).
 *
 * The HC_first sweep bisects the tested-hammer-count list instead of
 * scanning it linearly: whether a measurement at count c flips is
 * monotone in c (flips appear exactly when c times the data-pattern
 * severity crosses the row's threshold), so the smallest flipping
 * tested count is found in ceil(log2(14)) = 4 measurements instead of
 * up to 14. Rows with no flip at the maximum count skip the sweep
 * entirely — by the same monotonicity no smaller count can flip.
 */
RowResult
characterizeRowOn(bender::TestSession &session, uint32_t bank,
                  uint32_t victim, const CharzOptions &opt,
                  uint64_t &measurements)
{
    auto &device = session.device();
    const auto &labels = dram::testedHammerCounts();
    const int64_t max_hc = labels.back();

    RowResult out;
    out.bank = bank;
    out.logicalRow = victim;
    out.physRow = device.mapping().toPhysical(victim);
    out.relativeLocation =
        static_cast<double>(out.physRow) /
        static_cast<double>(device.spec().rowsPerBank);

    const auto aggressors = session.aggressorRowsOf(victim);
    out.numAggressors = static_cast<uint32_t>(aggressors.size());

    auto measure = [&](fault::DataPattern dp, int64_t hc) {
        ++measurements;
        return session.measureBer(bank, victim, aggressors, dp,
                                  static_cast<uint64_t>(hc),
                                  opt.tAggOn);
    };

    const std::vector<fault::DataPattern> patterns =
        opt.quickWcdp
            ? std::vector<fault::DataPattern>{
                  fault::DataPattern::RowStripe,
                  fault::DataPattern::RowStripeInv,
              }
            : std::vector<fault::DataPattern>(
                  fault::allDataPatterns.begin(),
                  fault::allDataPatterns.end());

    out.hcFirst = max_hc;
    // Index of out.hcFirst in the tested-count list; the recorded
    // worst case can only move left (Sec. 4.1).
    size_t hc_idx = labels.size() - 1;
    for (int iter = 0; iter < std::max(opt.iterations, 1); ++iter) {
        // --- WCDP discovery at the maximum tested hammer count ---
        double best_ber = -1.0;
        fault::DataPattern wcdp = fault::DataPattern::RowStripe;
        for (auto dp : patterns) {
            const auto m = measure(dp, max_hc);
            if (m.ber() > best_ber) {
                best_ber = m.ber();
                wcdp = dp;
            }
        }
        if (best_ber > out.ber128k) {
            out.ber128k = best_ber;
            out.wcdp = wcdp;
        }
        if (best_ber <= 0.0) {
            // No flip even at the maximum count under this iteration's
            // WCDP: no smaller count can flip either. The recorded
            // HC_first (max for iteration 0) stands.
            continue;
        }
        out.flippedAtMaxCount = true;

        // --- bisect for the smallest flipping tested count ---
        // Search [0, hc_idx) at this iteration's WCDP; counts at or
        // beyond the recorded worst case cannot improve it (and for
        // iteration 0, labels[hc_idx] = 128K is already known to
        // flip from the WCDP discovery above).
        size_t lo = 0, hi = hc_idx;
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            const auto m = measure(wcdp, labels[mid]);
            if (m.flippedBits > 0)
                hi = mid;
            else
                lo = mid + 1;
        }
        if (lo < hc_idx) {
            hc_idx = lo;
            out.hcFirst = labels[lo];
        }
    }
    return out;
}

} // anonymous namespace

Characterizer::Characterizer(dram::DramDevice &device) : device_(device)
{}

RowResult
Characterizer::characterizeRow(uint32_t bank, uint32_t victim,
                               const CharzOptions &opt)
{
    // Isolated per-row workspace: a sibling device over the shared
    // (immutable) module spec, subarray map, and fault model, with a
    // deterministic per-(bank,row) RNG stream. Mutable row/pending
    // state starts empty, so no cross-row contamination and no shared
    // mutation between worker threads.
    dram::DramDevice workspace(
        device_.spec(), device_.subarraysShared(), device_.modelShared(),
        hashSeed({kRowWorkspaceTag, bank, victim}));
    bender::TestSession session(workspace);
    uint64_t measurements = 0;
    RowResult out =
        characterizeRowOn(session, bank, victim, opt, measurements);
    berMeasurements_.fetch_add(measurements,
                               std::memory_order_relaxed);
    // Alg. 1 hammer-and-read probes taken (all rows, all iterations).
    static const obs::MetricId ber_ctr =
        obs::counter("charz.ber_measurements");
    obs::add(ber_ctr, measurements);
    return out;
}

std::vector<RowResult>
Characterizer::characterizeModule(const CharzOptions &opt)
{
    SVARD_ASSERT(opt.rowStep >= 1, "rowStep must be >= 1");
    // One flat (bank, victim) task pool across all banks, bank-major,
    // so a straggler bank does not idle the other workers.
    std::vector<std::pair<uint32_t, uint32_t>> tasks;
    for (uint32_t bank : opt.banks) {
        for (uint32_t r = 0; r < device_.spec().rowsPerBank;
             r += opt.rowStep)
            tasks.push_back({bank, r});
        for (uint32_t r : opt.extraRows)
            if (r % opt.rowStep != 0)
                tasks.push_back({bank, r});
    }

    static const obs::MetricId rows_ctr = obs::counter("charz.rows");
    static const obs::MetricId row_wall =
        obs::histogram("charz.row_wall_us");
    obs::Span batch_span("charz", "row_batch");
    batch_span.arg("rows", static_cast<uint64_t>(tasks.size()));
    obs::ProgressMeter progress("charz", tasks.size(), "rows");
    std::vector<RowResult> out(tasks.size());
    parallelFor(tasks.size(), opt.threads, [&](size_t i) {
        const auto [bank, victim] = tasks[i];
        obs::Span row_span("charz", "row");
        row_span.arg("bank", static_cast<uint64_t>(bank));
        row_span.arg("row", static_cast<uint64_t>(victim));
        const auto start = std::chrono::steady_clock::now();
        out[i] = characterizeRow(bank, victim, opt);
        obs::add(rows_ctr);
        obs::observe(
            row_wall,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
        progress.tick();
    });
    progress.finish();
    return out;
}

core::VulnProfile
buildProfile(const dram::ModuleSpec &spec,
             const std::vector<RowResult> &results, uint32_t num_bins)
{
    SVARD_ASSERT(!results.empty(), "no characterization results");
    // Tested rows per bank, sorted by physical row (the profile's key
    // space) for interpolation.
    std::map<uint32_t, std::vector<std::pair<uint32_t, int64_t>>> tested;
    for (const auto &r : results)
        tested[r.bank].push_back({r.physRow, r.hcFirst});
    for (auto &[bank, rows] : tested)
        std::sort(rows.begin(), rows.end());

    // An untested bank borrows the first tested bank's rows (a union
    // of the tested banks would be unsafe to fabricate).
    const auto &fallback = tested.begin()->second;
    return core::VulnProfile::fromTestedCounts(
        spec.label + "-measured", spec.banks, spec.rowsPerBank, num_bins,
        [&](uint32_t bank, uint32_t r) {
            const auto found = tested.find(bank);
            const auto &rows =
                found != tested.end() ? found->second : fallback;
            // Nearest tested row, the lower one on a tie; rows before
            // the first tested row take that row's count.
            const auto next = std::upper_bound(
                rows.begin(), rows.end(), r,
                [](uint32_t row, const auto &t) { return row < t.first; });
            if (next == rows.begin())
                return next->second;
            const auto prev = next - 1;
            if (next != rows.end() && next->first - r < r - prev->first)
                return next->second;
            return prev->second;
        });
}

} // namespace svard::charz
