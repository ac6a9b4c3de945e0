#include "charz/reveng.h"

#include <algorithm>
#include <set>

#include "analysis/kmeans.h"
#include "common/log.h"

namespace svard::charz {

namespace {

constexpr uint8_t kVictimFill = 0x00;
constexpr uint8_t kAggrFill = 0xFF;

/** Hammer one row and report which of two flanking rows flipped. */
struct ProbeOutcome
{
    bool lowFlipped = false;
    bool highFlipped = false;
};

ProbeOutcome
probeRow(bender::TestSession &session, uint32_t bank, uint32_t phys,
         const RevEngOptions &opt)
{
    auto &dev = session.device();
    const auto &map = dev.mapping();
    const uint32_t l = map.toLogical(phys);
    const uint32_t lo = map.toLogical(phys - 1);
    const uint32_t hi = map.toLogical(phys + 1);
    session.initRow(bank, lo, kVictimFill);
    session.initRow(bank, hi, kVictimFill);
    session.initRow(bank, l, kAggrFill);
    session.hammerSingleSided(bank, l, opt.hammerCount, opt.tAggOn);
    ProbeOutcome out;
    out.lowFlipped =
        session.readAndCompare(bank, lo, kVictimFill).flippedBits > 0;
    out.highFlipped =
        session.readAndCompare(bank, hi, kVictimFill).flippedBits > 0;
    return out;
}

} // anonymous namespace

SubarrayRevEng
reverseEngineerSubarrays(bender::TestSession &session,
                         const RevEngOptions &opt, uint32_t k_sweep_max)
{
    auto &dev = session.device();
    const auto &map = dev.mapping();
    const uint32_t rows = dev.spec().rowsPerBank;
    const uint32_t first = std::max(opt.firstRow, 1u);
    const uint32_t last =
        opt.lastRow == 0 ? rows - 2 : std::min(opt.lastRow, rows - 2);
    SVARD_ASSERT(first < last, "empty reveng range");

    SubarrayRevEng out;

    // --- Key Insight 1: one-sided disturbance marks subarray edges ---
    std::set<uint32_t> candidates;
    for (uint32_t p = first; p <= last; ++p) {
        const ProbeOutcome o = probeRow(session, opt.bank, p, opt);
        if (o.highFlipped && !o.lowFlipped)
            candidates.insert(p);       // boundary between p-1 and p
        else if (o.lowFlipped && !o.highFlipped)
            candidates.insert(p + 1);   // boundary between p and p+1
    }
    out.candidates.assign(candidates.begin(), candidates.end());

    // --- Key Insight 2: successful RowClone invalidates a boundary ---
    for (uint32_t b : out.candidates) {
        if (b == 0 || b >= rows)
            continue;
        const bool cloned = dev.rowClone(
            opt.bank, map.toLogical(b - 1), map.toLogical(b), 0);
        if (!cloned)
            out.boundaries.push_back(b);
    }

    // --- k-means + silhouette sweep over candidate subarray counts ---
    const uint32_t span = last - first + 1;
    const uint32_t n_boundaries =
        static_cast<uint32_t>(out.boundaries.size());
    const uint32_t true_guess = n_boundaries + 1;

    // Feature space: dominant cumulative-boundary coordinate (plateaus
    // per subarray) plus a mild positional coordinate.
    constexpr size_t kMaxPoints = 2048;
    const uint32_t step =
        std::max(1u, span / static_cast<uint32_t>(kMaxPoints));
    std::vector<analysis::Point> points;
    size_t cum = 0, bi = 0;
    for (uint32_t p = first; p <= last; p += step) {
        while (bi < out.boundaries.size() && out.boundaries[bi] <= p) {
            ++bi;
        }
        cum = bi;
        points.push_back(
            {0.25 * static_cast<double>(p - first) /
                 static_cast<double>(span),
             4.0 * static_cast<double>(cum) /
                 std::max(1.0, static_cast<double>(n_boundaries))});
    }

    const uint32_t k_hi =
        k_sweep_max > 0 ? k_sweep_max
                        : std::max(4u, true_guess + true_guess / 2);
    std::set<uint32_t> ks;
    for (uint32_t k = 2; k <= k_hi;
         k += std::max(1u, k_hi / 24))
        ks.insert(k);
    for (int d = -2; d <= 2; ++d) {
        const int64_t k = static_cast<int64_t>(true_guess) + d;
        if (k >= 2 && k <= static_cast<int64_t>(points.size()))
            ks.insert(static_cast<uint32_t>(k));
    }

    double best_score = -2.0;
    for (uint32_t k : ks) {
        if (k > points.size())
            continue;
        const auto res = analysis::kMeans(points, k, 17, 30);
        const double s =
            analysis::silhouetteScore(points, res.assignment, k, 1024);
        out.silhouette.push_back({k, s});
        if (s > best_score) {
            best_score = s;
            out.bestK = k;
        }
    }
    std::sort(out.silhouette.begin(), out.silhouette.end(),
              [](const SilhouettePoint &a, const SilhouettePoint &b) {
                  return a.k < b.k;
              });
    return out;
}

} // namespace svard::charz
