/**
 * @file
 * Reproduces paper Fig. 4: BER at 128K hammers as a function of the
 * row's relative location in its bank. The curve is the per-location
 * mean across the four tested banks, normalized to the curve's
 * minimum (the paper's y-axis); the shades are the min/max across
 * banks at each location. The periodic structure (e.g. S4's minima at
 * 0.25 multiples) and M1's elevated chunk around [0.03, 0.12] should
 * be visible.
 */
#include <array>

#include "bench_util.h"
#include "common/stats.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    constexpr int kBuckets = 20;
    Table t("Fig. 4: BER vs relative row location "
            "(per-location mean, normalized to the curve minimum; "
            "min/max across banks)",
            {"Module", "RelLoc", "NormBER", "MinAcrossBanks",
             "MaxAcrossBanks"});

    for (const auto &label : allLabels()) {
        ModuleRig rig(label);
        auto opt = benchCharzOptions(rig.spec);

        // Per-(bank, bucket) mean of interior-row BER (subarray-edge
        // rows receive one-sided disturbance and belong to Fig. 3's
        // low whisker, not the location curve).
        const auto results = rig.charz.characterizeModule(opt);
        std::vector<std::array<double, kBuckets>> bank_means;
        for (uint32_t bank : opt.banks) {
            std::array<std::vector<double>, kBuckets> buckets;
            for (const auto &r : results) {
                if (r.bank != bank || r.ber128k <= 0.0 ||
                    r.numAggressors != 2)
                    continue;
                int b = static_cast<int>(r.relativeLocation * kBuckets);
                if (b >= kBuckets)
                    b = kBuckets - 1;
                buckets[b].push_back(r.ber128k);
            }
            std::array<double, kBuckets> means{};
            for (int b = 0; b < kBuckets; ++b)
                means[b] = mean(buckets[b]);
            bank_means.push_back(means);
        }

        // Curve = mean across banks; normalize to the curve minimum.
        std::array<double, kBuckets> curve{}, lo{}, hi{};
        double curve_min = 1e18;
        for (int b = 0; b < kBuckets; ++b) {
            std::vector<double> vals;
            for (const auto &m : bank_means)
                if (m[b] > 0.0)
                    vals.push_back(m[b]);
            if (vals.empty())
                continue;
            curve[b] = mean(vals);
            lo[b] = minOf(vals);
            hi[b] = maxOf(vals);
            curve_min = std::min(curve_min, curve[b]);
        }
        if (curve_min >= 1e18)
            continue;
        for (int b = 0; b < kBuckets; ++b) {
            if (curve[b] <= 0.0)
                continue;
            t.addRow({label, Table::fmt((b + 0.5) / kBuckets, 3),
                      Table::fmt(curve[b] / curve_min, 3),
                      Table::fmt(lo[b] / curve_min, 3),
                      Table::fmt(hi[b] / curve_min, 3)});
        }
    }
    t.print();
    return 0;
}
