/**
 * @file
 * Reproduces paper Fig. 6: HC_first vs the row's relative location in
 * the bank, normalized to the module's minimum HC_first. The paper's
 * takeaway — HC_first varies significantly but *irregularly* with
 * location (unlike BER) — shows up as bucket means with no consistent
 * trend; the bucket-to-bucket correlation is reported as evidence.
 */
#include <array>

#include "bench_util.h"
#include "common/stats.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    constexpr int kBuckets = 16;
    Table t("Fig. 6: HC_first vs relative row location "
            "(normalized to module minimum)",
            {"Module", "RelLoc", "Norm(mean)", "Norm(min)",
             "Norm(max)"});
    Table reg("Fig. 6 regularity check: |corr(location, HC_first)|",
              {"Module", "AbsPearson"});

    for (const auto &label : allLabels()) {
        ModuleRig rig(label);
        auto opt = benchCharzOptions(rig.spec);
        opt.banks = {1};
        const auto results = rig.charz.characterizeModule(opt);

        double min_hc = 1e18;
        for (const auto &r : results)
            min_hc = std::min(min_hc, double(r.hcFirst));

        std::array<std::vector<double>, kBuckets> buckets;
        std::vector<double> xs, ys;
        for (const auto &r : results) {
            int b = static_cast<int>(r.relativeLocation * kBuckets);
            if (b >= kBuckets)
                b = kBuckets - 1;
            buckets[b].push_back(double(r.hcFirst) / min_hc);
            xs.push_back(r.relativeLocation);
            ys.push_back(double(r.hcFirst));
        }
        for (int b = 0; b < kBuckets; ++b) {
            if (buckets[b].empty())
                continue;
            t.addRow({label, Table::fmt((b + 0.5) / kBuckets, 3),
                      Table::fmt(mean(buckets[b]), 2),
                      Table::fmt(minOf(buckets[b]), 2),
                      Table::fmt(maxOf(buckets[b]), 2)});
        }
        reg.addRow({label, Table::fmt(std::abs(pearson(xs, ys)), 3)});
    }
    t.print();
    reg.print();
    return 0;
}
