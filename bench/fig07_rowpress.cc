/**
 * @file
 * Reproduces paper Fig. 7: the effect of the aggressor row's on-time
 * (tAggOn: 36ns, 0.5us, 2us) on the HC_first distribution, per
 * manufacturer, as box-and-whiskers statistics. RowPress: HC_first
 * drops with increasing on-time while the row-to-row variation stays
 * large (CV ~25-30%).
 */
#include <map>

#include "bench_util.h"
#include "common/stats.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    const dram::Tick t_ons[] = {36 * dram::kPsPerNs,
                                dram::kPsPerUs / 2,
                                2 * dram::kPsPerUs};
    const char *t_on_names[] = {"36ns", "0.5us", "2us"};

    Table t("Fig. 7: effect of tAggOn on HC_first (per manufacturer)",
            {"Mfr", "tAggOn", "Min", "Q1", "Median", "Q3", "Max",
             "Mean", "CV%"});

    std::map<char, std::map<int, std::vector<double>>> per_mfr;
    for (const auto &label : allLabels()) {
        ModuleRig rig(label);
        auto opt = benchCharzOptions(rig.spec);
        opt.banks = {1};
        // The tAggOn sweep triples the work; halve the row sample.
        opt.rowStep *= 2;
        ++opt.rowStep;
        for (int i = 0; i < 3; ++i) {
            auto o = opt;
            o.tAggOn = t_ons[i];
            const auto results = rig.charz.characterizeModule(o);
            auto &bucket =
                per_mfr[dram::vendorLetter(rig.spec.vendor)][i];
            for (const auto &r : results)
                bucket.push_back(static_cast<double>(r.hcFirst));
        }
    }

    for (const auto &[mfr, by_ton] : per_mfr) {
        for (const auto &[i, hcs] : by_ton) {
            const BoxStats bs = boxStats(hcs);
            t.addRow({std::string("Mfr. ") + mfr, t_on_names[i],
                      Table::fmtHc(int64_t(bs.min)),
                      Table::fmtHc(int64_t(bs.q1)),
                      Table::fmtHc(int64_t(bs.median)),
                      Table::fmtHc(int64_t(bs.q3)),
                      Table::fmtHc(int64_t(bs.max)),
                      Table::fmt(bs.mean / 1024.0, 1) + "K",
                      Table::fmt(coefficientOfVariation(hcs) * 100.0,
                                 1)});
        }
    }
    t.print();
    return 0;
}
