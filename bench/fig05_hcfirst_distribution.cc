/**
 * @file
 * Reproduces paper Fig. 5: the distribution of HC_first across DRAM
 * rows, per module, as the fraction of rows measured at each tested
 * hammer count, with min/max across the four tested banks as error
 * bars and the per-manufacturer minimum marked.
 */
#include <map>

#include "bench_util.h"
#include "common/stats.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    const auto &labels_hc = dram::testedHammerCounts();
    Table t("Fig. 5: HC_first distribution across rows",
            {"Module", "HCfirst", "Fraction", "MinAcrossBanks",
             "MaxAcrossBanks"});
    std::map<char, int64_t> mfr_min;

    for (const auto &label : allLabels()) {
        ModuleRig rig(label);
        auto opt = benchCharzOptions(rig.spec, /*quick_wcdp=*/false);
        opt.iterations = 2;
        std::map<int64_t, std::vector<double>> per_bank_fraction;
        int64_t module_min = labels_hc.back();

        const auto results = rig.charz.characterizeModule(opt);
        for (uint32_t bank : opt.banks) {
            CategoricalHistogram hist(labels_hc);
            for (const auto &r : results) {
                if (r.bank != bank)
                    continue;
                hist.add(r.hcFirst);
                module_min = std::min(module_min, r.hcFirst);
            }
            for (int64_t hc : labels_hc)
                per_bank_fraction[hc].push_back(hist.fraction(hc));
        }
        for (int64_t hc : labels_hc) {
            const auto &fr = per_bank_fraction[hc];
            const double m = mean(fr);
            if (m <= 0.0)
                continue;
            t.addRow({label, Table::fmtHc(hc), Table::fmt(m, 4),
                      Table::fmt(minOf(fr), 4),
                      Table::fmt(maxOf(fr), 4)});
        }
        const char v = dram::vendorLetter(rig.spec.vendor);
        auto it = mfr_min.find(v);
        if (it == mfr_min.end() || module_min < it->second)
            mfr_min[v] = module_min;
    }
    t.print();

    Table m("Fig. 5: minimum HC_first per manufacturer (red line)",
            {"Mfr", "MinHCfirst"});
    for (const auto &[v, hc] : mfr_min)
        m.addRow({std::string("Mfr. ") + v, Table::fmtHc(hc)});
    m.print();
    return 0;
}
