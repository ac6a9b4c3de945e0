/**
 * @file
 * Reproduces paper Table 5 (and Table 1): the tested modules with the
 * minimum / average / maximum HC_first measured across all tested rows
 * by the Alg. 1 characterization, next to the paper's published values.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    Table t("Table 5: tested DDR4 modules, measured HC_first vs paper",
            {"Module", "Vendor", "Freq", "Den.", "Rev", "Org",
             "Rows/Bank", "Min(meas)", "Avg(meas)", "Max(meas)",
             "Min(paper)", "Avg(paper)", "Max(paper)"});

    for (const auto &label : allLabels()) {
        ModuleRig rig(label);
        // Full WCDP + worst-case-of-2 recording: the quick stripe
        // mode overestimates HC_first by up to one tested count.
        auto opt = benchCharzOptions(rig.spec, /*quick_wcdp=*/false);
        opt.iterations = 2;
        opt.banks = {1};
        // Always include the weakest row so the measured minimum is
        // the module minimum even under subsampling.
        opt.extraRows = {rig.device.mapping().toLogical(
            rig.model->weakestRow(1))};
        const auto results = rig.charz.characterizeModule(opt);

        std::vector<double> hcs;
        for (const auto &r : results)
            hcs.push_back(static_cast<double>(r.hcFirst));
        char org[8];
        std::snprintf(org, sizeof(org), "x%d", rig.spec.orgWidth);
        t.addRow({label, dram::vendorName(rig.spec.vendor),
                  Table::fmt(int64_t(rig.spec.dataRateMts)),
                  Table::fmt(int64_t(rig.spec.densityGb)) + "Gb",
                  rig.spec.dieRev, org,
                  Table::fmtHc(int64_t(rig.spec.rowsPerBank)),
                  Table::fmtHc(int64_t(minOf(hcs))),
                  Table::fmt(mean(hcs) / 1024.0, 1) + "K",
                  Table::fmtHc(int64_t(maxOf(hcs))),
                  Table::fmtHc(rig.spec.hcFirstMin),
                  Table::fmt(rig.spec.hcFirstAvg / 1024.0, 1) + "K",
                  Table::fmtHc(rig.spec.hcFirstMax)});
    }
    t.print();
    return 0;
}
