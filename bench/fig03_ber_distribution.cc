/**
 * @file
 * Reproduces paper Fig. 3: the distribution of per-row BER at a hammer
 * count of 128K (tAggOn = 36 ns) across rows of four banks (one per
 * bank group) of every module, as box-and-whiskers statistics with the
 * row-level coefficient of variation annotated per module.
 */
#include "bench_util.h"
#include "common/stats.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    Table t("Fig. 3: BER distribution across rows and banks "
            "(HC=128K, tAggOn=36ns, WCDP; interior rows — subarray-"
            "edge rows receive one-sided disturbance and sit far "
            "below the distribution)",
            {"Module", "Bank", "Min", "Q1", "Median", "Q3", "Max",
             "Mean", "CV%(meas)", "CV%(paper)"});

    for (const auto &label : allLabels()) {
        ModuleRig rig(label);
        // Full 6-pattern WCDP: the stripe-only quick mode adds
        // per-row severity noise that inflates the CV. Iterations
        // with worst-case recording tame the counting noise of
        // low-BER modules (tens of flips per row), as the paper's
        // ten-iteration methodology does.
        auto opt = benchCharzOptions(rig.spec, /*quick_wcdp=*/false);
        opt.iterations = static_cast<int>(envInt("SVARD_ITERS", 3));
        const auto results = rig.charz.characterizeModule(opt);
        std::vector<double> all_rows;
        for (uint32_t bank : opt.banks) {
            std::vector<double> bers;
            for (const auto &r : results)
                if (r.bank == bank && r.ber128k > 0.0 &&
                    r.numAggressors == 2)
                    bers.push_back(r.ber128k);
            all_rows.insert(all_rows.end(), bers.begin(), bers.end());
            const BoxStats bs = boxStats(bers);
            t.addRow({label, Table::fmt(int64_t(bank)),
                      Table::fmt(bs.min, 6), Table::fmt(bs.q1, 6),
                      Table::fmt(bs.median, 6), Table::fmt(bs.q3, 6),
                      Table::fmt(bs.max, 6), Table::fmt(bs.mean, 6),
                      "", ""});
        }
        const double cv = coefficientOfVariation(all_rows) * 100.0;
        t.addRow({label, "all", "", "", "", "", "",
                  Table::fmt(mean(all_rows), 6), Table::fmt(cv, 2),
                  Table::fmt(rig.spec.berCvPct, 2)});
    }
    t.print();
    return 0;
}
