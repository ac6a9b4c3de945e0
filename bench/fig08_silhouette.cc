/**
 * @file
 * Reproduces paper Fig. 8: the silhouette score of clustering DRAM
 * rows into k subarrays, swept over k, for the Mfr. S modules (as in
 * the paper's figure). The score peaks at the true subarray count and
 * decreases beyond it. Default scale probes the first SVARD_SUBARRAYS
 * subarrays (12 by default) plus the first rows of the next one, so
 * the probed range spans SVARD_SUBARRAYS + 1 subarrays; SVARD_FULL=1
 * probes the whole bank.
 */
#include "bench_util.h"
#include "charz/reveng.h"

using namespace svard;
using namespace svard::bench;

int
main()
{
    Table t("Fig. 8: silhouette score of k-means row clustering vs k "
            "(Mfr. S modules)",
            {"Module", "k", "Silhouette", "BestK", "TrueSubarrays"});

    for (const auto &label : {"S0", "S1", "S2", "S3", "S4"}) {
        ModuleRig rig(label);
        bender::TestSession session(rig.device);
        charz::RevEngOptions opt;
        opt.firstRow = 1;
        uint32_t true_count;
        if (fullScale()) {
            opt.lastRow = 0; // full bank
            true_count = rig.subarrays->numSubarrays();
        } else {
            const uint32_t n = static_cast<uint32_t>(
                envInt("SVARD_SUBARRAYS", 12));
            opt.lastRow = rig.subarrays->subarrayBase(n) + 10;
            // Rows 1 .. base(n) + 10 reach into subarray n, so the
            // probe spans subarrays 0..n: n + 1 of them.
            true_count = n + 1;
        }
        const auto res = charz::reverseEngineerSubarrays(session, opt);
        for (const auto &pt : res.silhouette)
            t.addRow({label, Table::fmt(int64_t(pt.k)),
                      Table::fmt(pt.score, 3),
                      Table::fmt(int64_t(res.bestK)),
                      Table::fmt(int64_t(true_count))});
    }
    t.print();
    return 0;
}
