/**
 * @file
 * Reverse engineering of DRAM-internal organization from the memory
 * interface, as the paper's methodology requires (Sec. 4.2, 5.4.1):
 *
 *  1. Subarray boundaries (Key Insight 1): a row at a subarray edge
 *     disturbs rows on only one side. Candidates are validated with
 *     intra-subarray RowClone (Key Insight 2): a *successful* clone
 *     proves two rows share a subarray and invalidates a boundary
 *     between them.
 *  2. k-means + silhouette sweep (Fig. 8): rows are clustered into k
 *     groups from their position and cumulative-boundary features; the
 *     silhouette-maximizing k estimates the subarray count.
 */
#ifndef SVARD_CHARZ_REVENG_H
#define SVARD_CHARZ_REVENG_H

#include <cstdint>
#include <vector>

#include "bender/test_session.h"

namespace svard::charz {

/** Options for the reverse-engineering sweeps. */
struct RevEngOptions
{
    uint32_t bank = 1;

    /** Activations per probed row; combined with the pressed on-time
     *  this exceeds every row's threshold under any data pattern and
     *  per-row sensitivity draw, so interior neighbors always flip. */
    uint64_t hammerCount = 256 * 1024;
    dram::Tick tAggOn = 2 * dram::kPsPerUs;

    /** Physical row range to probe (subarray reveng); 0,0 = full bank. */
    uint32_t firstRow = 0;
    uint32_t lastRow = 0;
};

/** One point of the Fig. 8 silhouette curve. */
struct SilhouettePoint
{
    uint32_t k;
    double score;
};

/** Output of the subarray reverse-engineering pipeline. */
struct SubarrayRevEng
{
    /** Physical rows r such that a boundary lies between r-1 and r,
     *  after RowClone validation. */
    std::vector<uint32_t> boundaries;

    /** Candidates before RowClone validation (diagnostics). */
    std::vector<uint32_t> candidates;

    /** Silhouette score per tested k (Fig. 8). */
    std::vector<SilhouettePoint> silhouette;

    /** k at the silhouette global maximum = estimated subarray count. */
    uint32_t bestK = 0;
};

/**
 * Run the full subarray reverse-engineering pipeline of Sec. 5.4.1
 * against the probed row range. `k_sweep_max` bounds the silhouette
 * sweep (0 = up to 1.5x the candidate count).
 */
SubarrayRevEng reverseEngineerSubarrays(bender::TestSession &session,
                                        const RevEngOptions &opt,
                                        uint32_t k_sweep_max = 0);

} // namespace svard::charz

#endif // SVARD_CHARZ_REVENG_H
