/**
 * @file
 * Row-level read-disturbance vulnerability profile: the data structure
 * at the heart of Svärd (paper Sec. 6). Each DRAM row is assigned a
 * small vulnerability bin id (<= 16 bins, 4 bits); each bin carries a
 * *safe* HC_first lower bound — the largest tested hammer count at
 * which no row of the bin flipped. Defenses configured from a bin's
 * bound therefore keep the paper's security guarantees (Sec. 6.3).
 *
 * A profile is an immutable value, so any number of threads may read
 * one without coordination.
 */
#ifndef SVARD_CORE_VULN_PROFILE_H
#define SVARD_CORE_VULN_PROFILE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/vuln_model.h"

namespace svard::core {

/**
 * Per-row vulnerability bins for one module (all banks), keyed by
 * *physical* row address: the space in which adjacency is +-1 and in
 * which defenses reason about aggressors and victims. (Deployments
 * translate interface addresses through the reverse-engineered in-DRAM
 * mapping before consulting the profile, exactly as the paper's
 * methodology does for hammering.)
 *
 * Immutable: the bins live in one flat bank-major array behind a
 * shared pointer, and the occupied-bin range is computed once, in the
 * constructor. scaledTo() copies only the bin bounds.
 */
class VulnProfile
{
  public:
    /**
     * @param label profile name (e.g. the source module, "S0")
     * @param banks number of banks
     * @param rows_per_bank rows per bank
     * @param bin_bounds safe HC_first lower bound per bin, ascending
     * @param bins bin id of every row, bank-major
     *        (`bank * rows_per_bank + row`); each below bin_bounds.size()
     */
    VulnProfile(std::string label, uint32_t banks, uint32_t rows_per_bank,
                std::vector<double> bin_bounds, std::vector<uint8_t> bins);

    /**
     * The one binning scheme of every profile builder: one bin per
     * tested hammer count, whose safe bound is the previous tested
     * count (no flips were observed there; the weakest bin backs off to
     * 3/4 of its count). To fit `num_bins`, bins merge from the weak
     * end upward into the weakest (safest) bound — merging strong bins
     * would forfeit Svärd's benefit where it is largest.
     *
     * @param tested_hc_first a row's HC_first, one of
     *        dram::testedHammerCounts() (as quantizeHc() returns)
     * @param num_bins 1..16
     */
    static VulnProfile fromTestedCounts(
        std::string label, uint32_t banks, uint32_t rows_per_bank,
        uint32_t num_bins,
        const std::function<int64_t(uint32_t bank, uint32_t row)>
            &tested_hc_first);

    /**
     * Build a profile directly from the fault model (oracle profile):
     * every row's continuous HC_first is quantized to the tested
     * hammer counts and binned by fromTestedCounts(). This matches what
     * a complete characterization run measures; the charz library
     * bins actual Alg. 1 measurements the same way.
     *
     * @param num_bins at most 16; tested-hammer-count bins are merged
     *        from the weak end upward to fit.
     */
    static VulnProfile fromModel(const fault::VulnerabilityModel &model,
                                 uint32_t num_bins = 14);

    uint8_t binOf(uint32_t bank, uint32_t row) const;

    /** Safe HC_first lower bound of a row. */
    double thresholdOf(uint32_t bank, uint32_t row) const;

    /**
     * The module's worst-case safe threshold: the smallest bound among
     * bins that actually contain rows (the paper's "minimum observed
     * HC_first"; bins below the module minimum stay empty and must not
     * anchor the profile's scaling).
     */
    double minThreshold() const { return binBounds_[minOccupied_]; }

    /** Largest occupied bin bound. */
    double maxThreshold() const { return binBounds_[maxOccupied_]; }

    /**
     * Scaled copy for future-chip evaluation (paper Sec. 7.1): all bin
     * bounds multiplied so the minimum bound equals
     * `target_min_hc_first`, preserving the distribution's shape. The
     * copy shares this profile's bins.
     */
    VulnProfile scaledTo(double target_min_hc_first) const;

    /**
     * Re-sample the profile onto a different chip geometry (the
     * simulated system's bank/row counts differ from the
     * characterized module's): each target row inherits the bin of
     * the proportionally-located source row, preserving the spatial
     * structure of the vulnerability distribution.
     */
    VulnProfile resampledTo(uint32_t banks, uint32_t rows_per_bank) const;

    const std::string &label() const { return label_; }
    uint32_t banks() const { return banks_; }
    uint32_t rowsPerBank() const { return rowsPerBank_; }
    uint32_t numBins() const
    {
        return static_cast<uint32_t>(binBounds_.size());
    }
    const std::vector<double> &binBounds() const { return binBounds_; }

    /** Fraction of rows in each bin (profile shape diagnostics). */
    std::vector<double> binOccupancy() const;

    /** Metadata bits needed: bits-per-row x rows (Sec. 6.4). */
    uint64_t metadataBits() const;

  private:
    std::string label_;
    uint32_t banks_;
    uint32_t rowsPerBank_;
    std::vector<double> binBounds_;
    std::shared_ptr<const std::vector<uint8_t>> bins_; ///< bank-major
    uint8_t minOccupied_ = 0; ///< lowest bin holding a row
    uint8_t maxOccupied_ = 0; ///< highest bin holding a row
};

} // namespace svard::core

#endif // SVARD_CORE_VULN_PROFILE_H
