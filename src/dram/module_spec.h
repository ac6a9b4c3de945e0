/**
 * @file
 * Database of the 15 DDR4 modules the paper characterizes (Table 1 and
 * Table 5), together with the calibration parameters our fault model
 * uses to reproduce each module's published read-disturbance behaviour
 * (Figs. 3-7, Table 3, Table 5).
 */
#ifndef SVARD_DRAM_MODULE_SPEC_H
#define SVARD_DRAM_MODULE_SPEC_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace svard::dram {

/** DRAM chip manufacturer (anonymized as H/M/S in the paper's labels). */
enum class Vendor : uint8_t { SKHynix, Micron, Samsung };

const char *vendorName(Vendor v);
/** Single-letter prefix used in module labels ('H', 'M', 'S'). */
char vendorLetter(Vendor v);

/**
 * A spatial feature whose bit correlates with HC_first in a module
 * (paper Table 3). The fault model injects these correlations for the
 * four Samsung modules the paper reports; the characterization-side F1
 * analysis must then rediscover them.
 */
struct FeatureEffect
{
    enum class Kind : uint8_t { BankAddr, RowAddr, SubarrayAddr, Distance };
    Kind kind;
    int bit;           ///< bit position within the feature's binary value
    double strength;   ///< shift applied to ln(HC_first) when bit is set
};

const char *featureKindName(FeatureEffect::Kind k);

/**
 * Full description of one tested module: identity (Table 5 columns),
 * geometry, and fault-model calibration targets.
 */
struct ModuleSpec
{
    // --- identity (paper Tables 1 and 5) ---
    std::string label;        ///< e.g. "H0"
    Vendor vendor;
    std::string moduleId;     ///< vendor module part number
    std::string chipId;       ///< DRAM chip part number
    int dataRateMts;          ///< interface speed (MT/s)
    std::string mfrDate;      ///< ww-yy, "N/A" if unknown
    int densityGb;            ///< per-chip density
    std::string dieRev;       ///< die revision letter
    int orgWidth;             ///< x4 / x8 / x16

    // --- geometry ---
    uint32_t rowsPerBank;     ///< rows in each bank (Table 5)
    uint32_t banks = 16;      ///< 4 bank groups x 4 banks (DDR4)
    uint32_t bankGroups = 4;
    uint32_t rowBytes = 8192; ///< rank-level row size (paper Sec. 6.4)

    // --- HC_first calibration (Table 5, in hammers; K = 2^10) ---
    int64_t hcFirstMin;
    int64_t hcFirstAvg;
    int64_t hcFirstMax;

    // --- BER calibration at HC=128K, tAggOn=36ns (Fig. 3) ---
    double berMean;           ///< mean fraction of flipped cells per row
    double berCvPct;          ///< coefficient of variation across rows (%)

    // --- spatial BER structure (Fig. 4) ---
    double berSpatialAmp;     ///< amplitude of the periodic component
    int berSpatialPeriods;    ///< periods across the bank
    double chunkLo = 0.0;     ///< elevated-chunk begin (relative location)
    double chunkHi = 0.0;     ///< elevated-chunk end; == begin -> no chunk
    double chunkAmp = 0.0;    ///< extra BER factor inside the chunk

    // --- RowPress calibration (Fig. 7) ---
    double pressExponent;     ///< actWeight ~ (tAggOn/tRAS)^pressExponent

    // --- Table 3 correlations (empty for 11 of 15 modules) ---
    // The first effect is the module's *primary* weakness cause: its
    // strength is the full ln-separation of a bimodal HC_first
    // distribution. Later effects add smaller shifts. Correlated
    // geometric bits (e.g. row-address bits aliasing the subarray
    // index) then also score high in the F1 analysis, which is how a
    // single physical cause yields several Table 3 rows.
    std::vector<FeatureEffect> featureEffects;

    // --- subarray structure (Sec. 5.4.1: 330..1027 rows, 32..206/bank) ---
    int subarrayRowsMean;
    int subarrayRowsJitter;   ///< +/- uniform jitter on each size

    // --- in-DRAM logical->physical row scrambling scheme id ---
    int rowMappingScheme;

    uint64_t seed;            ///< master seed for this module's model

    /** Residual ln-spread override when featureEffects drive the
     *  distribution (0 = derive from the min/max span). */
    double hcSigmaOverride = 0.0;

    /**
     * Explicit center (in hammers) of the strong population for
     * bimodal modules whose weak population clips at the module
     * minimum; 0 = derive the center from hcFirstAvg via the cosh
     * correction. Placing the center mid-quantization-band keeps the
     * measured HC_first classes stable under small severity error.
     */
    double hcBimodalHighCenter = 0.0;

    /** Spread of ln(HC_first) across rows: the override when set,
     *  otherwise derived from the min/max span. */
    double hcSigma() const;
};

/** All 15 modules of Table 5, in paper order (H0..H4, M0..M4, S0..S4). */
const std::vector<ModuleSpec> &allModules();

/** Lookup by label; fatal error if unknown. */
const ModuleSpec &moduleByLabel(std::string_view label);

/** The 14 hammer counts Alg. 1 tests, ascending (1K..128K, K=2^10). */
const std::vector<int64_t> &testedHammerCounts();

} // namespace svard::dram

#endif // SVARD_DRAM_MODULE_SPEC_H
