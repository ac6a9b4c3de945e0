/**
 * @file
 * DRAM timing parameter sets. DDR4 (JESD79-4C) covers the speed bins
 * of the modules in the paper's Table 5 (DDR4-2400/2666/2933/3200);
 * DDR5 (JESD79-5) and HBM2 (JESD235C pseudo-channel mode) tables back
 * the geometry presets that extend the evaluation beyond the paper's
 * fixed Table 4 system (see sim/presets.h). The standard is selected
 * by an explicit Standard enum — never by overloading the DDR4 MT/s
 * switch with foreign data rates.
 */
#ifndef SVARD_DRAM_TIMING_H
#define SVARD_DRAM_TIMING_H

#include "dram/types.h"

namespace svard::dram {

/** DRAM interface standard a TimingParams table belongs to. */
enum class Standard : uint8_t
{
    DDR4,
    DDR5,
    HBM2,
};

/**
 * DRAM timing constraints, all in picoseconds. Cycle-denominated JEDEC
 * values are pre-multiplied by tCK so consumers never deal in cycles.
 * Defaults are the DDR4-3200 bin.
 */
struct TimingParams
{
    Tick tCK = 625;            ///< clock period (DDR4-3200 default)
    Tick tRCD = 13750;         ///< ACT -> RD/WR
    Tick tRP = 13750;          ///< PRE -> ACT
    Tick tRAS = 32000;         ///< ACT -> PRE (min; charge restoration)
    Tick tRC = 45750;          ///< ACT -> ACT same bank
    Tick tCL = 13750;          ///< RD -> data
    Tick tCWL = 10000;         ///< WR -> data
    Tick tBL = 2500;           ///< burst length 8 = 4 tCK
    Tick tCCD_S = 2500;        ///< RD->RD / WR->WR, different bank group
    Tick tCCD_L = 3750;        ///< RD->RD / WR->WR, same bank group
    Tick tRRD_S = 3300;        ///< ACT->ACT, different bank group
    Tick tRRD_L = 4900;        ///< ACT->ACT, same bank group
    Tick tFAW = 21000;         ///< four-activate window
    Tick tWR = 15000;          ///< write recovery
    Tick tRTP = 7500;          ///< RD -> PRE
    Tick tWTR_S = 2500;        ///< WR -> RD, different bank group
    Tick tWTR_L = 7500;        ///< WR -> RD, same bank group
    Tick tRFC = 350000;        ///< REF -> next command (8Gb: 350ns)
    Tick tREFI = 7800000;      ///< average refresh interval (7.8us)
    Tick tREFW = 64 * kPsPerMs;///< refresh window (64ms at <= 85C)
};

/**
 * Timing preset for a DDR4 speed bin, selected by data rate in MT/s
 * (2400, 2666, 2933, or 3200 — the Table 5 bins).
 * @throws std::invalid_argument for any other rate; a silent fallback
 *         to 3200 used to hide typos like 2667.
 */
TimingParams ddr4Timing(int data_rate_mts);

/**
 * Timing preset for a DDR5 speed bin (JESD79-5B "B" bins), selected
 * by data rate in MT/s. Currently 4800 (DDR5-4800B: CL40,
 * tRCD/tRP = 16.67ns, tRAS = 32ns, BL16, tREFI = 3.9us,
 * tRFC1(16Gb) = 295ns, 32ms refresh window).
 * @throws std::invalid_argument for unknown rates.
 */
TimingParams ddr5Timing(int data_rate_mts);

/**
 * Timing preset for HBM2 pseudo-channel mode, selected by per-pin
 * data rate in MT/s. Currently 2000 (2.0 Gbps: tCK = 1ns, BL4,
 * tRCD/tRP = 14ns, tRAS = 33ns, tFAW = 16ns, tRFC(8Gb) = 260ns,
 * tREFI = 3.9us).
 * @throws std::invalid_argument for unknown rates.
 */
TimingParams hbm2Timing(int data_rate_mts);

/**
 * Timing table for (standard, data rate): dispatches to the
 * per-standard preset functions above.
 * @throws std::invalid_argument for rates the standard's table does
 *         not carry.
 */
TimingParams timingFor(Standard std, int data_rate_mts);

} // namespace svard::dram

#endif // SVARD_DRAM_TIMING_H
