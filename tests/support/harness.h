/**
 * @file
 * Security harness: closes the loop between a defense and the
 * behavioral DRAM device. An adversary double-sided-hammers a victim;
 * every aggressor activation is observed by the defense, whose
 * preventive actions are applied to the device (victim refreshes,
 * throttle stalls, aggressor migration/swap remaps). The harness
 * reports whether any bitflip was induced — the paper's security
 * claim (Sec. 6.3) is that Svärd preserves "zero bitflips" while
 * reducing how often the defense acts. Only tests run it, so it lives
 * in the test support library, not in src/.
 */
#ifndef SVARD_TESTS_SUPPORT_HARNESS_H
#define SVARD_TESTS_SUPPORT_HARNESS_H

#include <cstdint>
#include <unordered_map>

#include "defense/defense.h"
#include "dram/device.h"

namespace svard::defense {

struct AttackOptions
{
    uint32_t bank = 1;
    uint32_t victim = 0;          ///< logical victim row
    dram::Tick tAggOn = 36 * dram::kPsPerNs;
    int refreshWindows = 2;       ///< attack duration in tREFW epochs
    uint64_t maxActsPerAggressor = 0; ///< 0 = fill the refresh window
    /** Attackers write disturbance-friendly data before hammering;
     *  both stripes are tried and the worse one kept. */
    bool initDataPatterns = true;
};

struct AttackResult
{
    uint64_t bitflips = 0;
    uint64_t aggressorActs = 0;
    uint64_t preventiveRefreshes = 0;
    uint64_t throttleEvents = 0;
    uint64_t migrations = 0;      ///< migrations + swaps
    dram::Tick throttledTime = 0;
};

/**
 * Run a double-sided RowHammer attack against `victim` with `defense`
 * in the loop (null = unprotected). Aggressor rows are the victim's
 * reverse-engineered physical neighbors; migrations/swaps remap the
 * aggressors away from the victim exactly as AQUA/RRS do.
 */
AttackResult runDoubleSidedAttack(dram::DramDevice &device,
                                  Defense *defense,
                                  const AttackOptions &opt);

} // namespace svard::defense

#endif // SVARD_TESTS_SUPPORT_HARNESS_H
