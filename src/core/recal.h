/**
 * @file
 * Online recalibration policies — the defense-side half of the
 * temporal-drift robustness layer. A defense calibrated at epoch 0
 * sees its profile go stale as per-row HC_first drifts
 * (fault/drift.h); a RecalPolicy decides *when* to pay for
 * re-characterization. Threshold escapes (rows whose true HC_first
 * fell below what the stale profile plus guardband still guarantees)
 * are counted per cell (engine/drift_eval.h) and summed in the run
 * manifest.
 *
 * Policy grammar (the registry the sweep axis parses):
 *   none                  never recalibrate
 *   periodic:<interval>   recalibrate every <interval> drift epochs
 *   reactive:<escapes>    recalibrate once >= <escapes> escapes were
 *                         observed since the last calibration
 *   margin:<headroom>     never recalibrate; add <headroom> to the
 *                         threshold guardband instead
 */
#ifndef SVARD_CORE_RECAL_H
#define SVARD_CORE_RECAL_H

#include <cstdint>
#include <string>

namespace svard::core {

enum class RecalKind : uint8_t
{
    None = 0,
    Periodic = 1,
    Reactive = 2,
    Margin = 3,
};

struct RecalPolicy
{
    RecalKind kind = RecalKind::None;
    double arg = 0.0; ///< interval epochs / escape count / headroom

    /** @throws std::invalid_argument on unknown grammar */
    static RecalPolicy parse(const std::string &text);

    /** Canonical name; parse(name()) round-trips. */
    std::string name() const;

    /** Extra guardband a margin policy buys (0 otherwise). */
    double
    extraGuardband() const
    {
        return kind == RecalKind::Margin ? arg : 0.0;
    }

    /** Should the defense recalibrate at the start of `epoch`, given
     *  the escapes observed since the previous calibration? */
    bool
    due(uint32_t epoch, uint64_t escapes_since_cal) const
    {
        switch (kind) {
          case RecalKind::Periodic: {
            const auto k = static_cast<uint32_t>(arg);
            return k > 0 && epoch % k == 0;
          }
          case RecalKind::Reactive:
            return escapes_since_cal >=
                   static_cast<uint64_t>(arg);
          default:
            return false;
        }
    }
};

} // namespace svard::core

#endif // SVARD_CORE_RECAL_H
