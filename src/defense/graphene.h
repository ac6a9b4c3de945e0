/**
 * @file
 * Graphene-style exact counter defense (Park et al., MICRO 2020),
 * idealized: per-row activation counts per refresh window (we model
 * the Misra-Gries table as large enough to be exact, which Graphene's
 * sizing guarantees for the tracked threshold); a row crossing half
 * its budget triggers neighbor refreshes. Included as the extension /
 * ablation reference: a defense whose only overhead is the preventive
 * refreshes themselves.
 */
#ifndef SVARD_DEFENSE_GRAPHENE_H
#define SVARD_DEFENSE_GRAPHENE_H

#include "defense/defense.h"

namespace svard::defense {

class Graphene : public RowCountDefense
{
  public:
    /** Fraction of the budget at which a row's neighbors refresh. */
    static constexpr double kRefreshFraction = 0.5;

    using RowCountDefense::RowCountDefense;

    const char *name() const override { return "Graphene"; }

    void onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                    std::vector<PreventiveAction> &out) override;
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_GRAPHENE_H
