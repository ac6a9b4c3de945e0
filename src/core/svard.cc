#include "core/svard.h"

#include <algorithm>

#include "common/log.h"

namespace svard::core {

double
ThresholdProvider::aggressorBudget(uint32_t bank, uint32_t row) const
{
    // An activation of `row` disturbs its neighbors; the aggressor's
    // budget is the weakest neighbor's threshold. Edge rows have one
    // neighbor.
    double budget = worstCase() * 1e9; // larger than any real bound
    if (row > 0)
        budget = std::min(budget, victimThreshold(bank, row - 1));
    if (row + 1 < rowsPerBank())
        budget = std::min(budget, victimThreshold(bank, row + 1));
    return budget;
}

Svard::Svard(std::shared_ptr<const VulnProfile> profile)
    : profile_(std::move(profile))
{
    SVARD_ASSERT(profile_ != nullptr, "Svard needs a profile");
}

double
Svard::victimThreshold(uint32_t bank, uint32_t row) const
{
    return profile_->thresholdOf(bank, row);
}

double
Svard::worstCase() const
{
    return profile_->minThreshold();
}

uint32_t
Svard::rowsPerBank() const
{
    return profile_->rowsPerBank();
}

uint32_t
Svard::banks() const
{
    return profile_->banks();
}

} // namespace svard::core
