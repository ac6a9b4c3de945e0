#include "defense/rrs.h"

namespace svard::defense {

Rrs::Rrs(std::shared_ptr<const core::ThresholdProvider> thr,
         uint64_t seed)
    : RowCountDefense(std::move(thr)), rng_(seed)
{}

void
Rrs::onActivate(uint32_t bank, uint32_t row, dram::Tick /* now */,
                std::vector<PreventiveAction> &out)
{
    ++stats_.activationsObserved;
    if (!countReaches(bank, row, kSwapFraction))
        return;

    const uint32_t rows = threshold_->rowsPerBank();
    uint32_t partner = static_cast<uint32_t>(rng_.below(rows));
    if (partner == row)
        partner = (partner + 1) % rows;
    out.push_back({PreventiveAction::Kind::SwapRows, bank, row, partner,
                   0});
    ++stats_.swaps;
    // The partner's content moved too: its count restarts as well.
    counts_.refOrInsert(rowKey(bank, partner)) = 0;
}

} // namespace svard::defense
