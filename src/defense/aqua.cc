#include "defense/aqua.h"

#include <algorithm>

namespace svard::defense {

void
Aqua::onActivate(uint32_t bank, uint32_t row, dram::Tick /* now */,
                 std::vector<PreventiveAction> &out)
{
    ++stats_.activationsObserved;
    if (!countReaches(bank, row, kMigrateFraction))
        return;

    // Quarantine: the aggressor's content moves to the reserved
    // region at the top of the bank (recycled round-robin), after
    // which its old neighbors stop being disturbed by it.
    const uint32_t rows = threshold_->rowsPerBank();
    const uint32_t q_rows = std::max<uint32_t>(
        1, static_cast<uint32_t>(kQuarantineFraction * rows));
    if (bank >= nextQuarantine_.size())
        nextQuarantine_.resize(bank + 1, 0);
    uint32_t &cursor = nextQuarantine_[bank];
    const uint32_t dest = rows - q_rows + (cursor % q_rows);
    ++cursor;
    out.push_back({PreventiveAction::Kind::MigrateRow, bank, row, dest,
                   0});
    ++stats_.migrations;
}

} // namespace svard::defense
