#include "defense/graphene.h"

namespace svard::defense {

void
Graphene::onActivate(uint32_t bank, uint32_t row, dram::Tick /* now */,
                     std::vector<PreventiveAction> &out)
{
    ++stats_.activationsObserved;
    if (countReaches(bank, row, kRefreshFraction))
        refreshNeighbors(bank, row, out);
}

} // namespace svard::defense
