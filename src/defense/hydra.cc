#include "defense/hydra.h"

#include <algorithm>

namespace svard::defense {

Hydra::Hydra(std::shared_ptr<const core::ThresholdProvider> thr)
    : Defense(std::move(thr)),
      // 4x headroom keeps the map under its load limit with a full
      // RCC plus the tombstones evictions leave between rehashes.
      rccNodes_(kRccEntries), rccMap_(4 * kRccEntries)
{}

void
Hydra::rccUnlink(uint32_t n)
{
    RccNode &node = rccNodes_[n];
    if (node.prev != kNil)
        rccNodes_[node.prev].next = node.next;
    else
        rccHead_ = node.next;
    if (node.next != kNil)
        rccNodes_[node.next].prev = node.prev;
    else
        rccTail_ = node.prev;
}

void
Hydra::rccLinkFront(uint32_t n)
{
    RccNode &node = rccNodes_[n];
    node.prev = kNil;
    node.next = rccHead_;
    if (rccHead_ != kNil)
        rccNodes_[rccHead_].prev = n;
    rccHead_ = n;
    if (rccTail_ == kNil)
        rccTail_ = n;
}

void
Hydra::rccAccess(uint64_t row_key, uint32_t bank,
                 std::vector<PreventiveAction> &out)
{
    if (const uint32_t *at = rccMap_.find(row_key)) {
        // Hit: refresh recency (the list splice of the old LRU).
        const uint32_t n = *at;
        if (rccHead_ != n) {
            rccUnlink(n);
            rccLinkFront(n);
        }
        return;
    }
    // Miss: fetch the counter line from the DRAM-resident RCT.
    out.push_back({PreventiveAction::Kind::MetadataAccess, bank, 0, 0,
                   0});
    ++stats_.metadataAccesses;
    uint32_t n;
    if (rccUsed_ >= rccNodes_.size()) {
        // Evict LRU; counters are write-back, so eviction writes the
        // line to DRAM. The tail node is reused for the new entry.
        n = rccTail_;
        rccMap_.erase(rccNodes_[n].key);
        rccUnlink(n);
        out.push_back({PreventiveAction::Kind::MetadataAccess, bank, 0,
                       0, 0});
        ++stats_.metadataAccesses;
    } else {
        n = rccUsed_++;
    }
    rccNodes_[n].key = row_key;
    rccLinkFront(n);
    rccMap_.refOrInsert(row_key) = n;
}

void
Hydra::onActivate(uint32_t bank, uint32_t row, dram::Tick /* now */,
                  std::vector<PreventiveAction> &out)
{
    ++stats_.activationsObserved;
    const double budget = aggressorBudget(bank, row);
    const uint64_t gk = groupKey(bank, row);

    if (!perRowGroups_.contains(gk)) {
        const uint32_t gcount = ++gct_.refOrInsert(gk);
        if (static_cast<double>(gcount) <
            kGroupFraction * budget)
            return;
        // Group crossed its share of the threshold: switch the whole
        // group to exact per-row tracking, seeded with the group count
        // (conservative: every row inherits the group's count).
        perRowGroups_.refOrInsert(gk) = 1;
        const uint32_t base = (row / kRowsPerGroup) * kRowsPerGroup;
        for (uint32_t r = 0; r < kRowsPerGroup; ++r)
            rct_.refOrInsert(rowKey(bank, base + r)) = gcount;
    }

    const uint64_t rk = rowKey(bank, row);
    rccAccess(rk, bank, out);
    uint32_t &count = rct_.refOrInsert(rk);
    if (static_cast<double>(++count) >=
        kRefreshFraction * budget) {
        refreshNeighbors(bank, row, out);
        count = 0;
    }
}

void
Hydra::onEpochEnd(dram::Tick /* now */)
{
    gct_.clear();
    perRowGroups_.clear();
    rct_.clear();
    rccMap_.clear();
    rccHead_ = kNil;
    rccTail_ = kNil;
    rccUsed_ = 0;
}

} // namespace svard::defense
