/**
 * @file
 * Hydra (Qureshi et al., ISCA 2022): hybrid activation tracking. A
 * small SRAM Group Count Table (GCT) counts activations per row
 * *group*; only when a group's count crosses a fraction of the
 * threshold does tracking fall back to exact per-row counters stored
 * in a reserved DRAM region (RCT), cached by a Row Count Cache (RCC).
 * RCC misses and dirty evictions cost real DRAM traffic — the paper
 * notes this off-chip counter traffic, not preventive refreshes,
 * dominates Hydra's overhead, which is why Svärd's benefit on Hydra is
 * modest (Obsv. 14).
 *
 * All counter state lives in open-addressing FlatTables, and the RCC
 * is a fixed-slot intrusive LRU (index links over a preallocated node
 * array), so the per-ACT path performs no heap allocation and the
 * epoch reset is O(1) — same externally-visible behaviour as the
 * std::unordered_map/std::list implementation it replaced, cheaper.
 */
#ifndef SVARD_DEFENSE_HYDRA_H
#define SVARD_DEFENSE_HYDRA_H

#include <vector>

#include "common/flat_table.h"
#include "defense/defense.h"

namespace svard::defense {

class Hydra : public Defense
{
  public:
    static constexpr uint32_t kRowsPerGroup = 128;
    /** Fraction of threshold at which a group goes per-row. */
    static constexpr double kGroupFraction = 0.4;
    /** Fraction of threshold at which a row's neighbors refresh. */
    static constexpr double kRefreshFraction = 0.5;
    static constexpr size_t kRccEntries = 4096;

    explicit Hydra(std::shared_ptr<const core::ThresholdProvider> thr);

    const char *name() const override { return "Hydra"; }

    void onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                    std::vector<PreventiveAction> &out) override;

    void onEpochEnd(dram::Tick now) override;

    void
    tableStats(uint64_t *entries, uint64_t *rehashes) const override
    {
        *entries = gct_.size() + perRowGroups_.size() + rct_.size() +
                   rccMap_.size();
        *rehashes = gct_.rehashes() + perRowGroups_.rehashes() +
                    rct_.rehashes() + rccMap_.rehashes();
    }

  private:
    uint64_t
    groupKey(uint32_t bank, uint32_t row) const
    {
        return rowKey(bank, row / kRowsPerGroup);
    }

    /** Access the RCC; a miss emits the counter traffic. */
    void rccAccess(uint64_t row_key, uint32_t bank,
                   std::vector<PreventiveAction> &out);

    FlatTable<uint32_t> gct_;
    FlatTable<uint8_t> perRowGroups_; ///< membership set
    FlatTable<uint32_t> rct_; ///< DRAM-resident counts

    // RCC: fixed-capacity LRU of row keys currently cached on-chip.
    // Nodes are preallocated and linked by index; recency order (MRU
    // at head, eviction at tail) matches the former std::list exactly.
    struct RccNode
    {
        uint64_t key = 0;
        uint32_t prev = kNil;
        uint32_t next = kNil;
    };
    static constexpr uint32_t kNil = UINT32_MAX;

    void rccUnlink(uint32_t n);
    void rccLinkFront(uint32_t n);

    std::vector<RccNode> rccNodes_;
    FlatTable<uint32_t> rccMap_; ///< row key -> node index
    uint32_t rccHead_ = kNil;
    uint32_t rccTail_ = kNil;
    uint32_t rccUsed_ = 0;
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_HYDRA_H
