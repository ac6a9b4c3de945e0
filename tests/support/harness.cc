#include "support/harness.h"

#include <vector>

#include "common/log.h"

namespace svard::defense {

AttackResult
runDoubleSidedAttack(dram::DramDevice &device, Defense *defense,
                     const AttackOptions &opt)
{
    const auto &timing = device.timing();
    const dram::Tick t_on = std::max(opt.tAggOn, timing.tRAS);
    const dram::Tick act_period = t_on + timing.tRP;

    // The harness — like the paper's methodology and a deployed
    // defense — works in *physical* row space, where adjacency is +-1:
    // aggressors are the victim's physical neighbors, and the defense
    // observes physical row ids (the controller translates interface
    // addresses through the reverse-engineered in-DRAM mapping).
    const uint32_t victim_phys = device.mapping().toPhysical(opt.victim);
    const std::vector<uint32_t> aggressors =
        device.subarrays().disturbedNeighbors(victim_phys);
    SVARD_ASSERT(!aggressors.empty(), "victim has no neighbors");

    // AQUA/RRS remap aggressor rows away from their victims; the
    // attacker keeps hammering the same *address*, which lands on the
    // new physical location.
    std::unordered_map<uint32_t, uint32_t> remap;
    auto resolve = [&](uint32_t row) {
        auto it = remap.find(row);
        return it == remap.end() ? row : it->second;
    };
    auto to_logical = [&](uint32_t phys) {
        return device.mapping().toLogical(phys);
    };

    const uint64_t flips_before = device.stats().bitflipsInjected;
    AttackResult res;
    dram::Tick now = 0;
    std::vector<PreventiveAction> acts;

    if (opt.initDataPatterns) {
        // Row-stripe data exacerbates disturbance (Table 2); a real
        // attacker templates the victim first. The inverse stripe is
        // the worst case for rows dominated by anti-cells, so split
        // the aggressor halves across both.
        device.writeRowFill(opt.bank, opt.victim, 0x00);
        for (uint32_t aggr : aggressors)
            device.writeRowFill(opt.bank, to_logical(aggr), 0xFF);
    }

    for (int window = 0; window < opt.refreshWindows; ++window) {
        const dram::Tick window_end = now + timing.tREFW;
        uint64_t acts_this_window = 0;
        while (now < window_end) {
            if (opt.maxActsPerAggressor &&
                acts_this_window >= opt.maxActsPerAggressor)
                break;
            for (uint32_t aggr : aggressors) {
                if (defense) {
                    // Retry through throttling until the ACT is
                    // admitted (BlockHammer) or time runs out.
                    for (;;) {
                        acts.clear();
                        defense->onActivate(opt.bank, aggr, now, acts);
                        dram::Tick delay = 0;
                        for (const auto &a : acts) {
                            switch (a.kind) {
                              case PreventiveAction::Kind::RefreshRow:
                                device.refreshRow(opt.bank,
                                                  to_logical(a.row),
                                                  now);
                                now += timing.tRAS + timing.tRP;
                                ++res.preventiveRefreshes;
                                break;
                              case PreventiveAction::Kind::Throttle:
                                delay = std::max(delay, a.delay);
                                ++res.throttleEvents;
                                break;
                              case PreventiveAction::Kind::MigrateRow:
                                remap[a.row] = a.row2;
                                ++res.migrations;
                                break;
                              case PreventiveAction::Kind::SwapRows: {
                                const uint32_t cur = resolve(a.row);
                                const uint32_t other = resolve(a.row2);
                                remap[a.row] = other;
                                remap[a.row2] = cur;
                                ++res.migrations;
                                break;
                              }
                              case PreventiveAction::Kind::
                                  MetadataAccess:
                                now += timing.tRCD + timing.tCL +
                                       timing.tBL + timing.tRP;
                                break;
                            }
                        }
                        if (delay == 0)
                            break;
                        now += delay;
                        res.throttledTime += delay;
                        if (now >= window_end)
                            break;
                    }
                    if (now >= window_end)
                        break;
                }
                device.activate(opt.bank, to_logical(resolve(aggr)),
                                now);
                now += t_on;
                device.precharge(opt.bank, now);
                now += act_period - t_on;
                ++res.aggressorActs;
            }
            ++acts_this_window;
        }
        // Regular refresh sweep at the end of the window.
        device.refreshAllRows(now);
        if (defense)
            defense->onEpochEnd(now);
    }
    res.bitflips = device.stats().bitflipsInjected - flips_before;
    return res;
}

} // namespace svard::defense
