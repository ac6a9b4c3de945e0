#include "sim/engine.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"

namespace svard::sim {

SimEngine::SimEngine(const SimConfig &cfg,
                     const std::string &defense_name,
                     std::shared_ptr<const core::ThresholdProvider>
                         provider,
                     uint64_t seed, Completion on_complete,
                     const defense::DefenseParams &params)
    : cfg_(cfg), mapper_(cfg)
{
    SVARD_ASSERT(cfg_.channels >= 1, "need at least one channel");
    for (uint32_t c = 0; c < cfg_.channels; ++c) {
        // Channel 0 keeps the caller's seed so 1-channel runs match
        // the pre-engine construction path bit for bit.
        const uint64_t chan_seed =
            c == 0 ? seed : hashSeed({seed, c, 0xC4A77E1ULL});
        ownedDefenses_.push_back(defense::makeDefenseByName(
            defense_name,
            defense::DefenseContext(cfg_, provider, chan_seed,
                                    params)));
        defenses_.push_back(ownedDefenses_.back().get());
        controllers_.push_back(std::make_unique<MemController>(
            cfg_, defenses_.back(), on_complete));
    }
}

SimEngine::SimEngine(const SimConfig &cfg, defense::Defense *defense,
                     Completion on_complete)
    : cfg_(cfg), mapper_(cfg)
{
    SVARD_ASSERT(cfg_.channels >= 1, "need at least one channel");
    SVARD_ASSERT(defense == nullptr || cfg_.channels == 1,
                 "a shared external defense is single-channel only; "
                 "use the registry constructor for multi-channel runs");
    if (defense)
        defense->setBanksPerRank(cfg_.banksPerRank());
    for (uint32_t c = 0; c < cfg_.channels; ++c) {
        defenses_.push_back(defense);
        controllers_.push_back(std::make_unique<MemController>(
            cfg_, defense, on_complete));
    }
}

ControllerStats
SimEngine::stats() const
{
    ControllerStats sum;
    for (const auto &mc : controllers_)
        sum += mc->stats();
    return sum;
}

defense::DefenseStats
SimEngine::defenseStats() const
{
    defense::DefenseStats sum;
    // Each non-null defense is its channel's own instance: the
    // caller-owned constructor allows one only on a single channel.
    for (const defense::Defense *d : defenses_) {
        if (!d)
            continue;
        const defense::DefenseStats &s = d->stats();
        sum.activationsObserved += s.activationsObserved;
        sum.preventiveRefreshes += s.preventiveRefreshes;
        sum.throttleEvents += s.throttleEvents;
        sum.throttleDelayTotal += s.throttleDelayTotal;
        sum.migrations += s.migrations;
        sum.swaps += s.swaps;
        sum.metadataAccesses += s.metadataAccesses;
    }
    return sum;
}

const MemController &
SimEngine::channel(uint32_t c) const
{
    SVARD_ASSERT(c < channels(), "channel out of range");
    return *controllers_[c];
}

defense::Defense *
SimEngine::defenseOf(uint32_t c) const
{
    SVARD_ASSERT(c < channels(), "channel out of range");
    return defenses_[c];
}

bool
SimEngine::hasDefense() const
{
    for (const auto *d : defenses_)
        if (d)
            return true;
    return false;
}

} // namespace svard::sim
