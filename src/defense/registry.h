/**
 * @file
 * Construction of read-disturbance defenses by name.
 *
 * Every construction site in the repo (benches, examples, tests, the
 * experiment engine) goes through makeDefenseByName instead of wiring
 * concrete defense classes by hand: a defense is a string name plus a
 * DefenseContext carrying the threshold provider, the deterministic
 * seed, and the DRAM geometry under test. Construction threads the
 * geometry into Defense::setBanksPerRank so bank folding follows the
 * simulated module instead of a hardcoded constant. The context
 * carries no tunables: each defense runs at the one published
 * configuration its class constants hold, as in the paper's Figs.
 * 12-13.
 *
 * The names form a closed, sorted table: "aqua", "blockhammer",
 * "graphene", "hydra", "none", "para", "rrs". Lookups are
 * case-insensitive ("PARA" and "para" are the same defense).
 */
#ifndef SVARD_DEFENSE_REGISTRY_H
#define SVARD_DEFENSE_REGISTRY_H

#include <memory>
#include <string>
#include <vector>

#include "defense/defense.h"
#include "sim/config.h"

namespace svard::defense {

/** Everything a defense factory needs to stand up an instance. */
struct DefenseContext
{
    /**
     * Bare construction: `banks_per_rank` MUST be set to the
     * simulated geometry's bank count before the context reaches
     * makeDefenseByName (which asserts it). The old hardcoded default of
     * 16 silently mis-folded banks for every non-Table-4 geometry;
     * prefer the SimConfig overload below, which derives it.
     */
    explicit DefenseContext(
        std::shared_ptr<const core::ThresholdProvider> thr,
        uint64_t rng_seed = 1, uint32_t banks_per_rank = 0)
        : provider(std::move(thr)), seed(rng_seed),
          banksPerRank(banks_per_rank)
    {}

    /** Geometry-aware context for a simulated system configuration. */
    DefenseContext(const sim::SimConfig &cfg,
                   std::shared_ptr<const core::ThresholdProvider> thr,
                   uint64_t rng_seed = 1)
        : provider(std::move(thr)), seed(rng_seed),
          banksPerRank(cfg.banksPerRank())
    {}

    std::shared_ptr<const core::ThresholdProvider> provider;
    uint64_t seed = 1;
    /** Banks per rank of the simulated geometry; 0 = not yet set
     *  (construction must fill it in before factory use). */
    uint32_t banksPerRank = 0;
};

/** Whether `name` names a defense (case-insensitive). */
bool isDefenseName(const std::string &name);

/** Every defense name, sorted and lowercase ("none" included). */
std::vector<std::string> defenseNames();

/**
 * Construct a defense by name. "none" yields nullptr (baseline).
 * @throws std::invalid_argument for unknown names, listing the known
 *         ones.
 */
std::unique_ptr<Defense> makeDefenseByName(const std::string &name,
                                           const DefenseContext &ctx);

} // namespace svard::defense

#endif // SVARD_DEFENSE_REGISTRY_H
