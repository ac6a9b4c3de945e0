/**
 * @file
 * Multi-channel memory subsystem. A SimEngine owns one MemController
 * per channel behind the channel-interleaving MopMapper, each with its
 * own defense instance (read-disturbance state is per-channel in real
 * controllers), and aggregates ControllerStats / DefenseStats across
 * channels. All channels advance in lockstep to the same target tick,
 * so a 1-channel SimEngine is cycle-identical to driving a bare
 * MemController.
 */
#ifndef SVARD_SIM_ENGINE_H
#define SVARD_SIM_ENGINE_H

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "defense/registry.h"
#include "sim/controller.h"

namespace svard::sim {

class SimEngine
{
  public:
    using Completion = MemController::Completion;

    /**
     * Build per-channel defense instances from the registry. Each
     * channel gets an independent instance (seeded per channel) so
     * counters and RNG streams do not alias across channels.
     * `params` is the named-parameter bag handed to every channel's
     * DefenseContext (registry-driven parameter sweeps).
     */
    SimEngine(const SimConfig &cfg, const std::string &defense_name,
              std::shared_ptr<const core::ThresholdProvider> provider,
              uint64_t seed, Completion on_complete,
              const defense::DefenseParams &params = {});

    /**
     * Use a single caller-owned defense (System's single-defense
     * construction). Requires a 1-channel configuration unless
     * `defense` is null; the defense's bank folding is configured to
     * the engine's geometry.
     */
    SimEngine(const SimConfig &cfg, defense::Defense *defense,
              Completion on_complete);

    const MopMapper &mapper() const { return mapper_; }

    uint32_t
    channels() const
    {
        return static_cast<uint32_t>(controllers_.size());
    }

    // The per-request engine entry points below are inline: the
    // system loop calls them tens of millions of times per sweep
    // cell, and a cross-TU call per poll costs as much as the poll.

    /** Either queue of `channel` is full (core must stall). */
    bool
    queueFull(uint32_t channel) const
    {
        const MemController &mc = *controllers_[channel % channels()];
        return mc.readQueueFull() || mc.writeQueueFull();
    }

    /** Route a request to its channel; returns false if full. */
    bool
    enqueue(const MemRequest &req)
    {
        SVARD_ASSERT(req.addr.channel < channels(),
                     "request channel out of range");
        return controllers_[req.addr.channel]->enqueue(req);
    }

    /** Advance every channel to `until` in lockstep. */
    dram::Tick
    run(dram::Tick until)
    {
        dram::Tick reached = 0;
        for (auto &mc : controllers_)
            reached = std::max(reached, mc->run(until));
        return reached;
    }

    dram::Tick
    now() const
    {
        // Channels advance in lockstep; report the slowest clock so
        // the caller never skips time a channel has not simulated.
        dram::Tick t = controllers_[0]->now();
        for (const auto &mc : controllers_)
            t = std::min(t, mc->now());
        return t;
    }

    bool
    idle() const
    {
        for (const auto &mc : controllers_)
            if (!mc->idle())
                return false;
        return true;
    }

    /** Stats summed over channels. */
    ControllerStats stats() const;
    defense::DefenseStats defenseStats() const;

    /** Per-channel introspection. */
    const MemController &channel(uint32_t c) const;
    void
    setObserver(uint32_t c, CommandObserver *obs)
    {
        SVARD_ASSERT(c < channels(), "channel out of range");
        controllers_[c]->setObserver(obs);
    }
    defense::Defense *defenseOf(uint32_t c) const;
    bool hasDefense() const;

  private:
    const SimConfig &cfg_;
    MopMapper mapper_;
    std::vector<std::unique_ptr<defense::Defense>> ownedDefenses_;
    std::vector<defense::Defense *> defenses_; ///< per channel, may be null
    std::vector<std::unique_ptr<MemController>> controllers_;
};

} // namespace svard::sim

#endif // SVARD_SIM_ENGINE_H
