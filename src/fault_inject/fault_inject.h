/**
 * @file
 * Deterministic fault-injection harness. Production I/O paths carry
 * named injection points (`faults::check("cache.store")`); a plan
 * parsed from SVARD_FAULT (or installed programmatically by tests)
 * decides, per point and per hit count, whether to fire a fault —
 * kill the process, report EIO, come up short on a write, tear a
 * record in half, stall the caller, or raise SIGTERM. Every trigger
 * is count-based, so a given plan fails the same run at the same
 * byte every time: recovery paths are exercised deterministically
 * instead of waiting for a disk to actually die.
 *
 * Spec grammar (comma-separated entries):
 *
 *   SVARD_FAULT = point ':' action '@' N ['+'] [':' arg] [',' ...]
 *
 *   point   a registered injection-point name (see README table)
 *   action  kill | eio | short | torn | stall | sigterm
 *   N       fire on the N-th hit of the point (1-based)
 *   '+'     keep firing on every hit from the N-th on (persistent
 *           failure; without it the fault fires exactly once)
 *   arg     optional integer argument (stall duration in ms,
 *           default 1000)
 *
 * Examples:
 *   cache.store:kill@5          die (exit 137) after the 5th
 *                               checkpointed cell is durable
 *   cache.store:eio@2           one transient EIO on the 2nd record
 *                               (the bounded-backoff retry absorbs it)
 *   cache.store:short@1+        every append comes up short: the
 *                               retry budget exhausts and the error
 *                               reaches the producer
 *   cache.store:torn@3          write half of record 3, flush, die —
 *                               the torn-tail repair path on reload
 *   runner.cell:stall@3:800     the 3rd simulated cell sleeps 800 ms
 *                               first (slow-cell / progress drills)
 *   cache.store:sigterm@4       raise SIGTERM after the 4th store
 *                               (graceful-interrupt drills)
 *
 * With no plan installed, check() is one relaxed atomic load and a
 * branch. Injection points live only on I/O-rate paths (per record,
 * per cell), never per-activation, so even an active plan cannot
 * perturb simulation results — only their durability.
 */
#ifndef SVARD_FAULT_INJECT_FAULT_INJECT_H
#define SVARD_FAULT_INJECT_FAULT_INJECT_H

#include <cstdint>
#include <string>

namespace svard::faults {

enum class Action : uint8_t
{
    None,    ///< no fault at this hit
    Kill,    ///< _Exit(137): a SIGKILL-grade crash, no cleanup
    Eio,     ///< report an I/O error without writing anything
    Short,   ///< write a partial prefix, then report failure
    Torn,    ///< write a partial prefix, flush it, then Kill
    Stall,   ///< sleep arg() milliseconds (slow-path drills)
    Sigterm, ///< raise(SIGTERM): graceful-interrupt drills
};

/** Fault decision at one hit of an injection point. */
struct Hit
{
    Action action = Action::None;
    uint64_t arg = 0; ///< entry's arg (stall ms); 0 when unset

    explicit operator bool() const { return action != Action::None; }
};

/** One relaxed load: is any fault plan installed? */
bool anyActive();

/**
 * Count one hit of `point` and return the fault to execute at it
 * (Action::None almost always). Thread-safe; the hit counter is a
 * process-wide atomic, so "the N-th hit" is the N-th across all
 * threads in program order of the increments.
 *
 * Kill/Sigterm/Stall are EXECUTED here (the caller never sees Kill
 * return); Eio/Short/Torn are returned for the caller's write loop
 * to act on, since only it knows the bytes in flight.
 */
Hit check(const char *point);

/**
 * Install a plan (the SVARD_FAULT grammar above), replacing any
 * previous one and zeroing all hit counters. Throws
 * std::invalid_argument on a malformed spec. An empty string clears
 * the plan.
 */
void configure(const std::string &spec);

/** Clear the plan and all hit counters (test teardown). */
void reset();

/** Hits recorded against `point` since the last configure/reset. */
uint64_t hitCount(const char *point);

/** Human-readable rendering of the installed plan (diagnostics). */
std::string planSummary();

} // namespace svard::faults

#endif // SVARD_FAULT_INJECT_FAULT_INJECT_H
