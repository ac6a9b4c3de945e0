/**
 * @file
 * Cycle-accurate-enough DDR4 memory controller: FR-FCFS scheduling
 * with a column-access cap, open-row policy, bank/rank timing (tRCD,
 * tRP, tRAS, same-bank tCCD_L, tRRD_S/L, tFAW, tWR, refresh with
 * tRFC), a shared data bus, write draining, and the defense hook that
 * turns preventive actions into DRAM traffic (victim refreshes,
 * throttling stalls, migration/swap bandwidth, metadata transfers).
 * Not modelled, though the timing table carries them: tRTP, tWTR_S/L,
 * tCCD_S, and tCCD_L between banks of one bank group.
 *
 * The inner loop is allocation-free and event-driven. A channel has at
 * most kMaxChannelBanks (64) flat banks, so per-bank sets are 64-bit
 * masks: each queue keeps the banks holding a row-hit candidate and
 * the banks holding another candidate, the controller the open banks
 * and the banks with queued work. A pick walks the set bits of those
 * masks and tests each candidate branch-free against the bank's ready
 * times (flat arrays) and its rank's ACT window (one value per rank
 * and bank group, recomputed only at an ACT); only the banks that can
 * issue now are compared by age. A
 * failed pick gets its blocked-until bound from minima over the same
 * walk. Defense actions land in a reusable ActionBuffer, the tFAW
 * history is a 4-slot ring, and a cached min-wakeup ("quiet until")
 * skips picks that provably fail. That layer stays: the picks it
 * skips are observable (tfawStalls counts per pick, and the drain
 * hysteresis ticks per iteration), so which picks run is part of the
 * behaviour. Scheduling decisions are bit-identical (asserted by
 * tests/test_perf_golden.cc and the command-stream digests of
 * tests/test_timing_rules.cc).
 */
#ifndef SVARD_SIM_CONTROLLER_H
#define SVARD_SIM_CONTROLLER_H

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "defense/defense.h"
#include "sim/addrmap.h"
#include "sim/config.h"

namespace svard::sim {

/** A memory request inside the controller. */
struct MemRequest
{
    uint32_t core = 0;
    bool write = false;
    dram::Address addr;
    uint32_t flatBank = 0;
    dram::Tick arrive = 0;      ///< time it entered the queue
    dram::Tick notBefore = 0;   ///< throttle release time
    uint64_t token = 0;         ///< caller-assigned id
    /** The defense already observed (and admitted) this activation;
     *  it must not be consulted again when the ACT finally issues
     *  behind the preventive actions it triggered. */
    bool defenseCleared = false;
};

/** One DRAM command as the controller issued it (times in ps). */
struct DramCommand
{
    /** Occupy is a defense action's bank reservation: it closes the
     *  bank and holds off its next ACT until `aux`. */
    enum class Kind : uint8_t { Act, Pre, Rd, Wr, Ref, Occupy };
    Kind kind = Kind::Act;
    uint32_t bank = 0;  ///< flat bank; the rank for Ref
    uint32_t row = 0;   ///< Act, Rd, Wr
    dram::Tick at = 0;  ///< issue time
    dram::Tick aux = 0; ///< Rd/Wr data-burst start, Ref due time,
                        ///< Occupy release time
};

/** Sees every command a controller issues. Pure observation: the
 *  controller never reads anything back from it. */
class CommandObserver
{
  public:
    virtual ~CommandObserver() = default;
    virtual void onCommand(const DramCommand &cmd) = 0;
};

/** Most flat banks one channel may have: per-bank sets are 64-bit
 *  masks. Every preset fits (ddr5-4800-32bank has 2 x 32). */
inline constexpr uint32_t kMaxChannelBanks = 64;

/**
 * One request queue (reads or writes), indexed by bank for FR-FCFS.
 * Requests live in a fixed slot pool, stamped with a queue-wide
 * arrival sequence number and linked into one arrival-ordered list
 * per bank. Each bank caches the only two requests the scheduler can
 * pick from it: the oldest to the open row (`hit`) and the oldest
 * other one (`other`), for the bank's current (open, row) state.
 * `hitMask`/`otherMask` hold the banks that have such a candidate;
 * a bank in `stale` (a candidate left, or the controller changed the
 * bank's state) has its candidates and mask bits recomputed by
 * rescan() before the next pick of this queue. `stale` only holds
 * banks in `listed` (non-empty list); an empty bank has no
 * candidates. A throttled request waits in `parked`, off its bank
 * list, and is linked back at its arrival position once released.
 * Never allocates after construction: the per-activation hot path
 * depends on that.
 */
struct BankQueue
{
    static constexpr uint32_t kNil = UINT32_MAX;
    /** Candidate key of a closed bank; an open bank's key is its row. */
    static constexpr int64_t kClosed = -1;

    struct Slot
    {
        MemRequest req;
        uint64_t seq = 0;
        uint32_t prev = kNil, next = kNil; ///< bank list links
    };

    struct PerBank
    {
        uint32_t head = kNil, tail = kNil;
        uint32_t hit = kNil, other = kNil; ///< candidate slots
        uint64_t hitSeq = 0, otherSeq = 0;
    };

    BankQueue(size_t capacity, uint32_t num_banks);

    /** Link slot `s` into its bank list at its arrival position;
     *  `key` is the bank's current candidate key. */
    void link(uint32_t s, int64_t key);
    /** Unlink slot `s` (a candidate) from its bank list. */
    void unlink(uint32_t s);
    /** Recompute bank `b`'s candidates for bank state `key`. */
    void rescan(uint32_t b, int64_t key);
    /** Take `s` as a candidate of bank `b` in state `key` if older. */
    void offer(uint32_t b, uint32_t s, int64_t key);

    /** The controller changed bank `b`'s (open, row) state. */
    void
    invalidate(uint32_t b)
    {
        stale |= listed & (uint64_t{1} << b);
    }

    std::vector<Slot> slots;
    std::vector<uint32_t> freeSlots;
    std::vector<PerBank> banks;
    std::vector<uint32_t> parked;
    uint64_t listed = 0;    ///< banks with a non-empty list
    uint64_t hitMask = 0;   ///< banks with a hit candidate
    uint64_t otherMask = 0; ///< banks with an other candidate
    uint64_t stale = 0;     ///< banks whose candidates need a rescan
    uint64_t nextSeq = 0;
    size_t size = 0;
};

/** Controller statistics. */
struct ControllerStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t activations = 0;
    uint64_t rowHits = 0;
    uint64_t rowConflicts = 0;
    uint64_t refreshes = 0;
    uint64_t preventiveRefreshes = 0;
    uint64_t migrations = 0;
    uint64_t swaps = 0;
    uint64_t metadataAccesses = 0;
    dram::Tick throttleStall = 0;
    /** Closed-bank candidates whose ACT the tFAW window alone held
     *  back: the bank was ready and the rank's fourth-last ACT was the
     *  binding constraint. Counted once per bank per scheduler pick. */
    uint64_t tfawStalls = 0;

    /** Field-wise sum (channel aggregation). */
    ControllerStats &
    operator+=(const ControllerStats &o)
    {
        reads += o.reads;
        writes += o.writes;
        activations += o.activations;
        rowHits += o.rowHits;
        rowConflicts += o.rowConflicts;
        refreshes += o.refreshes;
        preventiveRefreshes += o.preventiveRefreshes;
        migrations += o.migrations;
        swaps += o.swaps;
        metadataAccesses += o.metadataAccesses;
        throttleStall += o.throttleStall;
        tfawStalls += o.tfawStalls;
        return *this;
    }
};

/**
 * Single-channel DDR4 controller. Drive it by enqueueing requests and
 * calling run(until); completed reads are reported through the
 * completion callback (writes complete at enqueue for the cores, but
 * still consume DRAM bandwidth).
 */
class MemController
{
  public:
    using Completion =
        std::function<void(const MemRequest &, dram::Tick)>;

    /** @throws std::invalid_argument if `cfg` has more than
     *  kMaxChannelBanks banks per channel. */
    MemController(const SimConfig &cfg, defense::Defense *defense,
                  Completion on_complete);

    /** Enqueue a request; returns false if the queue is full. */
    bool enqueue(const MemRequest &req);

    bool
    readQueueFull() const
    {
        return readQ_.size >= cfg_.readQueue;
    }

    bool
    writeQueueFull() const
    {
        return writeQ_.size >= cfg_.writeQueue;
    }

    /**
     * Advance the controller until `until` or until all queued work
     * is drained, whichever is earlier. Returns the controller clock.
     */
    dram::Tick run(dram::Tick until);

    bool
    idle() const
    {
        return readQ_.size == 0 && writeQ_.size == 0;
    }

    dram::Tick now() const { return now_; }
    const ControllerStats &stats() const { return stats_; }

    /** Report every issued command to `obs` (null: none). */
    void setObserver(CommandObserver *obs) { observer_ = obs; }

  private:
    /** Per-bank state kept beside the ready-time arrays and the open
     *  mask. */
    struct Bank
    {
        uint32_t row = 0;       ///< open row (while open)
        uint32_t hitStreak = 0;
        uint32_t rank = 0;      ///< fixed at construction
        uint32_t group = 0;     ///< flat (rank, bank group) index
    };

    struct Rank
    {
        /** Last 4 ACT times (tFAW window), fixed 4-slot ring. */
        std::array<dram::Tick, 4> actRing{};
        uint32_t actHead = 0;  ///< oldest entry once the ring is full
        uint32_t actCount = 0;
        dram::Tick lastAct = -1'000'000; ///< tRRD_S reference
        dram::Tick refreshDue = 0;

        dram::Tick oldestAct() const { return actRing[actHead]; }

        void
        pushAct(dram::Tick t)
        {
            if (actCount < 4) {
                actRing[(actHead + actCount) & 3] = t;
                ++actCount;
            } else {
                actRing[actHead] = t;
                actHead = (actHead + 1) & 3;
            }
        }
    };

    /** Pick and progress the best request at `now_`; returns true if
     *  one was serviced (or partially progressed). On false,
     *  blockedUntil_/blockedByBus_ hold why nothing could issue. */
    bool tryIssue();

    /** Write-drain hysteresis tick; returns whether writes drain.
     *  The hysteresis is sequence-stateful, so it must be evaluated
     *  exactly once per scheduler iteration — tryIssue does it when
     *  it runs, run() does it when the quiet cache skips tryIssue. */
    bool updateDrainMode();

    /** Earliest future time at which anything could change, at or
     *  after `from` (refresh processing times are always honored),
     *  from the banks with queued work and the parked requests. */
    dram::Tick nextWakeup(dram::Tick from = 0) const;

    /** Issue an ACT to a bank (timing + defense hook). */
    void doActivate(uint32_t flat_bank, uint32_t row);

    void doPrecharge(uint32_t flat_bank);

    /** Mark a bank closed: clears its streak and tells both queues
     *  their candidates for it are stale. */
    void closeBank(uint32_t flat_bank);

    bool
    isOpen(uint32_t b) const
    {
        return (openMask_ >> b) & 1;
    }

    int64_t
    bankKey(uint32_t b) const
    {
        return isOpen(b) ? banks_[b].row : BankQueue::kClosed;
    }

    /** Execute defense actions produced by an ACT. */
    void applyActions(const defense::ActionBuffer &acts,
                      dram::Tick *throttle_out);

    void refreshIfDue();

    void observe(DramCommand::Kind k, uint32_t b, uint32_t row,
                 dram::Tick aux)
    {
        if (observer_)
            observer_->onCommand({k, b, row, now_, aux});
    }

    /** Recompute groupActReady_ and tfawGroups_ for rank `r` (its
     *  tRRD/tFAW state changes only at an ACT). The earliest next ACT
     *  of a bank in (rank, bank group) g is groupActReady_[g]: the
     *  scheduler's single source of truth, read by the pick and by
     *  nextWakeup. */
    void updateRankActReady(uint32_t r);

    const SimConfig &cfg_;
    MopMapper mapper_;
    defense::Defense *defense_; ///< may be null (baseline)
    Completion onComplete_;
    CommandObserver *observer_ = nullptr;

    dram::Tick now_ = 0;
    dram::Tick busReady_ = 0;
    dram::Tick epochStart_ = 0;
    /** Earliest rank refresh or defense-epoch due time; refreshIfDue
     *  is a single compare until then. 0 forces the first pass to
     *  compute it. */
    dram::Tick maintenanceDue_ = 0;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    /** Per flat bank: earliest next ACT, RD/WR and PRE. */
    std::array<dram::Tick, kMaxChannelBanks> readyAct_{};
    std::array<dram::Tick, kMaxChannelBanks> readyColumn_{};
    std::array<dram::Tick, kMaxChannelBanks> readyPre_{};
    uint64_t openMask_ = 0; ///< banks with an open row
    /** Per (rank, bank group): earliest next ACT the rank's tRRD_S,
     *  tRRD_L and tFAW state allows; bit g of tfawGroups_ is set when
     *  the tFAW term alone sets that time. */
    std::array<dram::Tick, kMaxChannelBanks> groupActReady_{};
    uint64_t tfawGroups_ = 0;
    /** Last ACT time per (rank, bank group): the tRRD_L reference,
     *  exact for DDR5's 8 groups and HBM2's 4 alike. */
    std::array<dram::Tick, kMaxChannelBanks> groupLastAct_{};
    BankQueue readQ_;
    BankQueue writeQ_;
    bool draining_ = false;

    /** Reused per-ACT action buffer: cleared, never reallocated, so
     *  the defense hook performs no per-activation heap allocation. */
    defense::ActionBuffer actionBuf_;

    /** Queued requests (both queues, parked included) per flat bank,
     *  and the mask of banks with any: nextWakeup visits only those. */
    std::array<uint32_t, kMaxChannelBanks> pendingPerBank_{};
    uint64_t pendingMask_ = 0;

    /** Cached min-wakeup: while valid and now_ < quietUntil_ (and
     *  before quietBusFlip_, see below), no request can make
     *  progress, so run() skips tryIssue. Invalidated by anything
     *  that changes schedulable state (enqueue, refresh, epoch end);
     *  issue paths pick afresh. */
    bool quietValid_ = false;
    dram::Tick quietUntil_ = 0;
    /** The one lookahead condition in tryIssue — a column may issue
     *  while the bus frees within tCL — flips at busReady_ - tCL,
     *  which is not a wakeup candidate. Crossing this time therefore
     *  forces a fresh pick, not a skip. */
    dram::Tick quietBusFlip_ = 0;

    /** Result of the last failed pick: the earliest time any request
     *  of the picked queue can become serviceable with state
     *  unchanged, and whether that minimum is the bus-lookahead term,
     *  which is not a wakeup candidate itself. */
    dram::Tick blockedUntil_ = 0;
    bool blockedByBus_ = false;

    ControllerStats stats_;
};

} // namespace svard::sim

#endif // SVARD_SIM_CONTROLLER_H
