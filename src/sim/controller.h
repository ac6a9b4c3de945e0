/**
 * @file
 * Cycle-accurate-enough DDR4 memory controller: FR-FCFS scheduling
 * with a column-access cap, open-row policy, bank/rank timing (tRCD,
 * tRP, tRAS, tCCD, tRRD, tFAW, refresh), a shared data bus, write
 * draining, and the defense hook that turns preventive actions into
 * DRAM traffic (victim refreshes, throttling stalls, migration/swap
 * bandwidth, metadata transfers).
 *
 * The inner loop is allocation-free and event-driven: requests live in
 * fixed ring buffers, defense actions land in a reusable ActionBuffer,
 * the tFAW history is a 4-slot ring, and a cached min-wakeup ("quiet
 * until") plus per-bank pending counts replace the full-queue rescans
 * the scheduler used to pay on every clock advance — with bit-identical
 * scheduling decisions (asserted by tests/test_perf_golden.cc).
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

/**
 * Fixed-capacity circular request queue with order-preserving middle
 * erase (shifts whichever side is shorter, like std::deque, but over
 * one contiguous power-of-two buffer). Never allocates after
 * construction — the scheduler's per-activation hot path depends on
 * that.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(size_t capacity)
    {
        size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        buf_.resize(cap);
        mask_ = cap - 1;
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    MemRequest &
    operator[](size_t i)
    {
        return buf_[(head_ + i) & mask_];
    }

    const MemRequest &
    operator[](size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    /** Callers check fullness against their own limit first. */
    void
    push_back(const MemRequest &r)
    {
        buf_[(head_ + count_) & mask_] = r;
        ++count_;
    }

    void
    erase(size_t i)
    {
        if (i < count_ - i - 1) {
            for (size_t j = i; j > 0; --j)
                (*this)[j] = (*this)[j - 1];
            head_ = (head_ + 1) & mask_;
        } else {
            for (size_t j = i; j + 1 < count_; ++j)
                (*this)[j] = (*this)[j + 1];
        }
        --count_;
    }

  private:
    std::vector<MemRequest> buf_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t count_ = 0;
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
    /** Scheduler scans answered by the O(1) blocked-until cache. */
    uint64_t blockedUntilHits = 0;
    /** Closed-bank activates blocked specifically by the tFAW window. */
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
        blockedUntilHits += o.blockedUntilHits;
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

    MemController(const SimConfig &cfg, defense::Defense *defense,
                  Completion on_complete);

    /** Enqueue a request; returns false if the queue is full. */
    bool enqueue(const MemRequest &req);

    bool
    readQueueFull() const
    {
        return readQ_.size() >= cfg_.readQueue;
    }

    bool
    writeQueueFull() const
    {
        return writeQ_.size() >= cfg_.writeQueue;
    }

    /**
     * Advance the controller until `until` or until all queued work
     * is drained, whichever is earlier. Returns the controller clock.
     */
    dram::Tick run(dram::Tick until);

    bool
    idle() const
    {
        return readQ_.empty() && writeQ_.empty();
    }

    dram::Tick now() const { return now_; }
    const ControllerStats &stats() const { return stats_; }
    const MopMapper &mapper() const { return mapper_; }

  private:
    struct Bank
    {
        bool open = false;
        uint32_t row = 0;
        uint32_t hitStreak = 0;
        dram::Tick actTime = 0;     ///< last ACT (for tRAS)
        dram::Tick readyAct = 0;    ///< earliest next ACT
        dram::Tick readyColumn = 0; ///< earliest next RD/WR
        dram::Tick readyPre = 0;    ///< earliest next PRE
    };

    struct Rank
    {
        /** Last 4 ACT times (tFAW window), fixed 4-slot ring. */
        std::array<dram::Tick, 4> actRing{};
        uint32_t actHead = 0;  ///< oldest entry once the ring is full
        uint32_t actCount = 0;
        dram::Tick lastAct = -1'000'000; ///< tRRD_S reference
        /** Last ACT time per bank group (tRRD_L reference; sized to
         *  cfg.bankGroups, so DDR5's 8 groups and HBM2's 4 are both
         *  exact instead of assuming the DDR4 Table 4 shape). */
        std::vector<dram::Tick> lastActBg;
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

    /** Try to issue the best request at `now_`; returns true if one
     *  was serviced (or partially progressed). */
    bool tryIssue();

    /** Write-drain hysteresis tick; returns whether writes drain.
     *  The hysteresis is sequence-stateful, so it must be evaluated
     *  exactly once per scheduler iteration — tryIssue does it when
     *  it runs, run() does it when the quiet cache skips tryIssue. */
    bool updateDrainMode();

    /** Earliest future time at which anything could change, at or
     *  after `from` (refresh processing times are always honored).
     *  Scans the banks/ranks with queued work (pendingPerBank_)
     *  instead of the queues themselves — same minimum, far fewer
     *  iterations. */
    dram::Tick nextWakeup(dram::Tick from = 0) const;

    /** Issue an ACT to a bank (timing + defense hook). */
    void doActivate(uint32_t flat_bank, uint32_t row, bool maintenance);

    void doPrecharge(uint32_t flat_bank);

    /** Execute defense actions produced by an ACT. */
    void applyActions(const defense::ActionBuffer &acts,
                      uint32_t flat_bank, uint32_t row,
                      dram::Tick *throttle_out);

    void refreshIfDue();

    uint32_t rankOf(uint32_t flat_bank) const
    {
        return flat_bank / (cfg_.bankGroups * cfg_.banksPerGroup);
    }

    /** Bank group of a flat bank within its rank (tRRD_L/tCCD_L). */
    uint32_t bankGroupOf(uint32_t flat_bank) const
    {
        return (flat_bank % (cfg_.bankGroups * cfg_.banksPerGroup)) /
               cfg_.banksPerGroup;
    }

    /** Earliest next ACT a rank's tRRD/tFAW state allows for a bank
     *  of bank group `bg` (the scheduler's single source of truth:
     *  the issue check, the blocked-until scan, and the incremental
     *  enqueue verdict all derive from it). */
    dram::Tick
    rankActReady(const Rank &rank, uint32_t bg) const
    {
        dram::Tick e = rank.lastAct + cfg_.timing.tRRD_S;
        e = std::max(e, rank.lastActBg[bg] + cfg_.timing.tRRD_L);
        if (rank.actCount == 4)
            e = std::max(e, rank.oldestAct() + cfg_.timing.tFAW);
        return e;
    }

    const SimConfig &cfg_;
    MopMapper mapper_;
    defense::Defense *defense_; ///< may be null (baseline)
    Completion onComplete_;

    dram::Tick now_ = 0;
    dram::Tick busReady_ = 0;
    dram::Tick epochStart_ = 0;
    /** Earliest rank refresh or defense-epoch due time; refreshIfDue
     *  is a single compare until then. 0 forces the first pass to
     *  compute it. */
    dram::Tick maintenanceDue_ = 0;
    std::vector<Bank> banks_;
    std::vector<Rank> ranks_;
    RequestQueue readQ_;
    RequestQueue writeQ_;
    bool draining_ = false;

    /** Reused per-ACT action buffer: cleared, never reallocated, so
     *  the defense hook performs no per-activation heap allocation. */
    defense::ActionBuffer actionBuf_;

    /** Queued requests (both queues) per flat bank, plus a compact
     *  unordered list of the banks with work — the index that lets
     *  nextWakeup and the fast-fail check visit only the (few) banks
     *  that can matter instead of every bank or every request. */
    std::vector<uint32_t> pendingPerBank_;
    std::vector<uint32_t> pendingBanks_;
    std::vector<uint32_t> pendingPos_; ///< bank -> index in pendingBanks_
    /** Queued requests with a throttle release time set; when zero,
     *  nextWakeup skips the notBefore scan entirely. */
    uint32_t throttledQueued_ = 0;

    /** Cached min-wakeup: while valid and now_ < quietUntil_ (and
     *  before quietBusFlip_, see below), no request can make
     *  progress, so run() skips the tryIssue scan. Invalidated by
     *  anything that changes schedulable state (enqueue, refresh,
     *  epoch end); issue paths run full scans. */
    bool quietValid_ = false;
    dram::Tick quietUntil_ = 0;
    /** The one lookahead condition in tryIssue — a column may issue
     *  while the bus frees within tCL — flips at busReady_ - tCL,
     *  which is not a wakeup candidate (the pre-rewrite scheduler
     *  caught it by rescanning at caller-driven run() boundaries).
     *  Crossing this time therefore forces a rescan, not a skip. */
    dram::Tick quietBusFlip_ = 0;

    /** Result cache of a failed scan: the minimum, over the scanned
     *  queue, of each request's exact earliest-serviceable time.
     *  While no state has changed (no enqueue, issue, refresh, or
     *  epoch end) and the same queue is up, a repeat scan before
     *  this time provably fails — tryIssue returns in O(1). */
    bool scanCacheValid_ = false;
    bool scanCacheDrained_ = false; ///< queue the cached fail covers
    dram::Tick scanBlockedUntil_ = 0;
    /** The blocking minimum came from the bus-lookahead term, which
     *  is not a wakeup candidate — the jump shortcut must not treat
     *  it as one. */
    bool scanBlockedByBus_ = false;
    /** Last tryIssue failure was answered from the scan cache, i.e.
     *  provably nothing changed — run() then keeps its jump target
     *  instead of re-deriving it. */
    bool lastFailCached_ = false;


    ControllerStats stats_;
};

} // namespace svard::sim

#endif // SVARD_SIM_CONTROLLER_H
