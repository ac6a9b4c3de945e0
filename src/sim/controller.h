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
 * The inner loop is allocation-free and event-driven: a pick visits
 * the banks with work in a bank-indexed queue, not every request;
 * defense actions land in a reusable ActionBuffer, the tFAW history is
 * a 4-slot ring, and a cached min-wakeup ("quiet until") skips picks
 * that provably fail — with bit-identical scheduling decisions
 * (asserted by tests/test_perf_golden.cc and the command-stream
 * digests of tests/test_timing_rules.cc).
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

/**
 * One request queue (reads or writes), indexed by bank for FR-FCFS.
 * Requests live in a fixed slot pool, stamped with a queue-wide
 * arrival sequence number and linked into one arrival-ordered list
 * per bank; `active` holds the banks whose list is non-empty. Each
 * bank caches the only two requests the scheduler can pick from it:
 * the oldest to the open row (`hit`) and the oldest other one
 * (`other`), keyed on the bank's (open, row) state. A throttled
 * request waits in `parked`, off its bank list, and is linked back at
 * its arrival position once released. Never allocates after
 * construction: the per-activation hot path depends on that.
 */
struct BankQueue
{
    static constexpr uint32_t kNil = UINT32_MAX;
    /** Candidate key of a closed bank; an open bank's key is its row. */
    static constexpr int64_t kClosed = -1;
    static constexpr int64_t kStale = -2; ///< candidates need a rescan

    struct Slot
    {
        MemRequest req;
        uint64_t seq = 0;
        uint32_t prev = kNil, next = kNil; ///< bank list links
    };

    struct PerBank
    {
        uint32_t head = kNil, tail = kNil;
        uint32_t activePos = 0; ///< index in `active` while listed
        uint32_t hit = kNil, other = kNil; ///< candidate slots
        uint64_t hitSeq = 0, otherSeq = 0;
        int64_t key = kStale;   ///< bank state the candidates are for
    };

    BankQueue(size_t capacity, uint32_t num_banks);

    /** Link slot `s` into its bank list at its arrival position;
     *  `key` is the bank's current candidate key. */
    void link(uint32_t s, int64_t key);
    /** Unlink slot `s` (a candidate) from its bank list. */
    void unlink(uint32_t s);
    /** Recompute a bank's candidates for bank state `key`. */
    void rescan(PerBank &pb, int64_t key);
    /** Take `s` as a candidate of bank state `key` if it is older. */
    void offer(PerBank &pb, uint32_t s, int64_t key);

    std::vector<Slot> slots;
    std::vector<uint32_t> freeSlots;
    std::vector<PerBank> banks;
    std::vector<uint32_t> active;
    std::vector<uint32_t> parked;
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
    const MopMapper &mapper() const { return mapper_; }

    /** Report every issued command to `obs` (null: none). */
    void setObserver(CommandObserver *obs) { observer_ = obs; }

  private:
    struct Bank
    {
        bool open = false;
        uint32_t row = 0;
        uint32_t hitStreak = 0;
        uint32_t rank = 0;          ///< fixed at construction
        uint32_t group = 0;         ///< bank group within the rank
        dram::Tick readyAct = 0;    ///< earliest next ACT
        dram::Tick readyColumn = 0; ///< earliest next RD/WR
        dram::Tick readyPre = 0;    ///< earliest next PRE

        int64_t key() const { return open ? row : BankQueue::kClosed; }
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

    /** Earliest next ACT a rank's tRRD/tFAW state allows for a bank
     *  of bank group `bg` (the scheduler's single source of truth:
     *  the pick and nextWakeup both derive from it). */
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
    BankQueue readQ_;
    BankQueue writeQ_;
    bool draining_ = false;

    /** Reused per-ACT action buffer: cleared, never reallocated, so
     *  the defense hook performs no per-activation heap allocation. */
    defense::ActionBuffer actionBuf_;

    /** Queued requests (both queues) per flat bank, plus a compact
     *  unordered list of the banks with work — the index that lets
     *  nextWakeup visit only the (few) banks that can matter. */
    std::vector<uint32_t> pendingPerBank_;
    std::vector<uint32_t> pendingBanks_;
    std::vector<uint32_t> pendingPos_; ///< bank -> index in pendingBanks_

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
