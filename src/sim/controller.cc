#include "sim/controller.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "common/log.h"

namespace svard::sim {

namespace {
constexpr dram::Tick kInf = std::numeric_limits<dram::Tick>::max() / 4;

constexpr uint64_t
bankBit(uint32_t b)
{
    return uint64_t{1} << b;
}

/** The lowest set bank of a non-empty mask. */
uint32_t
lowestBank(uint64_t m)
{
    return static_cast<uint32_t>(std::countr_zero(m));
}

/** Refuses a channel the bank masks cannot hold; runs before any
 *  controller state is built. */
const SimConfig &
checkedBanks(const SimConfig &cfg)
{
    if (cfg.totalBanks() > kMaxChannelBanks)
        throw std::invalid_argument(
            "MemController: " + std::to_string(cfg.totalBanks()) +
            " banks per channel (ranks x bank groups x banks per "
            "group) exceed the limit of " +
            std::to_string(kMaxChannelBanks));
    return cfg;
}
} // anonymous namespace

BankQueue::BankQueue(size_t capacity, uint32_t num_banks)
    : slots(capacity), banks(num_banks)
{
    for (size_t s = capacity; s-- > 0;)
        freeSlots.push_back(static_cast<uint32_t>(s));
    parked.reserve(capacity);
}

void
BankQueue::offer(uint32_t b, uint32_t s, int64_t key)
{
    PerBank &pb = banks[b];
    const Slot &x = slots[s];
    const bool hit = key >= 0 && x.req.addr.row == key;
    uint32_t &c = hit ? pb.hit : pb.other;
    uint64_t &c_seq = hit ? pb.hitSeq : pb.otherSeq;
    if (c == kNil || x.seq < c_seq) {
        c = s;
        c_seq = x.seq;
    }
    (hit ? hitMask : otherMask) |= bankBit(b);
}

void
BankQueue::link(uint32_t s, int64_t key)
{
    Slot &x = slots[s];
    const uint32_t b = x.req.flatBank;
    PerBank &pb = banks[b];
    if (pb.head == kNil) {
        // An empty bank has no candidates: the newcomer is one.
        listed |= bankBit(b);
        x.prev = x.next = kNil;
        pb.head = pb.tail = s;
        pb.hit = pb.other = kNil;
        offer(b, s, key);
        return;
    }
    // New requests append; a released one walks back past the younger.
    uint32_t after = pb.tail;
    while (after != kNil && slots[after].seq > x.seq)
        after = slots[after].prev;
    x.prev = after;
    x.next = after == kNil ? pb.head : slots[after].next;
    (after == kNil ? pb.head : slots[after].next) = s;
    (x.next == kNil ? pb.tail : slots[x.next].prev) = s;
    // Fresh candidates only gain an older one; stale ones are rebuilt
    // by the next pick anyway.
    if (!(stale & bankBit(b)))
        offer(b, s, key);
}

void
BankQueue::unlink(uint32_t s)
{
    const Slot &x = slots[s];
    const uint32_t b = x.req.flatBank;
    PerBank &pb = banks[b];
    (x.prev == kNil ? pb.head : slots[x.prev].next) = x.next;
    (x.next == kNil ? pb.tail : slots[x.next].prev) = x.prev;
    if (pb.head != kNil) {
        stale |= bankBit(b); // a candidate left
        return;
    }
    listed &= ~bankBit(b);
    stale &= ~bankBit(b);
    hitMask &= ~bankBit(b);
    otherMask &= ~bankBit(b);
    pb.hit = pb.other = kNil;
}

void
BankQueue::rescan(uint32_t b, int64_t key)
{
    PerBank &pb = banks[b];
    pb.hit = pb.other = kNil;
    hitMask &= ~bankBit(b);
    otherMask &= ~bankBit(b);
    for (uint32_t s = pb.head;
         s != kNil && (pb.hit == kNil || pb.other == kNil);
         s = slots[s].next)
        offer(b, s, key);
}

MemController::MemController(const SimConfig &cfg,
                             defense::Defense *defense,
                             Completion on_complete)
    : cfg_(checkedBanks(cfg)), mapper_(cfg), defense_(defense),
      onComplete_(std::move(on_complete)), banks_(cfg.totalBanks()),
      ranks_(cfg.ranks), readQ_(cfg.readQueue, cfg.totalBanks()),
      writeQ_(cfg.writeQueue, cfg.totalBanks())
{
    for (uint32_t b = 0; b < banks_.size(); ++b) {
        banks_[b].rank = b / cfg.banksPerRank();
        banks_[b].group = b / cfg.banksPerGroup;
    }
    groupLastAct_.fill(-1'000'000);
    for (uint32_t r = 0; r < cfg_.ranks; ++r) {
        ranks_[r].refreshDue = cfg_.timing.tREFI;
        updateRankActReady(r);
    }
    // Largest per-ACT burst: a defense may emit a handful of refresh,
    // migration, and metadata actions for one activation; reserve so
    // the buffer stops growing after the first few ACTs.
    actionBuf_.reserve(8);
}

bool
MemController::enqueue(const MemRequest &req)
{
    BankQueue &q = req.write ? writeQ_ : readQ_;
    if (q.size >= (req.write ? cfg_.writeQueue : cfg_.readQueue))
        return false;
    const uint32_t s = q.freeSlots.back();
    q.freeSlots.pop_back();
    ++q.size;
    BankQueue::Slot &x = q.slots[s];
    x.req = req;
    x.req.flatBank = mapper_.flatBank(req.addr);
    x.seq = q.nextSeq++;
    const uint32_t b = x.req.flatBank;
    if (x.req.notBefore > now_)
        q.parked.push_back(s);
    else
        q.link(s, bankKey(b));
    ++pendingPerBank_[b];
    pendingMask_ |= bankBit(b);
    quietValid_ = false; // new work may be issuable immediately
    quietUntil_ = 0;     // stale jump target must not be revalidated
    return true;
}

void
MemController::updateRankActReady(uint32_t r)
{
    const Rank &rank = ranks_[r];
    const auto &t = cfg_.timing;
    const dram::Tick rrd_s = rank.lastAct + t.tRRD_S;
    const bool full = rank.actCount == 4;
    const dram::Tick faw = rank.oldestAct() + t.tFAW;
    for (uint32_t g = r * cfg_.bankGroups; g < (r + 1) * cfg_.bankGroups;
         ++g) {
        dram::Tick e = std::max(rrd_s, groupLastAct_[g] + t.tRRD_L);
        if (full)
            e = std::max(e, faw);
        groupActReady_[g] = e;
        // The tFAW window is binding exactly when it sets this time.
        tfawGroups_ &= ~bankBit(g);
        tfawGroups_ |= uint64_t{full && e == faw} << g;
    }
}

void
MemController::closeBank(uint32_t flat_bank)
{
    openMask_ &= ~bankBit(flat_bank);
    banks_[flat_bank].hitStreak = 0;
    readQ_.invalidate(flat_bank);
    writeQ_.invalidate(flat_bank);
}

void
MemController::doActivate(uint32_t flat_bank, uint32_t row)
{
    Bank &bank = banks_[flat_bank];
    Rank &rank = ranks_[bank.rank];
    openMask_ |= bankBit(flat_bank);
    bank.row = row;
    bank.hitStreak = 0;
    readQ_.invalidate(flat_bank);
    writeQ_.invalidate(flat_bank);
    readyColumn_[flat_bank] = now_ + cfg_.timing.tRCD;
    readyPre_[flat_bank] = now_ + cfg_.timing.tRAS;
    rank.lastAct = now_;
    groupLastAct_[bank.group] = now_;
    rank.pushAct(now_);
    updateRankActReady(bank.rank);
    ++stats_.activations;
    observe(DramCommand::Kind::Act, flat_bank, row, 0);
}

void
MemController::doPrecharge(uint32_t flat_bank)
{
    closeBank(flat_bank);
    readyAct_[flat_bank] =
        std::max(readyAct_[flat_bank], now_ + cfg_.timing.tRP);
    observe(DramCommand::Kind::Pre, flat_bank, 0, 0);
}

void
MemController::applyActions(const defense::ActionBuffer &acts,
                            dram::Tick *throttle_out)
{
    using Kind = defense::PreventiveAction::Kind;
    const auto &t = cfg_.timing;
    const dram::Tick row_transfer =
        t.tRCD + static_cast<dram::Tick>(cfg_.blocksPerRow()) * t.tBL +
        t.tRP;
    const dram::Tick row_burst =
        static_cast<dram::Tick>(cfg_.blocksPerRow()) * t.tBL;
    for (const auto &a : acts) {
        // The defense emits actions in the controller's own flat bank
        // space: a bank outside it fails loudly instead of being
        // folded away with a modulo.
        const uint32_t b = a.bank;
        SVARD_ASSERT(b < banks_.size(),
                     "defense action bank outside the controller's "
                     "flat bank space");
        // Row-content moves go through the memory controller, so they
        // occupy the shared channel data bus as well as the bank.
        auto occupy = [&](dram::Tick bank_dur, dram::Tick bus_dur) {
            dram::Tick base = std::max(now_, readyAct_[b]);
            if (isOpen(b)) {
                base = std::max(now_, readyPre_[b]) + t.tRP;
                closeBank(b);
            }
            readyAct_[b] = std::max(readyAct_[b], base + bank_dur);
            observe(DramCommand::Kind::Occupy, b, 0, readyAct_[b]);
            if (bus_dur > 0)
                busReady_ = std::max(busReady_, now_) + bus_dur;
        };
        switch (a.kind) {
          case Kind::RefreshRow:
            occupy(t.tRAS + t.tRP, 0);
            ++stats_.preventiveRefreshes;
            break;
          case Kind::Throttle:
            if (throttle_out)
                *throttle_out = std::max(*throttle_out, a.delay);
            stats_.throttleStall += a.delay;
            break;
          case Kind::MigrateRow:
            // One row out + one row in: two full-row bursts.
            occupy(2 * row_transfer, 2 * row_burst);
            ++stats_.migrations;
            break;
          case Kind::SwapRows:
            // A swap streams both rows through the swap buffer (two
            // reads + two writes); at swap-threshold rates each
            // swapped row is also unswapped/relocated again before
            // the epoch ends, which RRS pays as additional row
            // transfers (amortized here), making RRS roughly twice
            // AQUA's one-row migration — the paper's Fig. 12 gap.
            occupy(8 * row_transfer, 8 * row_burst);
            ++stats_.swaps;
            break;
          case Kind::MetadataAccess:
            occupy(t.tRCD + t.tCL + t.tBL + t.tRP, t.tBL);
            ++stats_.metadataAccesses;
            break;
        }
    }
}

void
MemController::refreshIfDue()
{
    // One compare covers the common case: nothing (rank refresh or
    // defense epoch) is due yet. maintenanceDue_ caches the earliest
    // due time and is refreshed whenever either source advances.
    if (now_ < maintenanceDue_)
        return;
    // Recalibration duty (drift sweeps): the policy's amortized
    // re-characterization ACTs extend every refresh stall. Zero duty
    // — the static path — adds exactly zero ticks.
    const dram::Tick recal_extra =
        cfg_.recalDuty > 0.0
            ? static_cast<dram::Tick>(cfg_.recalDuty *
                                      cfg_.timing.tREFI)
            : 0;
    for (uint32_t r = 0; r < cfg_.ranks; ++r) {
        Rank &rank = ranks_[r];
        if (now_ < rank.refreshDue)
            continue;
        const uint32_t banks_per_rank = cfg_.banksPerRank();
        for (uint32_t b = r * banks_per_rank;
             b < (r + 1) * banks_per_rank; ++b) {
            dram::Tick base = std::max(now_, readyAct_[b]);
            if (isOpen(b)) {
                base = std::max(now_, readyPre_[b]) + cfg_.timing.tRP;
                closeBank(b);
            }
            readyAct_[b] = std::max(readyAct_[b], base +
                                                      cfg_.timing.tRFC +
                                                      recal_extra);
        }
        observe(DramCommand::Kind::Ref, r, 0, rank.refreshDue);
        rank.refreshDue += cfg_.timing.tREFI;
        ++stats_.refreshes;
        quietValid_ = false; // bank ready times moved
    }
    // Refresh-window epoch for the defense's counter structures.
    if (defense_ && now_ - epochStart_ >= cfg_.timing.tREFW) {
        defense_->onEpochEnd(now_);
        epochStart_ = now_;
        quietValid_ = false;
    }
    maintenanceDue_ = kInf;
    for (const Rank &rank : ranks_)
        maintenanceDue_ = std::min(maintenanceDue_, rank.refreshDue);
    if (defense_)
        maintenanceDue_ = std::min(maintenanceDue_,
                                   epochStart_ + cfg_.timing.tREFW);
}

bool
MemController::updateDrainMode()
{
    // Write drain hysteresis.
    if (draining_) {
        if (writeQ_.size <= cfg_.writeQueue / 4)
            draining_ = false;
    } else {
        if (writeQ_.size >= 3 * cfg_.writeQueue / 4 ||
            (readQ_.size == 0 && writeQ_.size != 0))
            draining_ = true;
    }
    return draining_ && writeQ_.size != 0;
}

bool
MemController::tryIssue()
{
    BankQueue &q = updateDrainMode() ? writeQ_ : readQ_;
    const auto &t = cfg_.timing;
    constexpr uint32_t kNil = BankQueue::kNil;

    const dram::Tick now = now_;
    // Earliest time any request of q could become serviceable with
    // state unchanged, as 2 * time + (the bus-lookahead term alone
    // set it): the minimum is the earliest time, and on equal times a
    // non-bus blocker wins, since it is a wakeup candidate itself.
    // Meaningful only when the pick fails: then every candidate was
    // blocked and contributed.
    dram::Tick blocked = 2 * kInf;

    // Throttled requests whose release time has come rejoin their
    // bank lists; the rest only bound the blocked time.
    for (size_t i = 0; i < q.parked.size();) {
        const uint32_t s = q.parked[i];
        const MemRequest &r = q.slots[s].req;
        if (r.notBefore > now) {
            blocked = std::min(blocked, 2 * r.notBefore);
            ++i;
            continue;
        }
        q.parked[i] = q.parked.back();
        q.parked.pop_back();
        q.link(s, bankKey(r.flatBank));
    }
    for (uint64_t m = q.stale; m; m &= m - 1) {
        const uint32_t b = lowestBank(m);
        q.rescan(b, bankKey(b));
    }
    q.stale = 0;

    // All requests of one class (open-row hit / other) in a bank are
    // serviceable at the same time, so the oldest stands for the
    // class. Each candidate bank is tested without branching and
    // lands in a legal mask; only the legal banks are compared by
    // age. A column may issue while the bus frees within tCL.
    const dram::Tick bus_at = busReady_ - t.tCL;
    uint64_t hit_ok = 0, other_ok = 0;
    for (uint64_t m = q.hitMask; m; m &= m - 1) {
        const uint32_t b = lowestBank(m);
        const dram::Tick col = std::max(readyColumn_[b], bus_at);
        hit_ok |= uint64_t{col <= now} << b;
        blocked = std::min(blocked,
                           2 * col + (bus_at > readyColumn_[b]));
    }
    // Conflicts: the open row closes once tRAS allows.
    for (uint64_t m = q.otherMask & openMask_; m; m &= m - 1) {
        const uint32_t b = lowestBank(m);
        other_ok |= uint64_t{readyPre_[b] <= now} << b;
        blocked = std::min(blocked, 2 * readyPre_[b]);
    }
    // Closed banks: the bank and its rank's ACT window must allow.
    uint64_t tfaw_stalls = 0;
    for (uint64_t m = q.otherMask & ~openMask_; m; m &= m - 1) {
        const uint32_t b = lowestBank(m);
        const uint32_t g = banks_[b].group;
        const dram::Tick rank_at = groupActReady_[g];
        const dram::Tick ready = std::max(readyAct_[b], rank_at);
        other_ok |= uint64_t{ready <= now} << b;
        blocked = std::min(blocked, 2 * ready);
        // The bank itself is ready but the rank's four-activate
        // window is the binding constraint: a true tFAW stall.
        tfaw_stalls += (readyAct_[b] <= now) & (rank_at > now) &
                       ((tfawGroups_ >> g) & 1);
    }
    stats_.tfawStalls += tfaw_stalls;
    blockedUntil_ = blocked >> 1;
    blockedByBus_ = blocked & 1;

    // FR: the oldest hit under the column cap wins; else FCFS: the
    // oldest serviceable request (capped hit, conflict, closed bank).
    const uint32_t cap = cfg_.columnCap;
    uint32_t hit = kNil, fcfs = kNil;
    uint64_t hit_seq = UINT64_MAX, fcfs_seq = UINT64_MAX;
    for (uint64_t m = hit_ok; m; m &= m - 1) {
        const uint32_t b = lowestBank(m);
        const BankQueue::PerBank &pb = q.banks[b];
        if (banks_[b].hitStreak < cap) {
            if (pb.hitSeq < hit_seq) {
                hit = pb.hit;
                hit_seq = pb.hitSeq;
            }
        } else if (pb.hitSeq < fcfs_seq) {
            fcfs = pb.hit; // capped hit: plain FCFS column
            fcfs_seq = pb.hitSeq;
        }
    }
    if (hit == kNil) {
        for (uint64_t m = other_ok; m; m &= m - 1) {
            const BankQueue::PerBank &pb = q.banks[lowestBank(m)];
            if (pb.otherSeq < fcfs_seq) {
                fcfs = pb.other;
                fcfs_seq = pb.otherSeq;
            }
        }
        if (fcfs == kNil)
            return false;
    }

    auto issue_column = [&](uint32_t s) {
        const MemRequest r = q.slots[s].req;
        const uint32_t b = r.flatBank;
        const dram::Tick cas = r.write ? t.tCWL : t.tCL;
        const dram::Tick data = std::max(now_ + cas, busReady_);
        busReady_ = data + t.tBL;
        readyColumn_[b] = std::max(readyColumn_[b], now_ + t.tCCD_L);
        ++banks_[b].hitStreak;
        observe(r.write ? DramCommand::Kind::Wr : DramCommand::Kind::Rd,
                b, r.addr.row, data);
        if (r.write) {
            readyPre_[b] = std::max(readyPre_[b], data + t.tBL + t.tWR);
            ++stats_.writes;
        } else {
            ++stats_.reads;
            if (onComplete_)
                onComplete_(r, data + t.tBL);
        }
        if (--pendingPerBank_[b] == 0)
            pendingMask_ &= ~bankBit(b);
        q.unlink(s);
        q.freeSlots.push_back(s);
        --q.size;
    };

    if (hit != kNil) {
        stats_.rowHits +=
            banks_[q.slots[hit].req.flatBank].hitStreak > 0 ? 1 : 0;
        issue_column(hit);
        return true;
    }

    MemRequest &r = q.slots[fcfs].req;
    const uint32_t b = r.flatBank;
    if (isOpen(b) && banks_[b].row == r.addr.row) {
        issue_column(fcfs);
        return true;
    }
    if (isOpen(b)) {
        // Row conflict: close the row once tRAS allows.
        ++stats_.rowConflicts;
        doPrecharge(b);
        return true;
    }
    // Bank closed: activate (defense may throttle instead).
    dram::Tick throttle = 0;
    if (defense_ && !r.defenseCleared) {
        actionBuf_.clear();
        defense_->onActivate(b, r.addr.row, now_, actionBuf_);
        applyActions(actionBuf_, &throttle);
        if (throttle > 0) {
            r.notBefore = now_ + throttle;
            q.unlink(fcfs);
            q.parked.push_back(fcfs);
            return true; // state changed; pick again
        }
        r.defenseCleared = true;
        if (readyAct_[b] > now_) {
            // Preventive actions (victim refresh, migration, counter
            // transfer) occupy this bank first; the admitted
            // activation waits behind them and is not re-submitted
            // to the defense.
            return true;
        }
    }
    doActivate(b, r.addr.row);
    return true;
}

dram::Tick
MemController::nextWakeup(dram::Tick from) const
{
    // The earliest candidate time after now_ and at or after `from`.
    const dram::Tick lo = std::max(now_ + 1, from);
    auto due = [lo](dram::Tick t) { return t >= lo ? t : kInf; };
    // Bank and rank readiness only gates banks with queued work. The
    // rank term is the exact per-bank ACT-legality time, shared with
    // the pick so the two can never disagree. One running minimum
    // per array keeps the three chains independent.
    dram::Tick act = kInf, col = kInf, pre = kInf;
    uint64_t groups = 0;
    for (uint64_t m = pendingMask_; m; m &= m - 1) {
        const uint32_t b = lowestBank(m);
        act = std::min(act, due(readyAct_[b]));
        col = std::min(col, due(readyColumn_[b]));
        pre = std::min(pre, due(readyPre_[b]));
        groups |= bankBit(banks_[b].group);
    }
    dram::Tick next = std::min({act, col, pre});
    auto consider = [&](dram::Tick t) { next = std::min(next, due(t)); };
    for (uint64_t m = groups; m; m &= m - 1)
        consider(groupActReady_[lowestBank(m)]);
    // Throttle release times exist only while a defense is actively
    // throttling, and only parked requests carry future ones.
    for (const BankQueue *q : {&readQ_, &writeQ_})
        for (uint32_t s : q->parked)
            consider(q->slots[s].req.notBefore);
    consider(busReady_);
    // Refresh processing times must always be visited, however far
    // past them the caller's interest lies.
    for (const auto &rank : ranks_)
        if (rank.refreshDue > now_ && rank.refreshDue < next)
            next = rank.refreshDue;
    return next;
}

dram::Tick
MemController::run(dram::Tick until)
{
    while (now_ < until) {
        refreshIfDue();
        if (quietValid_) {
            if (now_ >= quietUntil_ || now_ >= quietBusFlip_) {
                quietValid_ = false; // wakeup reached: pick again
            } else {
                // Provably nothing can issue before quietUntil_, so
                // the tryIssue pick is skipped — but its drain-mode
                // hysteresis must still tick once per iteration (its
                // state depends on how often it is evaluated).
                updateDrainMode();
            }
        }
        if (!quietValid_) {
            if (tryIssue())
                continue;
            // The drain hysteresis oscillates when reads are empty
            // but writes sit below the exit watermark: the picked
            // queue then alternates per evaluation, so a failed pick
            // does not prove the *other* queue stays unissuable.
            // Keep a fresh pick per wakeup candidate in that state.
            const bool stable = !(readQ_.size == 0 && writeQ_.size != 0);
            // Jump straight to the next *observable* time: while
            // state is unchanged nothing can issue before the failed
            // pick's blocked-until bound and no epoch boundary may be
            // overjumped (refresh times are always honored inside
            // nextWakeup).
            dram::Tick interest = 0;
            if (stable) {
                interest = blockedUntil_;
                if (defense_)
                    interest = std::min(
                        interest, epochStart_ + cfg_.timing.tREFW);
            }
            if (stable && !blockedByBus_ &&
                blockedUntil_ <= maintenanceDue_) {
                // The blocking minimum is a max of candidate times,
                // hence itself the first candidate at or after it,
                // and no refresh/epoch comes earlier: it IS the next
                // observable time — no bank pass.
                quietUntil_ = blockedUntil_;
            } else {
                quietUntil_ = nextWakeup(interest);
            }
            // If the bus is the blocker, its issue condition becomes
            // true tCL *before* busReady_ — pick again from that
            // point on.
            quietBusFlip_ = busReady_ <= now_ + cfg_.timing.tCL
                                ? kInf
                                : busReady_ - cfg_.timing.tCL;
            quietValid_ = stable;
        }
        const dram::Tick next = quietUntil_;
        if (next >= until) {
            if (idle())
                now_ = until;
            else
                now_ = std::min(next, until);
            break;
        }
        now_ = next;
    }
    if (now_ < until && idle())
        now_ = until;
    return now_;
}

} // namespace svard::sim
