#include "sim/controller.h"

#include <algorithm>

#include "common/log.h"

namespace svard::sim {

namespace {
constexpr dram::Tick kInf = std::numeric_limits<dram::Tick>::max() / 4;
} // anonymous namespace

BankQueue::BankQueue(size_t capacity, uint32_t num_banks)
    : slots(capacity), banks(num_banks)
{
    for (size_t s = capacity; s-- > 0;)
        freeSlots.push_back(static_cast<uint32_t>(s));
    active.reserve(num_banks);
    parked.reserve(capacity);
}

void
BankQueue::offer(PerBank &pb, uint32_t s, int64_t key)
{
    const Slot &x = slots[s];
    const bool hit = key >= 0 && x.req.addr.row == key;
    uint32_t &c = hit ? pb.hit : pb.other;
    uint64_t &c_seq = hit ? pb.hitSeq : pb.otherSeq;
    if (c == kNil || x.seq < c_seq) {
        c = s;
        c_seq = x.seq;
    }
}

void
BankQueue::link(uint32_t s, int64_t key)
{
    Slot &x = slots[s];
    const uint32_t b = x.req.flatBank;
    PerBank &pb = banks[b];
    if (pb.head == kNil) {
        pb.activePos = static_cast<uint32_t>(active.size());
        active.push_back(b);
    }
    // New requests append; a released one walks back past the younger.
    uint32_t after = pb.tail;
    while (after != kNil && slots[after].seq > x.seq)
        after = slots[after].prev;
    x.prev = after;
    x.next = after == kNil ? pb.head : slots[after].next;
    (after == kNil ? pb.head : slots[after].next) = s;
    (x.next == kNil ? pb.tail : slots[x.next].prev) = s;
    // Candidates cached for this bank state only gain an older one;
    // stale ones must not revive if the bank returns to their key.
    if (pb.key == key)
        offer(pb, s, key);
    else
        pb.key = kStale;
}

void
BankQueue::unlink(uint32_t s)
{
    const Slot &x = slots[s];
    PerBank &pb = banks[x.req.flatBank];
    (x.prev == kNil ? pb.head : slots[x.prev].next) = x.next;
    (x.next == kNil ? pb.tail : slots[x.next].prev) = x.prev;
    pb.key = kStale; // a candidate left
    if (pb.head == kNil) {
        const uint32_t last = active.back();
        active[pb.activePos] = last;
        banks[last].activePos = pb.activePos;
        active.pop_back();
    }
}

void
BankQueue::rescan(PerBank &pb, int64_t key)
{
    pb.key = key;
    pb.hit = pb.other = kNil;
    for (uint32_t s = pb.head;
         s != kNil && (pb.hit == kNil || pb.other == kNil);
         s = slots[s].next)
        offer(pb, s, key);
}

MemController::MemController(const SimConfig &cfg,
                             defense::Defense *defense,
                             Completion on_complete)
    : cfg_(cfg), mapper_(cfg), defense_(defense),
      onComplete_(std::move(on_complete)), banks_(cfg.totalBanks()),
      ranks_(cfg.ranks), readQ_(cfg.readQueue, cfg.totalBanks()),
      writeQ_(cfg.writeQueue, cfg.totalBanks()),
      pendingPerBank_(cfg.totalBanks(), 0),
      pendingPos_(cfg.totalBanks(), 0)
{
    pendingBanks_.reserve(cfg.totalBanks());
    for (uint32_t b = 0; b < banks_.size(); ++b) {
        banks_[b].rank = b / cfg.banksPerRank();
        banks_[b].group = b % cfg.banksPerRank() / cfg.banksPerGroup;
    }
    for (uint32_t r = 0; r < cfg_.ranks; ++r) {
        ranks_[r].refreshDue = cfg_.timing.tREFI;
        ranks_[r].lastActBg.assign(cfg_.bankGroups, -1'000'000);
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
        q.link(s, banks_[b].key());
    if (pendingPerBank_[b]++ == 0) {
        pendingPos_[b] = static_cast<uint32_t>(pendingBanks_.size());
        pendingBanks_.push_back(b);
    }
    quietValid_ = false; // new work may be issuable immediately
    quietUntil_ = 0;     // stale jump target must not be revalidated
    return true;
}

void
MemController::doActivate(uint32_t flat_bank, uint32_t row)
{
    Bank &bank = banks_[flat_bank];
    Rank &rank = ranks_[bank.rank];
    bank.open = true;
    bank.row = row;
    bank.hitStreak = 0;
    bank.readyColumn = now_ + cfg_.timing.tRCD;
    bank.readyPre = now_ + cfg_.timing.tRAS;
    rank.lastAct = now_;
    rank.lastActBg[bank.group] = now_;
    rank.pushAct(now_);
    ++stats_.activations;
    observe(DramCommand::Kind::Act, flat_bank, row, 0);
}

void
MemController::doPrecharge(uint32_t flat_bank)
{
    Bank &bank = banks_[flat_bank];
    bank.open = false;
    bank.hitStreak = 0;
    bank.readyAct = std::max(bank.readyAct, now_ + cfg_.timing.tRP);
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
        // space; the shared helper asserts that instead of folding
        // mismatches away with a modulo.
        const uint32_t b = defense::resolveActionBank(a.bank, banks_.size());
        Bank &bank = banks_[b];
        // Row-content moves go through the memory controller, so they
        // occupy the shared channel data bus as well as the bank.
        auto occupy = [&](dram::Tick bank_dur, dram::Tick bus_dur) {
            dram::Tick base = std::max(now_, bank.readyAct);
            if (bank.open) {
                base = std::max(now_, bank.readyPre) + t.tRP;
                bank.open = false;
                bank.hitStreak = 0;
            }
            bank.readyAct = std::max(bank.readyAct, base + bank_dur);
            observe(DramCommand::Kind::Occupy, b, 0, bank.readyAct);
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
        for (uint32_t b = 0; b < banks_per_rank; ++b) {
            Bank &bank = banks_[r * banks_per_rank + b];
            dram::Tick base = std::max(now_, bank.readyAct);
            if (bank.open) {
                base = std::max(now_, bank.readyPre) + cfg_.timing.tRP;
                bank.open = false;
                bank.hitStreak = 0;
            }
            bank.readyAct = std::max(bank.readyAct,
                                     base + cfg_.timing.tRFC +
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
    // state unchanged (meaningful only when the pick fails: then every
    // candidate took a blocked path and contributed). On equal times
    // a non-bus blocker wins, since it is a wakeup candidate itself.
    dram::Tick until = kInf;
    bool by_bus = false;
    auto blocked_at = [&](dram::Tick e, bool from_bus) {
        if (e < until || (e == until && by_bus)) {
            until = e;
            by_bus = from_bus;
        }
    };

    // Throttled requests whose release time has come rejoin their
    // bank lists; the rest only bound the blocked time.
    for (size_t i = 0; i < q.parked.size();) {
        const uint32_t s = q.parked[i];
        const MemRequest &r = q.slots[s].req;
        if (r.notBefore > now) {
            blocked_at(r.notBefore, false);
            ++i;
            continue;
        }
        q.parked[i] = q.parked.back();
        q.parked.pop_back();
        q.link(s, banks_[r.flatBank].key());
    }

    // One pass over the banks with work. All requests of one class
    // (open-row hit / other) in a bank are serviceable at the same
    // time, so the oldest stands for the class. FR: the oldest hit
    // under the column cap wins; else FCFS: the oldest serviceable
    // request (capped hit, conflict, closed bank). A column may issue
    // while the bus frees within tCL.
    const dram::Tick bus_at = busReady_ - t.tCL;
    const uint32_t cap = cfg_.columnCap;
    uint32_t hit = kNil, fcfs = kNil;
    uint64_t hit_seq = UINT64_MAX, fcfs_seq = UINT64_MAX;
    uint64_t tfaw_stalls = 0;
    for (uint32_t b : q.active) {
        const Bank &bank = banks_[b];
        BankQueue::PerBank &pb = q.banks[b];
        if (pb.key != bank.key())
            q.rescan(pb, bank.key());
        if (pb.hit != kNil) {
            const dram::Tick col = std::max(bank.readyColumn, bus_at);
            if (col > now) {
                blocked_at(col, bus_at > bank.readyColumn);
            } else if (bank.hitStreak < cap) {
                if (pb.hitSeq < hit_seq) {
                    hit = pb.hit;
                    hit_seq = pb.hitSeq;
                }
            } else if (pb.hitSeq < fcfs_seq) {
                fcfs = pb.hit; // capped hit: plain FCFS column
                fcfs_seq = pb.hitSeq;
            }
        }
        if (pb.other == kNil)
            continue;
        dram::Tick ready = bank.open ? bank.readyPre : bank.readyAct;
        if (!bank.open) {
            const Rank &rank = ranks_[bank.rank];
            const dram::Tick rank_at = rankActReady(rank, bank.group);
            // The bank itself is ready but the rank's four-activate
            // window is the binding constraint: a true tFAW stall.
            if (bank.readyAct <= now && rank_at > now &&
                rank.actCount == 4 &&
                rank_at == rank.oldestAct() + t.tFAW)
                ++tfaw_stalls;
            ready = std::max(ready, rank_at);
        }
        if (ready > now) {
            blocked_at(ready, false);
        } else if (pb.otherSeq < fcfs_seq) {
            fcfs = pb.other;
            fcfs_seq = pb.otherSeq;
        }
    }
    stats_.tfawStalls += tfaw_stalls;
    blockedUntil_ = until;
    blockedByBus_ = by_bus;
    if (hit == kNil && fcfs == kNil)
        return false;

    auto issue_column = [&](uint32_t s) {
        const MemRequest r = q.slots[s].req;
        Bank &bank = banks_[r.flatBank];
        const dram::Tick cas = r.write ? t.tCWL : t.tCL;
        const dram::Tick data = std::max(now_ + cas, busReady_);
        busReady_ = data + t.tBL;
        bank.readyColumn = std::max(bank.readyColumn, now_ + t.tCCD_L);
        ++bank.hitStreak;
        observe(r.write ? DramCommand::Kind::Wr : DramCommand::Kind::Rd,
                r.flatBank, r.addr.row, data);
        if (r.write) {
            bank.readyPre = std::max(bank.readyPre,
                                     data + t.tBL + t.tWR);
            ++stats_.writes;
        } else {
            ++stats_.reads;
            if (onComplete_)
                onComplete_(r, data + t.tBL);
        }
        if (--pendingPerBank_[r.flatBank] == 0) {
            // Swap-erase from the compact list (order is irrelevant:
            // nextWakeup computes an order-independent minimum).
            const uint32_t last = pendingBanks_.back();
            pendingBanks_[pendingPos_[r.flatBank]] = last;
            pendingPos_[last] = pendingPos_[r.flatBank];
            pendingBanks_.pop_back();
        }
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
    Bank &bank = banks_[r.flatBank];
    if (bank.open && bank.row == r.addr.row) {
        issue_column(fcfs);
        return true;
    }
    if (bank.open) {
        // Row conflict: close the row once tRAS allows.
        ++stats_.rowConflicts;
        doPrecharge(r.flatBank);
        return true;
    }
    // Bank closed: activate (defense may throttle instead).
    dram::Tick throttle = 0;
    if (defense_ && !r.defenseCleared) {
        actionBuf_.clear();
        defense_->onActivate(r.flatBank, r.addr.row, now_, actionBuf_);
        applyActions(actionBuf_, &throttle);
        if (throttle > 0) {
            r.notBefore = now_ + throttle;
            q.unlink(fcfs);
            q.parked.push_back(fcfs);
            return true; // state changed; pick again
        }
        r.defenseCleared = true;
        if (bank.readyAct > now_) {
            // Preventive actions (victim refresh, migration, counter
            // transfer) occupy this bank first; the admitted
            // activation waits behind them and is not re-submitted
            // to the defense.
            return true;
        }
    }
    doActivate(r.flatBank, r.addr.row);
    return true;
}

dram::Tick
MemController::nextWakeup(dram::Tick from) const
{
    dram::Tick next = kInf;
    auto consider = [&](dram::Tick t) {
        if (t > now_ && t >= from && t < next)
            next = t;
    };
    // Bank and rank readiness only gates banks with queued work. The
    // rank term is the exact per-bank ACT-legality time, shared with
    // the pick so the two can never disagree.
    for (uint32_t b : pendingBanks_) {
        const Bank &bank = banks_[b];
        consider(bank.readyAct);
        consider(bank.readyColumn);
        consider(bank.readyPre);
        consider(rankActReady(ranks_[bank.rank], bank.group));
    }
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
