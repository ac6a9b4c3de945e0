/**
 * @file
 * O3-lite core model (paper Table 4: 4-wide issue, 128-entry window).
 * The core dispatches its trace's instructions at the issue width;
 * memory reads occupy the instruction window until data returns, so a
 * read whose age exceeds the window blocks further dispatch — the
 * standard trace-driven out-of-order approximation used by DRAM
 * studies. Writes retire through the write buffer immediately.
 *
 * The release/completion path is part of the simulation inner loop
 * (tens of millions of calls per sweep cell), so the hot queries are
 * inline and the outstanding-read set is a flat token-sorted ring
 * (tokens are issued monotonically) instead of a node-based map.
 */
#ifndef SVARD_SIM_CORE_MODEL_H
#define SVARD_SIM_CORE_MODEL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/config.h"
#include "sim/workload.h"

namespace svard::sim {

class CoreModel
{
  public:
    /**
     * @param primary number of trace requests whose completion ends
     *        the measured run; the trace repeats afterwards so the
     *        core keeps exerting pressure until every core finishes.
     */
    CoreModel(const SimConfig &cfg, uint32_t id,
              std::vector<TraceEntry> trace, size_t primary);

    /** True when a request is ready to send at `now`. */
    bool
    canRelease(dram::Tick now) const
    {
        if (now < stallUntil_ || now < frontendReady_)
            return false;
        // Instruction-window constraint: the next entry cannot
        // dispatch while an outstanding read is more than `window`
        // instructions older.
        if (outLive_ != 0) {
            const uint64_t next_inst =
                instsDispatched_ + entryAt(nextIdx_).gap;
            if (next_inst - oldestOutstanding() > cfg_.instrWindow)
                return false;
        }
        return true;
    }

    /**
     * Earliest time the next request could be released, or a huge
     * value when blocked on an outstanding read's completion.
     */
    dram::Tick
    nextReleaseTime() const
    {
        if (outLive_ != 0) {
            const uint64_t next_inst =
                instsDispatched_ + entryAt(nextIdx_).gap;
            if (next_inst - oldestOutstanding() > cfg_.instrWindow)
                return kFarAway; // unblocked only by a completion
        }
        return std::max(stallUntil_, frontendReady_);
    }

    /**
     * Inspect the next request without popping it (the system peeks
     * to route by channel and check backpressure before committing).
     */
    const TraceEntry &
    peek() const
    {
        return entryAt(nextIdx_);
    }

    /** Pop the next request (caller checked canRelease). */
    TraceEntry
    release(dram::Tick now, uint64_t *token_out)
    {
        const TraceEntry &e = entryAt(nextIdx_);
        instsDispatched_ += e.gap;
        // Dispatch cost of the gap's instructions at the issue width.
        const dram::Tick dispatch =
            static_cast<dram::Tick>(e.gap) * cfg_.cpuTick() /
            cfg_.issueWidth;
        frontendReady_ = std::max(frontendReady_, now) + dispatch;
        lastEventTime_ = std::max(lastEventTime_, frontendReady_);

        const uint64_t token = nextToken_++;
        if (!e.write)
            pushOutstanding(token, instsDispatched_);
        if (token_out)
            *token_out = token;
        ++nextIdx_;

        if (nextIdx_ == primary_ && primaryReads_ == 0) {
            finishTime_ = frontendReady_;
        }
        return e;
    }

    /** A read issued by this core completed. */
    void
    onReadComplete(uint64_t token, dram::Tick when)
    {
        const uint64_t inst = eraseOutstanding(token);
        if (inst == kGone)
            return;
        const bool primary_read = inst <= primaryInsts_;
        lastEventTime_ = std::max(lastEventTime_, when);
        if (primary_read && primaryCompleted_ < primaryReads_) {
            ++primaryCompleted_;
            if (primaryCompleted_ == primaryReads_)
                finishTime_ = std::max(when, frontendReady_);
        }
    }

    /** The enqueue failed (queue full): retry no earlier than t. */
    void
    stallUntil(dram::Tick t)
    {
        stallUntil_ = std::max(stallUntil_, t);
    }

    /** All primary-phase requests issued and completed. */
    bool
    primaryDone() const
    {
        return nextIdx_ >= primary_ &&
               primaryCompleted_ >= primaryReads_;
    }

    /** IPC of the primary phase. */
    double ipc() const;

    uint32_t id() const { return id_; }

  private:
    static constexpr dram::Tick kFarAway =
        std::numeric_limits<dram::Tick>::max() / 4;
    /** Tombstone marker for erased reads (real instruction indices
     *  stay far below it). */
    static constexpr uint64_t kGone =
        std::numeric_limits<uint64_t>::max();

    struct OutRead
    {
        uint64_t token;
        uint64_t inst;
    };

    const TraceEntry &entryAt(size_t i) const
    {
        return trace_[i % trace_.size()];
    }

    /** Cumulative instruction index of the oldest in-flight read.
     *  The ring is token-sorted (tokens issue monotonically) and the
     *  head is kept live, so this is one load. */
    uint64_t
    oldestOutstanding() const
    {
        return outstanding_[outHead_].inst;
    }

    void
    pushOutstanding(uint64_t token, uint64_t inst)
    {
        outstanding_.push_back({token, inst});
        ++outLive_;
    }

    /** Remove `token`; returns its instruction index or kGone. */
    uint64_t
    eraseOutstanding(uint64_t token)
    {
        const auto begin = outstanding_.begin() +
                           static_cast<std::ptrdiff_t>(outHead_);
        const auto it = std::lower_bound(
            begin, outstanding_.end(), token,
            [](const OutRead &o, uint64_t t) { return o.token < t; });
        if (it == outstanding_.end() || it->token != token ||
            it->inst == kGone)
            return kGone;
        const uint64_t inst = it->inst;
        it->inst = kGone;
        --outLive_;
        if (outLive_ == 0) {
            outstanding_.clear();
            outHead_ = 0;
        } else {
            // Keep the head live so oldestOutstanding() is one load.
            while (outHead_ < outstanding_.size() &&
                   outstanding_[outHead_].inst == kGone)
                ++outHead_;
            // Reclaim the dead prefix once it dominates the buffer.
            if (outHead_ >= 512 &&
                outHead_ * 2 >= outstanding_.size()) {
                outstanding_.erase(
                    outstanding_.begin(),
                    outstanding_.begin() +
                        static_cast<std::ptrdiff_t>(outHead_));
                outHead_ = 0;
            }
        }
        return inst;
    }

    const SimConfig &cfg_;
    uint32_t id_;
    std::vector<TraceEntry> trace_;
    size_t primary_;

    size_t nextIdx_ = 0;         ///< next trace entry to release
    uint64_t instsDispatched_ = 0;
    dram::Tick frontendReady_ = 0;
    dram::Tick stallUntil_ = 0;

    // Outstanding reads, token-sorted with tombstoned erases.
    std::vector<OutRead> outstanding_;
    size_t outHead_ = 0;
    size_t outLive_ = 0;
    uint64_t nextToken_ = 1;

    size_t primaryCompleted_ = 0; ///< primary reads completed
    size_t primaryReads_ = 0;     ///< total reads in primary phase
    bool countedReads_ = false;
    uint64_t primaryInsts_ = 0;
    dram::Tick finishTime_ = 0;
    dram::Tick lastEventTime_ = 0;
};

} // namespace svard::sim

#endif // SVARD_SIM_CORE_MODEL_H
