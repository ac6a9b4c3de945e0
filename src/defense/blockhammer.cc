#include "defense/blockhammer.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"

namespace svard::defense {

CountingBloomFilter::CountingBloomFilter(size_t counters, int hashes,
                                         uint64_t seed)
    : counters_(counters, 0), hashes_(hashes), seed_(seed)
{
    SVARD_ASSERT(hashes >= 1 && hashes <= kMaxHashes,
                 "CBF hash count outside [1, kMaxHashes]");
}

void
CountingBloomFilter::indicesOf(uint64_t key, size_t *out) const
{
    for (int h = 0; h < hashes_; ++h)
        out[h] = static_cast<size_t>(
            hashSeed({seed_, static_cast<uint64_t>(h), key}) %
            counters_.size());
}

uint32_t
CountingBloomFilter::insertAt(const size_t *idx)
{
    uint32_t est = UINT32_MAX;
    for (int h = 0; h < hashes_; ++h)
        est = std::min(est, ++counters_[idx[h]]);
    return est;
}

uint32_t
CountingBloomFilter::estimateAt(const size_t *idx) const
{
    uint32_t est = UINT32_MAX;
    for (int h = 0; h < hashes_; ++h)
        est = std::min(est, counters_[idx[h]]);
    return est;
}

void
CountingBloomFilter::clear()
{
    std::fill(counters_.begin(), counters_.end(), 0);
}

BlockHammer::BlockHammer(
    std::shared_ptr<const core::ThresholdProvider> thr)
    : Defense(std::move(thr)),
      cbf_{{kCbfCounters, kCbfHashes, 0xB10C1},
           {kCbfCounters, kCbfHashes, 0xB10C2}}
{}

void
BlockHammer::onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                        std::vector<PreventiveAction> &out)
{
    ++stats_.activationsObserved;

    // Swap the filter pair every half refresh window (RowBlocker's
    // time-interleaving): counts older than a full window expire.
    const dram::Tick half = kRefreshWindow / 2;
    if (now - lastSwap_ >= half) {
        active_ ^= 1;
        cbf_[active_].clear();
        lastSwap_ = now;
        nextAllowed_.clear();
    }

    const uint64_t k = rowKey(bank, row);
    const double budget = aggressorBudget(bank, row);
    const double blacklist_at = kBlacklistFraction * budget;
    // One index computation serves both the estimate and the later
    // insert into the active filter (same key, same seed, same
    // indices); only the draining filter hashes again.
    size_t idx_active[CountingBloomFilter::kMaxHashes];
    cbf_[active_].indicesOf(k, idx_active);
    const uint32_t estimate = cbf_[active_].estimateAt(idx_active);

    if (static_cast<double>(estimate) + 1.0 >= blacklist_at) {
        // Blacklisted (or about to be): admit at most at the rate
        // that spreads the remaining budget over the rest of the
        // window. A denied attempt is throttled *without* counting —
        // the activation has not happened yet.
        const dram::Tick *at = nextAllowed_.find(k);
        const dram::Tick earliest = at == nullptr ? now : *at;
        if (earliest > now) {
            out.push_back({PreventiveAction::Kind::Throttle, bank, row,
                           0, earliest - now});
            ++stats_.throttleEvents;
            stats_.throttleDelayTotal += earliest - now;
            return;
        }
        const double remaining =
            std::max(budget - static_cast<double>(estimate), 1.0);
        const dram::Tick window_left = std::max<dram::Tick>(
            kRefreshWindow - (now - lastSwap_), 1);
        const dram::Tick min_interval = static_cast<dram::Tick>(
            static_cast<double>(window_left) / remaining);
        nextAllowed_.refOrInsert(k) = now + min_interval;
    }
    cbf_[active_].insertAt(idx_active);
    size_t idx_draining[CountingBloomFilter::kMaxHashes];
    cbf_[active_ ^ 1].indicesOf(k, idx_draining);
    cbf_[active_ ^ 1].insertAt(idx_draining);
}

void
BlockHammer::onEpochEnd(dram::Tick now)
{
    cbf_[0].clear();
    cbf_[1].clear();
    nextAllowed_.clear();
    lastSwap_ = now;
}

bool
BlockHammer::isBlacklisted(uint32_t bank, uint32_t row) const
{
    const double budget = aggressorBudget(bank, row);
    size_t idx[CountingBloomFilter::kMaxHashes];
    cbf_[active_].indicesOf(rowKey(bank, row), idx);
    return cbf_[active_].estimateAt(idx) >=
           kBlacklistFraction * budget;
}

} // namespace svard::defense
