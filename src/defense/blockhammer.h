/**
 * @file
 * BlockHammer (Yağlıkçı et al., HPCA 2021): tracks activation rates in
 * a pair of time-interleaved counting Bloom filters (RowBlocker) and
 * throttles activations to blacklisted rows so no row can reach its
 * HC_first threshold within a refresh window.
 *
 * Svärd integration: the blacklist threshold and throttle rate are
 * derived per aggressor from its neighbors' thresholds, so rows whose
 * victims are strong are throttled later and more gently.
 */
#ifndef SVARD_DEFENSE_BLOCKHAMMER_H
#define SVARD_DEFENSE_BLOCKHAMMER_H

#include <vector>

#include "common/flat_table.h"
#include "defense/defense.h"

namespace svard::defense {

/** Counting Bloom filter with k hash functions over m counters. */
class CountingBloomFilter
{
  public:
    /** Upper bound on k, sized for stack index buffers. */
    static constexpr int kMaxHashes = 8;

    CountingBloomFilter(size_t counters, int hashes, uint64_t seed);

    /**
     * All k counter indices of `key`: hashSeed({seed, h, key}) % m for
     * h in [0, k). `out` must hold kMaxHashes entries. A caller that
     * both estimates and inserts the same key computes them once.
     */
    void indicesOf(uint64_t key, size_t *out) const;

    /** Increment the key at `idx`; returns its new (min-) estimate. */
    uint32_t insertAt(const size_t *idx);

    /** Min-counter estimate of the key at `idx` (never undercounts
     *  the key's true count). */
    uint32_t estimateAt(const size_t *idx) const;

    void clear();

  private:
    std::vector<uint32_t> counters_;
    int hashes_;
    uint64_t seed_;
};

class BlockHammer : public Defense
{
  public:
    static constexpr size_t kCbfCounters = 1024;
    static constexpr int kCbfHashes = 3;
    /** Fraction of the threshold at which a row is blacklisted. */
    static constexpr double kBlacklistFraction = 0.5;
    static constexpr dram::Tick kRefreshWindow =
        64LL * 1000 * 1000 * 1000; // 64 ms

    explicit BlockHammer(
        std::shared_ptr<const core::ThresholdProvider> thr);

    const char *name() const override { return "BlockHammer"; }

    void onActivate(uint32_t bank, uint32_t row, dram::Tick now,
                    std::vector<PreventiveAction> &out) override;

    void onEpochEnd(dram::Tick now) override;

    void
    tableStats(uint64_t *entries, uint64_t *rehashes) const override
    {
        *entries = nextAllowed_.size();
        *rehashes = nextAllowed_.rehashes();
    }

    /** Whether a row is currently blacklisted (tests/diagnostics). */
    bool isBlacklisted(uint32_t bank, uint32_t row) const;

  private:
    // Time-interleaved filter pair: one active, one draining, swapped
    // every half refresh window so stale counts expire.
    CountingBloomFilter cbf_[2];
    int active_ = 0;
    dram::Tick lastSwap_ = 0;
    // Minimum legal next-activation time for throttled rows;
    // generation-cleared at filter swaps and epoch ends.
    FlatTable<dram::Tick> nextAllowed_;
};

} // namespace svard::defense

#endif // SVARD_DEFENSE_BLOCKHAMMER_H
