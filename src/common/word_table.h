/**
 * @file
 * Structure-of-arrays open-addressing map from small uint32 keys to
 * uint64 values, built for one consumer: RowData's word-delta store
 * (dram/rowdata.h). Unlike the general FlatTable, the value array is
 * kept *dense*: keys and values live in two separate contiguous
 * arrays, and every dead slot (empty or tombstoned) is guaranteed to
 * hold value 0.
 *
 * That invariant is the whole point. RowData::mismatchedBits() needs
 * sum(popcount(base ^ delta)) over the live deltas; with dead slots
 * pinned to 0 the count can run dram::xorPopcountBase over the ENTIRE
 * value array — no per-slot liveness test, no gather — because a dead
 * slot contributes exactly popcount(base ^ 0) == popcount(base), which
 * the caller subtracts back out as capacity() * popcount(base).
 * Liveness is an arithmetic identity instead of a branch.
 *
 * Key space: [0, 0xFFFFFFFD]. The top two uint32 values are the
 * empty/tombstone sentinels — RowData's keys are word indices within a
 * row (a few thousand at most), nowhere near the reserved range.
 *
 * clear() must re-zero the values to keep the invariant, unlike
 * FlatTable's O(1) generation bump: small tables memset (cheaper than
 * carrying a generation check in every probe), tables that grew past
 * a burst release their arrays and restart small, and a pristine
 * table clears for free — so a scratch table cleared once per
 * realize() costs what it actually staged, not its high-water mark.
 */
#ifndef SVARD_COMMON_WORD_TABLE_H
#define SVARD_COMMON_WORD_TABLE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace svard {

class WordTable
{
  public:
    explicit WordTable(size_t initial_capacity = 16)
    {
        size_t cap = 8;
        while (cap < initial_capacity)
            cap <<= 1;
        initialCap_ = cap;
        // Arrays are allocated on first insert: empty tables are free,
        // which matters because every RowData embeds one.
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return keys_.size(); }

    /**
     * The dense value array (length capacity()), for whole-array
     * loops. Dead slots hold 0 by invariant. nullptr when
     * the table has never been inserted into (capacity() == 0).
     */
    const uint64_t *valsData() const { return vals_.data(); }

    /**
     * Reference to the value of `key`, inserting 0 first if absent.
     * Invalidated by the next refOrInsert/clear. A caller that zeroes
     * the value should erase() the key — a live zero-valued slot is
     * harmless to the kernels but wastes a probe.
     */
    uint64_t &
    refOrInsert(uint32_t key)
    {
        if (keys_.empty())
            allocate(initialCap_);
        // Grow on the *used* count (live + tombstones): tombstones
        // lengthen probe chains just like live entries do.
        if ((used_ + 1) * 10 >= keys_.size() * 7)
            rehash();
        const size_t mask = keys_.size() - 1;
        size_t i = hashOf(key) & mask;
        size_t insert_at = SIZE_MAX;
        for (;;) {
            const uint32_t k = keys_[i];
            if (k == key)
                return vals_[i];
            if (k == kEmpty) {
                // Absent. Reuse the first tombstone passed on the way
                // (keeps chains short); a fresh slot consumes `used_`.
                if (insert_at == SIZE_MAX) {
                    insert_at = i;
                    ++used_;
                }
                break;
            }
            if (k == kTomb && insert_at == SIZE_MAX)
                insert_at = i;
            i = (i + 1) & mask;
        }
        keys_[insert_at] = key;
        vals_[insert_at] = 0; // dead slots are 0 already; keep it explicit
        ++size_;
        return vals_[insert_at];
    }

    uint64_t *
    find(uint32_t key)
    {
        if (keys_.empty())
            return nullptr;
        const size_t mask = keys_.size() - 1;
        size_t i = hashOf(key) & mask;
        for (;;) {
            const uint32_t k = keys_[i];
            if (k == key)
                return &vals_[i];
            if (k == kEmpty)
                return nullptr;
            i = (i + 1) & mask;
        }
    }

    const uint64_t *
    find(uint32_t key) const
    {
        return const_cast<WordTable *>(this)->find(key);
    }

    bool contains(uint32_t key) const { return find(key) != nullptr; }

    /**
     * Remove `key` (tombstoned; reclaimed at the next rehash). The
     * value slot is re-zeroed — this is what upholds the dead-slots-
     * are-zero invariant the whole-array popcount relies on.
     */
    bool
    erase(uint32_t key)
    {
        if (keys_.empty())
            return false;
        const size_t mask = keys_.size() - 1;
        size_t i = hashOf(key) & mask;
        for (;;) {
            const uint32_t k = keys_[i];
            if (k == key) {
                keys_[i] = kTomb;
                vals_[i] = 0;
                --size_;
                return true;
            }
            if (k == kEmpty)
                return false;
            i = (i + 1) & mask;
        }
    }

    /**
     * Visit every live entry as fn(key, value). Order is the slot
     * order — deterministic for a given insertion/erase history, but
     * not sorted and not stable across rehashes. The callback must
     * not insert into or clear the table.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < keys_.size(); ++i)
            if (keys_[i] < kTomb)
                fn(keys_[i], vals_[i]);
    }

    /**
     * Drop every entry. Free when nothing was touched since the last
     * clear; otherwise O(capacity), because values must return to
     * zero. A table that grew past kShrinkCap releases its arrays and
     * restarts at the initial capacity: a reused scratch table
     * (DramDevice::flipScratch_, RowData under setFill churn) must
     * not keep paying for the largest burst it ever held on every
     * later clear — that memset tax once cost the charz pipeline 25%.
     */
    void
    clear()
    {
        if (used_ == 0)
            return; // pristine: all keys empty, all values zero
        if (keys_.size() > kShrinkCap) {
            // Release; reallocated lazily at initialCap_ on the next
            // insert. Regrowth is amortized against the insertions
            // that need it, unlike a flat per-clear memset.
            keys_ = {};
            vals_ = {};
        } else {
            std::memset(keys_.data(), 0xFF,
                        keys_.size() * sizeof(uint32_t));
            std::memset(vals_.data(), 0,
                        vals_.size() * sizeof(uint64_t));
        }
        size_ = 0;
        used_ = 0;
    }

  private:
    static constexpr uint32_t kEmpty = 0xFFFFFFFFu;
    static constexpr uint32_t kTomb = 0xFFFFFFFEu;
    /** Capacity above which clear() releases instead of memsets. */
    static constexpr size_t kShrinkCap = 256;

    static size_t
    hashOf(uint32_t key)
    {
        // splitmix64 finalizer (FlatTable's hash): full-avalanche, so
        // the sequential word indices of a row spread over the table.
        uint64_t z = uint64_t(key) + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<size_t>(z ^ (z >> 31));
    }

    void
    allocate(size_t cap)
    {
        keys_.assign(cap, kEmpty);
        vals_.assign(cap, 0);
    }

    void
    rehash()
    {
        // Double only when genuinely full of live entries; a table
        // dominated by tombstones rehashes in place.
        const size_t cap = keys_.size();
        const size_t new_cap = (size_ * 10 >= cap * 4) ? cap * 2 : cap;
        std::vector<uint32_t> old_keys;
        std::vector<uint64_t> old_vals;
        old_keys.swap(keys_);
        old_vals.swap(vals_);
        allocate(new_cap);
        size_ = 0;
        used_ = 0;
        const size_t mask = new_cap - 1;
        for (size_t s = 0; s < old_keys.size(); ++s) {
            if (old_keys[s] >= kTomb)
                continue;
            size_t i = hashOf(old_keys[s]) & mask;
            while (keys_[i] != kEmpty)
                i = (i + 1) & mask;
            keys_[i] = old_keys[s];
            vals_[i] = old_vals[s];
            ++size_;
            ++used_;
        }
    }

    std::vector<uint32_t> keys_;
    std::vector<uint64_t> vals_;
    size_t initialCap_ = 16;
    size_t size_ = 0; ///< live entries
    size_t used_ = 0; ///< live + tombstoned slots
};

} // namespace svard

#endif // SVARD_COMMON_WORD_TABLE_H
