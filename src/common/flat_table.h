/**
 * @file
 * Open-addressing hash table for simulation hot paths. The defenses'
 * per-(bank,row) activation counters used to live in std::unordered_map,
 * which costs a pointer chase per probe and a node allocation per
 * insert — per simulated ACT. FlatTable keeps {key, value} pairs in one
 * contiguous slot array (linear probing), so the common probe is a
 * single cache line, inserts never allocate until the load factor
 * forces a growth, and the per-epoch reset every defense performs at
 * the refresh-window rollover is an O(1) generation bump instead of an
 * O(n) destruction.
 *
 * Semantics match the std::unordered_map usage it replaces: distinct
 * 64-bit keys, value references stable until the next insert/clear,
 * default-constructed values on first touch. Not thread-safe (each
 * sweep cell owns its defense instances end to end).
 */
#ifndef SVARD_COMMON_FLAT_TABLE_H
#define SVARD_COMMON_FLAT_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace svard {

template <typename V>
class FlatTable
{
  public:
    explicit FlatTable(size_t initial_capacity = 64)
    {
        size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        initialCap_ = cap;
        // The slot array is allocated on first insert: empty tables are
        // free, which matters now that every RowData embeds one.
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return slots_.size(); }

    /** Lifetime rehash count (growths + in-place tombstone purges). */
    uint64_t rehashes() const { return rehashes_; }

    /**
     * Reference to the value of `key`, inserting a default-constructed
     * value first if absent (operator[] of the map it replaces). The
     * reference is invalidated by the next refOrInsert/clear.
     */
    V &
    refOrInsert(uint64_t key)
    {
        if (slots_.empty())
            slots_.resize(initialCap_);
        // Grow on the *used* count (live + tombstones): tombstones
        // lengthen probe chains just like live entries do.
        if ((used_ + 1) * 10 >= slots_.size() * 7)
            rehash();
        const size_t mask = slots_.size() - 1;
        size_t i = hashOf(key) & mask;
        size_t insert_at = SIZE_MAX;
        for (;;) {
            Slot &s = slots_[i];
            if (s.gen != gen_) {
                // Free slot: the key is absent. Reuse the first
                // tombstone passed on the way (keeps chains short).
                if (insert_at == SIZE_MAX) {
                    insert_at = i;
                    ++used_;
                }
                break;
            }
            if (s.state == kFull && s.key == key)
                return s.value;
            if (s.state == kTomb && insert_at == SIZE_MAX)
                insert_at = i;
            i = (i + 1) & mask;
        }
        Slot &s = slots_[insert_at];
        s.key = key;
        s.gen = gen_;
        s.state = kFull;
        s.value = V{};
        ++size_;
        return s.value;
    }

    V *
    find(uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        const size_t mask = slots_.size() - 1;
        size_t i = hashOf(key) & mask;
        for (;;) {
            Slot &s = slots_[i];
            if (s.gen != gen_)
                return nullptr;
            if (s.state == kFull && s.key == key)
                return &s.value;
            i = (i + 1) & mask;
        }
    }

    const V *
    find(uint64_t key) const
    {
        return const_cast<FlatTable *>(this)->find(key);
    }

    bool contains(uint64_t key) const { return find(key) != nullptr; }

    /** Remove `key` (tombstoned; reclaimed at the next rehash). */
    bool
    erase(uint64_t key)
    {
        if (slots_.empty())
            return false;
        const size_t mask = slots_.size() - 1;
        size_t i = hashOf(key) & mask;
        for (;;) {
            Slot &s = slots_[i];
            if (s.gen != gen_)
                return false;
            if (s.state == kFull && s.key == key) {
                s.state = kTomb;
                --size_;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /**
     * Visit every live entry as fn(key, value). Order is the slot
     * order — deterministic for a given insertion/erase history, but
     * not sorted and not stable across rehashes. The callback must not
     * insert into or clear the table (erasing the visited key through
     * a separate erase() call after the sweep is fine).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.gen == gen_ && s.state == kFull)
                fn(s.key, s.value);
    }

    /**
     * Drop every entry in O(1): bump the generation, making all slots
     * stale. This is what defenses call at every refresh-window epoch
     * end, so the reset cost no longer scales with the counter count.
     */
    void
    clear()
    {
        if (++gen_ == 0) {
            // Generation counter wrapped (needs 2^32 clears): reset
            // slot generations so no stale slot aliases as live.
            for (Slot &s : slots_)
                s.gen = 0;
            gen_ = 1;
        }
        size_ = 0;
        used_ = 0;
    }

  private:
    enum : uint8_t
    {
        kFull = 1,
        kTomb = 2,
    };

    struct Slot
    {
        uint64_t key = 0;
        uint32_t gen = 0; ///< slot is stale (free) unless gen matches
        uint8_t state = kFull;
        V value{};
    };

    static size_t
    hashOf(uint64_t key)
    {
        // splitmix64 finalizer: full-avalanche, so sequential
        // (bank<<32|row) keys spread over the table.
        uint64_t z = key + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<size_t>(z ^ (z >> 31));
    }

    void
    rehash()
    {
        // Double only when genuinely full of live entries; a table
        // dominated by tombstones rehashes in place.
        const size_t cap = slots_.size();
        const size_t new_cap = (size_ * 10 >= cap * 4) ? cap * 2 : cap;
        ++rehashes_;
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.resize(new_cap);
        const uint32_t old_gen = gen_;
        gen_ = 1;
        size_ = 0;
        used_ = 0;
        for (const Slot &s : old)
            if (s.gen == old_gen && s.state == kFull) {
                ++used_;
                refOrInsertFresh(s.key) = s.value;
            }
    }

    /** Insert into a tombstone-free table (rehash fast path). */
    V &
    refOrInsertFresh(uint64_t key)
    {
        const size_t mask = slots_.size() - 1;
        size_t i = hashOf(key) & mask;
        while (slots_[i].gen == gen_)
            i = (i + 1) & mask;
        Slot &s = slots_[i];
        s.key = key;
        s.gen = gen_;
        s.state = kFull;
        ++size_;
        return s.value;
    }

    std::vector<Slot> slots_;
    size_t initialCap_ = 16;
    uint32_t gen_ = 1;
    size_t size_ = 0; ///< live entries
    size_t used_ = 0; ///< live + tombstoned slots this generation
    uint64_t rehashes_ = 0; ///< lifetime rehash count (observability)
};

} // namespace svard

#endif // SVARD_COMMON_FLAT_TABLE_H
