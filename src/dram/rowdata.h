/**
 * @file
 * Sparse content store for a DRAM row. Characterization initializes
 * whole rows to repeating data-pattern bytes (Table 2) and then counts
 * bit errors, so a row is represented as a fill byte plus an exception
 * store for the places that differ (bitflips, partial writes). This
 * keeps a 128K-row x 8KB bank affordable while staying bit-exact.
 *
 * Exceptions are kept at uint64 *word* granularity as XOR-deltas
 * against the repeating fill word in a structure-of-arrays table
 * (`WordTable`, word index -> delta). A delta of zero means "equals
 * the fill", so probes and inserts share one code path and bit flips
 * are a single XOR on the delta. WordTable pins dead slots to value
 * 0, which lets mismatchedBits() run xorPopcountBase over the table's
 * ENTIRE value array — liveness falls out as an arithmetic identity
 * (dead slots contribute popcount(base) each, subtracted back in one
 * multiply) instead of a per-slot branch.
 */
#ifndef SVARD_DRAM_ROWDATA_H
#define SVARD_DRAM_ROWDATA_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/word_table.h"

namespace svard::dram {

/** Sum of popcount(words[i] ^ base) over a dense uint64 array. */
uint64_t xorPopcountBase(const uint64_t *words, size_t n, uint64_t base);

/** Content of one DRAM row: fill byte + sparse word-level exceptions. */
class RowData
{
  public:
    /** Empty placeholder (what a FlatTable slot default-constructs). */
    RowData() = default;

    explicit RowData(uint32_t bytes, uint8_t fill = 0x00)
        : bytes_(bytes), fill_(fill)
    {}

    uint32_t sizeBytes() const { return bytes_; }
    uint32_t sizeBits() const { return bytes_ * 8; }
    uint8_t fill() const { return fill_; }

    /** Overwrite the whole row with a repeating fill byte. */
    void
    setFill(uint8_t fill)
    {
        fill_ = fill;
        deltas_.clear();
    }

    uint8_t
    readByte(uint32_t index) const
    {
        const uint64_t *d = deltas_.find(index >> 3);
        if (d == nullptr)
            return fill_;
        return fill_ ^ static_cast<uint8_t>(*d >> ((index & 7) * 8));
    }

    void
    writeByte(uint32_t index, uint8_t value)
    {
        const int shift = static_cast<int>(index & 7) * 8;
        const uint64_t byte_mask = 0xFFull << shift;
        const uint64_t delta_byte =
            static_cast<uint64_t>(uint8_t(value ^ fill_)) << shift;
        uint64_t &d = deltas_.refOrInsert(index >> 3);
        d = (d & ~byte_mask) | delta_byte;
        if (d == 0)
            deltas_.erase(index >> 3);
    }

    bool
    bitAt(uint32_t bit_index) const
    {
        const uint64_t *d = deltas_.find(bit_index >> 6);
        const uint64_t word =
            fillWord() ^ (d == nullptr ? uint64_t(0) : *d);
        return (word >> (bit_index & 63)) & 1;
    }

    void
    flipBit(uint32_t bit_index)
    {
        uint64_t &d = deltas_.refOrInsert(bit_index >> 6);
        d ^= uint64_t(1) << (bit_index & 63);
        if (d == 0)
            deltas_.erase(bit_index >> 6);
    }

    /**
     * Flip the bit only if it currently stores `expected`; returns
     * whether it flipped. One table probe instead of the bitAt +
     * flipBit pair the fault-injection loop would otherwise do.
     */
    bool
    flipBitIf(uint32_t bit_index, bool expected)
    {
        const uint64_t mask = uint64_t(1) << (bit_index & 63);
        uint64_t *d = deltas_.find(bit_index >> 6);
        const uint64_t delta = d == nullptr ? 0 : *d;
        const bool bit = ((fillWord() ^ delta) & mask) != 0;
        if (bit != expected)
            return false;
        if (d == nullptr) {
            deltas_.refOrInsert(bit_index >> 6) = mask;
        } else {
            *d ^= mask;
            if (*d == 0)
                deltas_.erase(bit_index >> 6);
        }
        return true;
    }

    /**
     * XOR-delta of 64-bit word `w` against the repeating fill word
     * (0 when the word equals the fill). Word-granular staging access
     * for DramDevice::realize()'s batched flip application.
     */
    uint64_t
    deltaWord(uint32_t w) const
    {
        const uint64_t *d = deltas_.find(w);
        return d == nullptr ? 0 : *d;
    }

    /** Overwrite word `w`'s delta outright (a zero delta erases). */
    void
    setDeltaWord(uint32_t w, uint64_t d)
    {
        if (d == 0) {
            deltas_.erase(w);
            return;
        }
        deltas_.refOrInsert(w) = d;
    }

    /** The fill byte repeated across a 64-bit word. */
    uint64_t fillWord() const { return repeatByte(fill_); }

    /** Number of bits that differ from a repeating expected fill byte. */
    uint64_t
    mismatchedBits(uint8_t expected_fill) const
    {
        // Whole-word popcounts: every word mismatches in
        // popcount(base ^ delta) bits, where base = fill ^ expected
        // repeated and delta is zero outside the exception store. The
        // final word of a non-multiple-of-8 row is masked to length.
        const uint64_t base =
            fillWord() ^ repeatByte(expected_fill);
        const uint32_t n_words = numWords();
        const uint64_t tail = tailMask();
        const uint64_t base_pc =
            static_cast<uint64_t>(std::popcount(base));
        uint64_t count =
            base_pc * (n_words - (tail == ~uint64_t(0) ? 0 : 1));
        if (tail != ~uint64_t(0))
            count += std::popcount(base & tail);
        // Per-delta correction, sum over live entries of
        // popcount(base ^ d) - popcount(base) — computed as ONE dense
        // pass over the whole value array: dead slots hold 0
        // by WordTable invariant, so they contribute popcount(base)
        // each, and capacity * popcount(base) subtracts every slot's
        // base term in one multiply. Intermediate terms may wrap; the
        // uint64 arithmetic is modular and the final count is exact.
        const size_t cap = deltas_.capacity();
        count += xorPopcountBase(deltas_.valsData(), cap, base);
        count -= base_pc * cap;
        // The tail word was corrected as if full-width above; redo it
        // masked. At most one scalar probe, skipped for 8B-multiple
        // rows (every standard geometry — rowBytes is a power of two).
        if (tail != ~uint64_t(0)) {
            const uint64_t *d = deltas_.find(n_words - 1);
            if (d != nullptr) {
                count -= std::popcount(base ^ *d);
                count += std::popcount((base ^ *d) & tail);
                count += base_pc;
                count -= std::popcount(base & tail);
            }
        }
        return count;
    }

    /** Number of bytes currently differing from the fill byte. */
    size_t
    exceptionCount() const
    {
        size_t bytes = 0;
        deltas_.forEach([&](uint32_t, uint64_t d) {
            for (int b = 0; b < 8; ++b)
                if ((d >> (b * 8)) & 0xFF)
                    ++bytes;
        });
        return bytes;
    }

    /** Copy full content into a byte vector (tests, RowClone). */
    std::vector<uint8_t>
    toBytes() const
    {
        std::vector<uint8_t> out(bytes_, fill_);
        deltas_.forEach([&](uint32_t w, uint64_t d) {
            const uint32_t base = w * 8;
            for (uint32_t b = 0; b < 8 && base + b < bytes_; ++b)
                out[base + b] ^= static_cast<uint8_t>(d >> (b * 8));
        });
        return out;
    }

    bool
    operator==(const RowData &o) const
    {
        if (bytes_ != o.bytes_)
            return false;
        for (uint32_t i = 0; i < bytes_; ++i)
            if (readByte(i) != o.readByte(i))
                return false;
        return true;
    }

  private:
    static uint64_t
    repeatByte(uint8_t b)
    {
        return uint64_t(b) * 0x0101010101010101ULL;
    }

    uint32_t numWords() const { return (bytes_ + 7) / 8; }

    /** Valid-bit mask of the final word (all-ones for full words). */
    uint64_t
    tailMask() const
    {
        const uint32_t rem = bytes_ & 7;
        return rem == 0 ? ~uint64_t(0)
                        : (uint64_t(1) << (rem * 8)) - 1;
    }

    uint32_t bytes_ = 0;
    uint8_t fill_ = 0;
    WordTable deltas_{16};
};

} // namespace svard::dram

#endif // SVARD_DRAM_ROWDATA_H
