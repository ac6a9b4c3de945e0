/**
 * @file
 * Sparse content store for a DRAM row. Characterization initializes
 * whole rows to repeating data-pattern bytes (Table 2) and then counts
 * bit errors, so a row is represented as a fill byte plus an exception
 * store for the places that differ (bitflips, partial writes). This
 * keeps a 128K-row x 8KB bank affordable while staying bit-exact.
 *
 * Exceptions are kept at uint64 *word* granularity as XOR-deltas
 * against the repeating fill word in a FlatTable (word index ->
 * delta). A delta of zero means "equals the fill", so probes and
 * inserts share one code path and bit flips are a single XOR on the
 * delta; a word whose delta returns to zero is erased, so the table
 * holds exactly the words that differ from the fill.
 */
#ifndef SVARD_DRAM_ROWDATA_H
#define SVARD_DRAM_ROWDATA_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_table.h"

namespace svard::dram {

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
        // Every word mismatches in popcount(base ^ delta) bits, where
        // base = fill ^ expected repeated and delta is zero outside the
        // exception store. Count the row as if it had no exceptions,
        // then swap each live delta's base term for its real one. The
        // partial last word of a non-multiple-of-8 row is masked to
        // length (`tail` is 0 when the row ends on a word boundary).
        const uint64_t base =
            fillWord() ^ repeatByte(expected_fill);
        const uint32_t full_words = bytes_ / 8;
        const uint64_t tail = (uint64_t(1) << ((bytes_ & 7) * 8)) - 1;
        uint64_t count =
            uint64_t(std::popcount(base)) * full_words +
            std::popcount(base & tail);
        deltas_.forEach([&](uint64_t w, uint64_t d) {
            const uint64_t m = w < full_words ? ~uint64_t(0) : tail;
            count += std::popcount((base ^ d) & m);
            count -= std::popcount(base & m);
        });
        return count;
    }

    /** Number of bytes currently differing from the fill byte. */
    size_t
    exceptionCount() const
    {
        size_t bytes = 0;
        deltas_.forEach([&](uint64_t, uint64_t d) {
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
        deltas_.forEach([&](uint64_t w, uint64_t d) {
            const uint64_t base = w * 8;
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

    uint32_t bytes_ = 0;
    uint8_t fill_ = 0;
    FlatTable<uint64_t> deltas_{16};
};

} // namespace svard::dram

#endif // SVARD_DRAM_ROWDATA_H
