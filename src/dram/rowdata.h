/**
 * @file
 * Content store for a DRAM row. Characterization initializes whole
 * rows to repeating data-pattern bytes (Table 2) and then counts bit
 * errors, so a row is a fill byte plus, once anything differs from the
 * fill (bitflips, partial writes), one dense array of uint64
 * XOR-deltas against the repeating fill word, ceil(rowBytes / 8) words
 * long. A delta of zero means "equals the fill", so a bit flip is a
 * single XOR on its word.
 *
 * A row equal to its fill stores no words: the array is allocated on
 * the first exception or flipBitIf(), and setFill() empties it
 * (keeping its capacity). A row with any exception costs rowBytes,
 * whatever the number of differing words. The device keeps a RowData
 * only for the rows a run writes or reads, and a characterization
 * workspace touches a few rows (a victim and its aggressors), so a
 * full 128K-row bank is never materialized. Near the 12% BER cap a
 * disturbed row has every word touched, so the dense array is also
 * the smallest container for it.
 */
#ifndef SVARD_DRAM_ROWDATA_H
#define SVARD_DRAM_ROWDATA_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace svard::dram {

/** Content of one DRAM row: fill byte + dense word-level deltas. */
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
        if (deltas_.empty())
            return fill_;
        return fill_ ^ static_cast<uint8_t>(deltas_[index >> 3] >>
                                            ((index & 7) * 8));
    }

    void
    writeByte(uint32_t index, uint8_t value)
    {
        if (deltas_.empty() && value == fill_)
            return;
        const int shift = static_cast<int>(index & 7) * 8;
        const uint64_t byte_mask = 0xFFull << shift;
        const uint64_t delta_byte =
            static_cast<uint64_t>(uint8_t(value ^ fill_)) << shift;
        uint64_t &d = deltaRef(index >> 3);
        d = (d & ~byte_mask) | delta_byte;
    }

    bool
    bitAt(uint32_t bit_index) const
    {
        const uint64_t delta =
            deltas_.empty() ? 0 : deltas_[bit_index >> 6];
        return ((fillWord() ^ delta) >> (bit_index & 63)) & 1;
    }

    void
    flipBit(uint32_t bit_index)
    {
        deltaRef(bit_index >> 6) ^= uint64_t(1) << (bit_index & 63);
    }

    /**
     * Flip the bit only if it currently stores `expected`; returns 1
     * if it flipped, else 0. Branch-free, so DramDevice::realize can
     * add the result to its counters instead of branching on a
     * roughly 50/50 outcome. It allocates the delta array even on a
     * miss; an all-zero array reads the same as an empty one.
     */
    uint64_t
    flipBitIf(uint32_t bit_index, bool expected)
    {
        const unsigned shift = bit_index & 63;
        uint64_t &d = deltaRef(bit_index >> 6);
        const uint64_t ok = (((fillWord() ^ d) >> shift) & 1) == expected;
        d ^= ok << shift;
        return ok;
    }

    /** The fill byte repeated across a 64-bit word. */
    uint64_t fillWord() const { return repeatByte(fill_); }

    /** Number of bits that differ from a repeating expected fill byte. */
    uint64_t
    mismatchedBits(uint8_t expected_fill) const
    {
        // Word w mismatches in popcount(base ^ delta[w]) bits, where
        // base = fill ^ expected repeated. A row with no deltas is
        // popcount(base) per word. The partial last word of a
        // non-multiple-of-8 row is masked to length (`tail` is 0 when
        // the row ends on a word boundary).
        const uint64_t base = fillWord() ^ repeatByte(expected_fill);
        const uint32_t full_words = bytes_ / 8;
        const uint64_t tail = (uint64_t(1) << ((bytes_ & 7) * 8)) - 1;
        if (deltas_.empty())
            return bitCount(base) * full_words + bitCount(base & tail);
        uint64_t count = 0;
        for (uint32_t w = 0; w < full_words; ++w)
            count += bitCount(base ^ deltas_[w]);
        if (tail != 0)
            count += bitCount((base ^ deltas_[full_words]) & tail);
        return count;
    }

    /** Number of bytes currently differing from the fill byte. */
    size_t
    exceptionCount() const
    {
        size_t bytes = 0;
        for (uint64_t d : deltas_)
            for (int b = 0; b < 8; ++b)
                if ((d >> (b * 8)) & 0xFF)
                    ++bytes;
        return bytes;
    }

    /** Copy full content into a byte vector (tests, RowClone). */
    std::vector<uint8_t>
    toBytes() const
    {
        std::vector<uint8_t> out(bytes_, fill_);
        if (!deltas_.empty())
            for (uint32_t i = 0; i < bytes_; ++i)
                out[i] ^= static_cast<uint8_t>(deltas_[i >> 3] >>
                                               ((i & 7) * 8));
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
    /**
     * Set bits in `x`, by SWAR byte sums. std::popcount compiles to a
     * libgcc call (__popcountdi2) when the target has no popcount
     * instruction, as baseline x86-64 has none; this stays inline.
     */
    static uint64_t
    bitCount(uint64_t x)
    {
        x -= (x >> 1) & 0x5555555555555555ULL;
        x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
        x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
        return (x * 0x0101010101010101ULL) >> 56;
    }

    static uint64_t
    repeatByte(uint8_t b)
    {
        return uint64_t(b) * 0x0101010101010101ULL;
    }

    /** Word `w`'s delta, allocating the zeroed array on first use. */
    uint64_t &
    deltaRef(uint32_t w)
    {
        if (deltas_.empty())
            deltas_.resize((bytes_ + 7) / 8);
        return deltas_[w];
    }

    uint32_t bytes_ = 0;
    uint8_t fill_ = 0;
    /** Empty, or one XOR-delta per word of the row. */
    std::vector<uint64_t> deltas_;
};

} // namespace svard::dram

#endif // SVARD_DRAM_ROWDATA_H
