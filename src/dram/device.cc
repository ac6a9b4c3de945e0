#include "dram/device.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace svard::dram {

namespace {

// ModelMemo::flags bits: which lazily-computed fields are valid.
constexpr uint8_t kMemoHc = 1;
constexpr uint8_t kMemoCells = 2;    ///< trueCellFrac + sameCoupling
constexpr uint8_t kMemoWorst = 4;

} // anonymous namespace

DramDevice::DramDevice(const ModuleSpec &spec,
                       std::shared_ptr<const SubarrayMap> subarrays,
                       std::shared_ptr<const DisturbanceModel> model,
                       uint64_t seed)
    : spec_(spec),
      subarrays_(std::move(subarrays)),
      model_(std::move(model)),
      mapping_(spec.rowMappingScheme, spec.rowsPerBank),
      timing_(ddr4Timing(spec.dataRateMts)),
      rng_(hashSeed({spec.seed, seed, 0xDE11CEULL})),
      bankState_(spec.banks)
{
    SVARD_ASSERT(model_ != nullptr, "device needs a disturbance model");
    SVARD_ASSERT(subarrays_ != nullptr, "device needs a subarray map");
}

void
DramDevice::activate(uint32_t bank, uint32_t row, Tick now)
{
    SVARD_ASSERT(bank < spec_.banks, "bank out of range");
    SVARD_ASSERT(row < spec_.rowsPerBank, "row out of range");
    BankState &bs = bankState_[bank];
    SVARD_ASSERT(!bs.open, "ACT to an open bank (missing PRE)");
    const uint32_t phys = mapping_.toPhysical(row);
    // Charge restoration: any disturbance the row accumulated so far
    // either materialized as flips (locked in by the restore) or is
    // wiped by the full recharge.
    realize(bank, phys);
    bs.open = true;
    bs.physRow = phys;
    bs.actTime = now;
    ++stats_.activates;
}

void
DramDevice::precharge(uint32_t bank, Tick now)
{
    SVARD_ASSERT(bank < spec_.banks, "bank out of range");
    BankState &bs = bankState_[bank];
    SVARD_ASSERT(bs.open, "PRE to a closed bank");
    const Tick t_on = std::max<Tick>(now - bs.actTime, 0);
    uint32_t neigh[2];
    const uint32_t n = subarrays_->disturbedNeighbors(bs.physRow, neigh);
    for (uint32_t i = 0; i < n; ++i)
        pending_.refOrInsert(key(bank, neigh[i])) +=
            memoActWeight(bank, neigh[i], t_on);
    bs.open = false;
    ++stats_.precharges;
}

void
DramDevice::refreshAllRows(Tick /* now */)
{
    // Realize + reset every row with pending disturbance; rows with no
    // pending disturbance are unaffected by a refresh in this model.
    // The key snapshot (realize erases from pending_ as it goes) lives
    // in a member buffer reused across refreshes.
    refreshKeys_.clear();
    pending_.forEach([&](uint64_t k, const double &v) {
        if (v > 0.0)
            refreshKeys_.push_back(k);
    });
    for (uint64_t k : refreshKeys_)
        realize(static_cast<uint32_t>(k >> 32),
                static_cast<uint32_t>(k & 0xffffffffu));
    // Everything left is zero/negative accumulation, behaviorally
    // absent; the O(1) clear also purges the erase tombstones.
    pending_.clear();
}

void
DramDevice::refreshRow(uint32_t bank, uint32_t row, Tick /* now */)
{
    realize(bank, mapping_.toPhysical(row));
}

void
DramDevice::hammer(uint32_t bank, uint32_t row, uint64_t count, Tick t_on)
{
    SVARD_ASSERT(bank < spec_.banks, "bank out of range");
    SVARD_ASSERT(!bankState_[bank].open, "hammer needs a precharged bank");
    if (count == 0)
        return;
    const uint32_t phys = mapping_.toPhysical(row);
    // The first activation restores the hammered row itself; repeated
    // activations of the same row keep it restored throughout.
    realize(bank, phys);
    uint32_t neigh[2];
    const uint32_t n = subarrays_->disturbedNeighbors(phys, neigh);
    for (uint32_t i = 0; i < n; ++i)
        pending_.refOrInsert(key(bank, neigh[i])) +=
            static_cast<double>(count) *
            memoActWeight(bank, neigh[i], t_on);
    stats_.activates += count;
    stats_.precharges += count;
}

void
DramDevice::writeRowFill(uint32_t bank, uint32_t row, uint8_t fill)
{
    const uint32_t phys = mapping_.toPhysical(row);
    rowRef(bank, phys).setFill(fill);
    // A full-row write recharges every cell: pending disturbance wiped.
    pending_.erase(key(bank, phys));
}

uint64_t
DramDevice::countMismatchedBits(uint32_t bank, uint32_t row,
                                uint8_t expected_fill)
{
    const uint32_t phys = mapping_.toPhysical(row);
    realize(bank, phys);
    return rowRef(bank, phys).mismatchedBits(expected_fill);
}

std::vector<uint8_t>
DramDevice::readRow(uint32_t bank, uint32_t row)
{
    const uint32_t phys = mapping_.toPhysical(row);
    realize(bank, phys);
    return rowRef(bank, phys).toBytes();
}

bool
DramDevice::rowClone(uint32_t bank, uint32_t src_row, uint32_t dst_row,
                     Tick /* now */)
{
    const uint32_t src = mapping_.toPhysical(src_row);
    const uint32_t dst = mapping_.toPhysical(dst_row);
    realize(bank, src);
    realize(bank, dst);
    const bool same_sa = subarrays_->sameSubarray(src, dst);
    // Intra-subarray RowClone is unofficial: it works for most but not
    // all row pairs (Sec. 5.4.1 Key Insight 2). The margin is a fixed
    // property of the pair, hence the deterministic per-pair hash.
    uint64_t h = hashSeed({spec_.seed, bank, src, dst, 0xC10EULL});
    const bool margin_ok = (h % 1000) < 930;
    if (same_sa && margin_ok) {
        RowData copy = rowRef(bank, src);
        rowRef(bank, dst) = std::move(copy);
        pending_.erase(key(bank, dst));
        return true;
    }
    // Failed attempt: the destination row's cells end up partially
    // overwritten by the interrupted charge sharing.
    RowData &rd = rowRef(bank, dst);
    const uint32_t bits = rd.sizeBits();
    const uint32_t corrupted = 16 + static_cast<uint32_t>(rng_.below(64));
    for (uint32_t i = 0; i < corrupted; ++i)
        rd.flipBit(static_cast<uint32_t>(rng_.below(bits)));
    return false;
}

std::optional<uint32_t>
DramDevice::openRow(uint32_t bank) const
{
    const BankState &bs = bankState_[bank];
    if (!bs.open)
        return std::nullopt;
    return mapping_.toLogical(bs.physRow);
}

double
DramDevice::pendingHammers(uint32_t bank, uint32_t row) const
{
    const double *p = pending_.find(key(bank, mapping_.toPhysical(row)));
    return p == nullptr ? 0.0 : *p;
}

RowData &
DramDevice::rowRef(uint32_t bank, uint32_t phys_row)
{
    RowData &rd = rows_.refOrInsert(key(bank, phys_row));
    if (rd.sizeBytes() == 0)
        rd = RowData(spec_.rowBytes, uint8_t(0));
    return rd;
}

DramDevice::ModelMemo &
DramDevice::memoRef(uint32_t bank, uint32_t phys_row)
{
    return memo_.refOrInsert(key(bank, phys_row));
}

double
DramDevice::memoHcFirst(uint32_t bank, uint32_t phys_row)
{
    ModelMemo &m = memoRef(bank, phys_row);
    if (!(m.flags & kMemoHc)) {
        m.hcFirst = model_->hcFirst(bank, phys_row);
        m.flags |= kMemoHc;
    }
    return m.hcFirst;
}

double
DramDevice::memoActWeight(uint32_t bank, uint32_t phys_row, Tick t_on)
{
    // Caches the weight of the most recent on-time per row: hammer
    // sweeps and attack loops use one constant t_agg_on, so the common
    // case is a hit; an on-time sweep (Fig. 7) refreshes the entry.
    ModelMemo &m = memoRef(bank, phys_row);
    if (m.actWeightTon != t_on) {
        m.actWeight = model_->actWeight(bank, phys_row, t_on);
        m.actWeightTon = t_on;
    }
    return m.actWeight;
}

double
DramDevice::severityRaw(uint32_t bank, uint32_t phys_row,
                        const ModelMemo &memo, uint8_t victim_fill,
                        uint8_t aggr_fill)
{
    const double tf = memo.trueCellFrac;
    const double same = memo.sameCoupling;
    double sum = 0.0;
    for (int b = 0; b < 8; ++b) {
        const int vbit = (victim_fill >> b) & 1;
        const int abit = (aggr_fill >> b) & 1;
        // A cell can discharge only if it currently holds charge
        // (value matches its true/anti orientation), and aggressor
        // bits matching the victim couple more weakly.
        const double p_charged = vbit ? tf : (1.0 - tf);
        const double coupling = (abit != vbit) ? 1.0 : same;
        sum += p_charged * coupling;
    }
    return (sum / 8.0) *
           model_->patternJitter(bank, phys_row, victim_fill, aggr_fill);
}

double
DramDevice::worstCaseSeverityRaw(uint32_t bank, uint32_t phys_row,
                                 const ModelMemo &memo)
{
    // Canonical (aggressor, victim) fills of Table 2: RS, RSI, CS, CSI,
    // CB, CBI.
    static constexpr uint8_t kPatterns[6][2] = {
        {0xFF, 0x00}, {0x00, 0xFF}, {0xAA, 0xAA},
        {0x55, 0x55}, {0xAA, 0x55}, {0x55, 0xAA},
    };
    double worst = 0.0;
    for (const auto &p : kPatterns)
        worst = std::max(worst,
                         severityRaw(bank, phys_row, memo, p[1], p[0]));
    return worst;
}

double
DramDevice::severityRawCached(uint32_t bank, uint32_t phys_row,
                              ModelMemo &memo, uint8_t victim_fill,
                              uint8_t aggr_fill)
{
    const uint32_t fills =
        (static_cast<uint32_t>(victim_fill) << 8) | aggr_fill;
    if (memo.sevFills != fills) {
        memo.sevRaw = severityRaw(bank, phys_row, memo, victim_fill,
                                  aggr_fill);
        memo.sevFills = fills;
    }
    return memo.sevRaw;
}

double
DramDevice::patternSeverity(uint32_t bank, uint32_t phys_row,
                            ModelMemo &memo)
{
    if (!(memo.flags & kMemoCells)) {
        memo.trueCellFrac = model_->trueCellFraction(bank, phys_row);
        memo.sameCoupling = model_->sameDataCoupling(bank, phys_row);
        memo.flags |= kMemoCells;
    }
    if (!(memo.flags & kMemoWorst)) {
        memo.worstSeverity =
            worstCaseSeverityRaw(bank, phys_row, memo);
        memo.flags |= kMemoWorst;
    }
    const double worst = memo.worstSeverity;
    if (worst <= 0.0)
        return 0.0;

    auto fill_of = [&](uint32_t pr) -> uint8_t {
        const RowData *rd = rows_.find(key(bank, pr));
        return rd == nullptr ? uint8_t(0) : rd->fill();
    };

    const uint8_t victim_fill = fill_of(phys_row);
    uint32_t neigh[2];
    const uint32_t n = subarrays_->disturbedNeighbors(phys_row, neigh);
    double raw = 0.0;
    for (uint32_t i = 0; i < n; ++i)
        raw += severityRawCached(bank, phys_row, memo, victim_fill,
                                 fill_of(neigh[i]));
    if (n > 0)
        raw /= static_cast<double>(n);
    const double sev = raw / worst;
    return std::clamp(sev, 0.0, 1.0);
}

void
DramDevice::realize(uint32_t bank, uint32_t phys_row)
{
    double *slot = pending_.find(key(bank, phys_row));
    if (slot == nullptr)
        return;
    const double hammers = *slot;
    pending_.erase(key(bank, phys_row));
    if (hammers <= 0.0)
        return;

    // Fast path: even at worst-case severity the row is below its
    // threshold, so the recharge wipes the disturbance with no flips.
    const double hcf = memoHcFirst(bank, phys_row);
    if (hammers < hcf)
        return;

    ModelMemo &memo = memoRef(bank, phys_row);
    const double sev = patternSeverity(bank, phys_row, memo);
    if (sev <= 0.0)
        return;
    const double eff = hammers * sev;
    if (eff < hcf)
        return;

    const uint32_t bits = spec_.rowBytes * 8;
    const double ber = model_->berAt(bank, phys_row, eff);
    // ~5.7% iteration-to-iteration variation (Sec. 4.1 footnote 5).
    // The cap only binds far beyond the 128K-hammer calibration point
    // (largest in-range BER is ~8%), where flip *presence* matters but
    // the exact count does not; it keeps reverse-engineering probes
    // that hammer far past threshold from injecting pathological flip
    // volumes.
    const double iter_noise = std::exp(rng_.normal(0.0, 0.04));
    const double p = std::clamp(ber * iter_noise, 0.0, 0.12);
    // The first flip is the weakest cell itself: crossing HC_first
    // guarantees at least one flipped bit by definition.
    uint64_t n_flips = 1 + rng_.binomial(bits - 1, p);

    const double tf = memo.trueCellFrac;
    RowData &rd = rowRef(bank, phys_row);
    // Per-bit orientation hash = hashSeed({seed, bank, row, bit, tag}).
    // The (seed, bank, row) prefix is loop-invariant, and so is the
    // prefix's contribution to the first per-attempt fold — so hoist
    // the whole HashStream copy+mix out of the rejection loop: fold
    // the prefix once, precompute its fold addend, and each attempt is
    // two plain fold+finalize steps on a uint64. Bit-identical to
    // HashStream(prefix).mix(bit).mix(tag).value() by substitution.
    HashStream orientation_prefix;
    orientation_prefix.mix(spec_.seed).mix(bank).mix(phys_row);
    const uint64_t ps = orientation_prefix.value();
    const uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
    const uint64_t pre = kGolden + (ps << 6) + (ps >> 2);
    auto orientationHash = [&](uint32_t bit) {
        uint64_t s = ps ^ (uint64_t(bit) + pre);
        s = splitmix64(s);
        s ^= 0x0B17ULL + kGolden + (s << 6) + (s >> 2);
        return splitmix64(s);
    };

    // Each flip lands on a charged cell: the stored value must match
    // the cell's orientation. The first flip must land (see above:
    // crossing the threshold implies a flipped bit), so it gets up to
    // 256 attempts; with tf in (0.35, 0.65) each succeeds with >= ~35%
    // probability, so the bound is unreachable in practice (~1e-50)
    // and only keeps a pathological model from hanging the device.
    // Later flips get 8: dropping one of many draws only dents the
    // flip count, which is noise-dominated anyway.
    //
    // Candidate draws are sequential and each acceptance depends on
    // the bits already flipped (flipBitIf reads the current bit), so
    // the RNG consumption, and with it the flip placement, is a pure
    // function of the row's state and the stream. The attempts run as
    // one branch-free state machine: a landed flip (`ok`) or a spent
    // budget moves on to the next flip by arithmetic. About half the
    // draws land, so a branch on `ok` would mispredict often.
    uint64_t applied = 0;
    uint64_t flip = 0;     // index of the flip being placed
    uint32_t attempt = 0;  // attempts spent on it so far
    while (flip < n_flips) {
        const uint32_t bit = static_cast<uint32_t>(rng_.below(bits));
        const bool true_cell =
            (orientationHash(bit) >> 11) * (1.0 / 9007199254740992.0) <
            tf;
        const uint64_t ok = rd.flipBitIf(bit, true_cell);
        applied += ok;
        const uint32_t budget = flip == 0 ? 256 : 8;
        const uint64_t next = ok | (++attempt == budget);
        flip += next;
        attempt &= static_cast<uint32_t>(next - 1);
    }
    stats_.bitflipsInjected += applied;
}

} // namespace svard::dram
