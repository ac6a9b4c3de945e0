#include "core/vuln_profile.h"

#include <algorithm>

#include "common/log.h"

namespace svard::core {

VulnProfile::VulnProfile(std::string label, uint32_t banks,
                         uint32_t rows_per_bank,
                         std::vector<double> bin_bounds,
                         std::vector<uint8_t> bins)
    : label_(std::move(label)), banks_(banks), rowsPerBank_(rows_per_bank),
      binBounds_(std::move(bin_bounds)),
      bins_(std::make_shared<const std::vector<uint8_t>>(std::move(bins)))
{
    SVARD_ASSERT(!binBounds_.empty() && binBounds_.size() <= 16,
                 "profile needs 1..16 bins");
    SVARD_ASSERT(std::is_sorted(binBounds_.begin(), binBounds_.end()),
                 "bin bounds must ascend");
    SVARD_ASSERT(bins_->size() == static_cast<size_t>(banks_) * rowsPerBank_,
                 "bin array does not match the geometry");
    if (bins_->empty())
        return;
    const auto [lo, hi] = std::minmax_element(bins_->begin(), bins_->end());
    SVARD_ASSERT(*hi < binBounds_.size(), "bin out of range");
    minOccupied_ = *lo;
    maxOccupied_ = *hi;
}

VulnProfile
VulnProfile::fromTestedCounts(
    std::string label, uint32_t banks, uint32_t rows_per_bank,
    uint32_t num_bins,
    const std::function<int64_t(uint32_t, uint32_t)> &tested_hc_first)
{
    SVARD_ASSERT(num_bins >= 1 && num_bins <= 16, "1..16 bins");
    const auto &counts = dram::testedHammerCounts();

    // Tested counts 1..excess merge into bin 0; count i > excess gets
    // bin i - excess, whose bound is count i - 1.
    const size_t excess =
        counts.size() > num_bins ? counts.size() - num_bins : 0;
    std::vector<double> bounds{0.75 * static_cast<double>(counts[0])};
    for (size_t i = excess + 1; i < counts.size(); ++i)
        bounds.push_back(static_cast<double>(counts[i - 1]));

    std::vector<uint8_t> bins(static_cast<size_t>(banks) * rows_per_bank);
    for (uint32_t b = 0; b < banks; ++b) {
        for (uint32_t r = 0; r < rows_per_bank; ++r) {
            const int64_t hc = tested_hc_first(b, r);
            const auto it = std::lower_bound(counts.begin(), counts.end(), hc);
            SVARD_ASSERT(it != counts.end() && *it == hc,
                         "HC_first not a tested hammer count");
            const size_t i = static_cast<size_t>(it - counts.begin());
            bins[static_cast<size_t>(b) * rows_per_bank + r] =
                static_cast<uint8_t>(i <= excess ? 0 : i - excess);
        }
    }
    return VulnProfile(std::move(label), banks, rows_per_bank,
                       std::move(bounds), std::move(bins));
}

VulnProfile
VulnProfile::fromModel(const fault::VulnerabilityModel &model,
                       uint32_t num_bins)
{
    const auto &spec = model.spec();
    return fromTestedCounts(
        spec.label, spec.banks, spec.rowsPerBank, num_bins,
        [&](uint32_t b, uint32_t r) {
            return fault::VulnerabilityModel::quantizeHc(
                model.hcFirst(b, r));
        });
}

uint8_t
VulnProfile::binOf(uint32_t bank, uint32_t row) const
{
    SVARD_ASSERT(bank < banks_ && row < rowsPerBank_, "row out of range");
    return (*bins_)[static_cast<size_t>(bank) * rowsPerBank_ + row];
}

double
VulnProfile::thresholdOf(uint32_t bank, uint32_t row) const
{
    return binBounds_[binOf(bank, row)];
}

VulnProfile
VulnProfile::scaledTo(double target_min_hc_first) const
{
    SVARD_ASSERT(target_min_hc_first > 0.0, "target must be positive");
    const double factor = target_min_hc_first / minThreshold();
    VulnProfile out = *this;
    for (double &b : out.binBounds_)
        b *= factor;
    return out;
}

VulnProfile
VulnProfile::resampledTo(uint32_t banks, uint32_t rows_per_bank) const
{
    std::vector<uint8_t> bins(static_cast<size_t>(banks) * rows_per_bank);
    for (uint32_t b = 0; b < banks; ++b) {
        const uint32_t src_bank = b % banks_;
        for (uint32_t r = 0; r < rows_per_bank; ++r) {
            const uint32_t src_row = static_cast<uint32_t>(
                (static_cast<uint64_t>(r) * rowsPerBank_) /
                rows_per_bank);
            bins[static_cast<size_t>(b) * rows_per_bank + r] =
                binOf(src_bank, src_row);
        }
    }
    return VulnProfile(label_, banks, rows_per_bank, binBounds_,
                       std::move(bins));
}

std::vector<double>
VulnProfile::binOccupancy() const
{
    std::vector<uint64_t> counts(binBounds_.size(), 0);
    for (uint8_t b : *bins_)
        ++counts[b];
    const double total = static_cast<double>(banks_) *
                         static_cast<double>(rowsPerBank_);
    std::vector<double> out(counts.size());
    for (size_t i = 0; i < counts.size(); ++i)
        out[i] = static_cast<double>(counts[i]) / total;
    return out;
}

uint64_t
VulnProfile::metadataBits() const
{
    uint32_t bits = 1;
    while ((1u << bits) < binBounds_.size())
        ++bits;
    return static_cast<uint64_t>(bits) * banks_ * rowsPerBank_;
}

} // namespace svard::core
