#include "charz/aging.h"

#include <memory>

#include "common/log.h"
#include "fault/vuln_model.h"

namespace svard::charz {

double
AgingResult::fraction(int64_t before, int64_t after) const
{
    auto tot = beforeTotals.find(before);
    if (tot == beforeTotals.end() || tot->second == 0)
        return 0.0;
    auto it = transitions.find({before, after});
    const uint64_t n = it == transitions.end() ? 0 : it->second;
    return static_cast<double>(n) / static_cast<double>(tot->second);
}

double
AgingResult::changedFraction(int64_t before) const
{
    auto tot = beforeTotals.find(before);
    if (tot == beforeTotals.end() || tot->second == 0)
        return 0.0;
    uint64_t changed = 0;
    for (const auto &[key, n] : transitions)
        if (key.first == before && key.second != before)
            changed += n;
    return static_cast<double>(changed) /
           static_cast<double>(tot->second);
}

AgingResult
agingExperiment(const dram::ModuleSpec &spec, const CharzOptions &opt)
{
    auto subarrays = std::make_shared<dram::SubarrayMap>(spec);
    auto fresh_model =
        std::make_shared<fault::VulnerabilityModel>(spec, subarrays,
                                                    false);
    auto aged_model =
        std::make_shared<fault::VulnerabilityModel>(spec, subarrays,
                                                    true);
    dram::DramDevice fresh_dev(spec, subarrays, fresh_model);
    dram::DramDevice aged_dev(spec, subarrays, aged_model);
    Characterizer fresh(fresh_dev);
    Characterizer aged(aged_dev);

    // The transition matrix is defined over the strided sample only;
    // characterizeModule would also append opt.extraRows, so drop them.
    CharzOptions sample = opt;
    sample.extraRows.clear();

    // Both sweeps enumerate the same (bank, row) list in the same
    // bank-major order, whatever the worker count, so pairing is
    // positional.
    const auto before = fresh.characterizeModule(sample);
    const auto after = aged.characterizeModule(sample);
    SVARD_ASSERT(before.size() == after.size(),
                 "aging sweeps disagree on row sampling");
    AgingResult out;
    for (size_t i = 0; i < before.size(); ++i) {
        ++out.transitions[{before[i].hcFirst, after[i].hcFirst}];
        ++out.beforeTotals[before[i].hcFirst];
    }
    return out;
}

} // namespace svard::charz
