#include "bender/test_session.h"

#include <algorithm>

#include "common/log.h"

namespace svard::bender {

TestSession::TestSession(dram::DramDevice &device)
    : device_(device), timing_(device.timing())
{}

void
TestSession::act(uint32_t bank, uint32_t row)
{
    device_.activate(bank, row, now_);
    now_ += timing_.tRCD;
}

void
TestSession::pre(uint32_t bank)
{
    device_.precharge(bank, now_);
    now_ += timing_.tRP;
}

void
TestSession::wait(dram::Tick duration)
{
    SVARD_ASSERT(duration >= 0, "negative wait");
    now_ += duration;
}

void
TestSession::resetClock()
{
    programStart_ = now_;
    overrunLatched_ = false;
}

bool
TestSession::refreshWindowExceeded() const
{
    return now_ - programStart_ > timing_.tREFW;
}

void
TestSession::initRow(uint32_t bank, uint32_t row, uint8_t fill)
{
    act(bank, row);
    device_.writeRowFill(bank, row, fill);
    // Streaming the full row out of the write queue: one burst per
    // 64B cache line.
    const uint32_t lines = device_.spec().rowBytes / 64;
    wait(timing_.tBL * lines);
    pre(bank);
}

void
TestSession::hammerSingleSided(uint32_t bank, uint32_t aggr,
                               uint64_t count, dram::Tick t_agg_on)
{
    const dram::Tick t_on = std::max(t_agg_on, timing_.tRAS);
    device_.hammer(bank, aggr, count, t_on);
    now_ += static_cast<dram::Tick>(count) * (t_on + timing_.tRP);
    if (refreshWindowExceeded() && !overrunLatched_) {
        overrunLatched_ = true;
        ++overruns_;
    }
}

BerMeasurement
TestSession::readAndCompare(uint32_t bank, uint32_t row, uint8_t expected)
{
    act(bank, row);
    BerMeasurement m;
    m.flippedBits = device_.countMismatchedBits(bank, row, expected);
    m.totalBits = device_.spec().rowBytes * 8ull;
    const uint32_t lines = device_.spec().rowBytes / 64;
    wait(timing_.tBL * lines);
    pre(bank);
    return m;
}

BerMeasurement
TestSession::measureBer(uint32_t bank, uint32_t victim,
                        const std::vector<uint32_t> &aggressors,
                        fault::DataPattern dp, uint64_t hammer_count,
                        dram::Tick t_agg_on)
{
    SVARD_ASSERT(!aggressors.empty(), "measureBer needs aggressors");
    resetClock();
    initRow(bank, victim, fault::victimFill(dp));
    for (uint32_t a : aggressors)
        initRow(bank, a, fault::aggressorFill(dp));
    for (uint32_t a : aggressors)
        hammerSingleSided(bank, a, hammer_count, t_agg_on);
    return readAndCompare(bank, victim, fault::victimFill(dp));
}

std::vector<uint32_t>
TestSession::aggressorRowsOf(uint32_t row) const
{
    const uint32_t phys = device_.mapping().toPhysical(row);
    std::vector<uint32_t> out;
    for (uint32_t n : device_.subarrays().disturbedNeighbors(phys))
        out.push_back(device_.mapping().toLogical(n));
    return out;
}

} // namespace svard::bender
