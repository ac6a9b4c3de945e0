/**
 * @file
 * DRAM-Bender-style programmable test session.
 *
 * On the real infrastructure, test programs are sequences of DRAM
 * commands (ACT/PRE/RD/WR/WAIT) executed by an FPGA against the module
 * under test with periodic refresh disabled. TestSession reproduces
 * that command-level interface against the behavioral DramDevice: it
 * owns the test clock, advances it per DDR4 timing, never issues
 * refresh, and tracks whether a test program exceeded the refresh
 * window (the paper's methodology bounds every test inside tREFW to
 * keep retention failures from polluting read-disturbance results).
 */
#ifndef SVARD_BENDER_TEST_SESSION_H
#define SVARD_BENDER_TEST_SESSION_H

#include <cstdint>
#include <vector>

#include "dram/device.h"
#include "fault/patterns.h"

namespace svard::bender {

/** Result of one measure_BER invocation (Alg. 1). */
struct BerMeasurement
{
    uint64_t flippedBits = 0;  ///< bits differing from the written data
    uint64_t totalBits = 0;    ///< bits checked
    double
    ber() const
    {
        return totalBits == 0
                   ? 0.0
                   : static_cast<double>(flippedBits) /
                         static_cast<double>(totalBits);
    }
};

/**
 * Command-level test session over a DramDevice (see file header).
 * All row addresses are logical (interface) addresses.
 */
class TestSession
{
  public:
    explicit TestSession(dram::DramDevice &device);

    // ------------------------------------------------------------
    // Raw command interface (explicit timing)
    // ------------------------------------------------------------

    /** Issue ACT and advance the clock by tRCD. */
    void act(uint32_t bank, uint32_t row);

    /** Issue PRE and advance the clock by tRP. */
    void pre(uint32_t bank);

    /** Advance the test clock. */
    void wait(dram::Tick duration);

    /** Current test-program time (ps since the last resetClock). */
    dram::Tick now() const { return now_; }

    /** Restart the test-program clock (a new test program). */
    void resetClock();

    /**
     * True if the current test program has run longer than the
     * module's refresh window (retention failures would interfere on
     * real hardware; the paper's methodology avoids this).
     */
    bool refreshWindowExceeded() const;

    /** Number of test programs that overran the refresh window. */
    uint64_t overruns() const { return overruns_; }

    // ------------------------------------------------------------
    // Composite operations used by the characterization (Alg. 1)
    // ------------------------------------------------------------

    /** ACT + full-row WR of a repeating fill byte + PRE. */
    void initRow(uint32_t bank, uint32_t row, uint8_t fill);

    /** Single-sided hammer: `count` activations of one aggressor row,
     *  each kept open for max(t_agg_on, tRAS). */
    void hammerSingleSided(uint32_t bank, uint32_t aggr, uint64_t count,
                           dram::Tick t_agg_on);

    /** ACT + read-back + PRE; counts bits differing from `expected`. */
    BerMeasurement readAndCompare(uint32_t bank, uint32_t row,
                                  uint8_t expected);

    /**
     * Alg. 1 measure_BER: initialize the victim and its aggressors
     * with the pattern's fills (Table 2), hammer each aggressor
     * `hammer_count` times, read the victim back and compare.
     * Aggressor rows are the physical neighbors of the victim as
     * logical addresses (aggressorRowsOf()): two for interior
     * victims (double-sided), one at a subarray edge.
     */
    BerMeasurement measureBer(uint32_t bank, uint32_t victim,
                              const std::vector<uint32_t> &aggressors,
                              fault::DataPattern dp, uint64_t hammer_count,
                              dram::Tick t_agg_on);

    /**
     * Logical addresses of the rows physically adjacent to `row`
     * (reverse-engineered adjacency on real hardware; derived from the
     * device's mapping here). Rows at subarray edges have one
     * neighbor; others have two (low, high order).
     */
    std::vector<uint32_t> aggressorRowsOf(uint32_t row) const;

    dram::DramDevice &device() { return device_; }
    const dram::TimingParams &timing() const { return timing_; }

  private:
    dram::DramDevice &device_;
    dram::TimingParams timing_;
    dram::Tick now_ = 0;
    dram::Tick programStart_ = 0;
    uint64_t overruns_ = 0;
    bool overrunLatched_ = false;
};

} // namespace svard::bender

#endif // SVARD_BENDER_TEST_SESSION_H
