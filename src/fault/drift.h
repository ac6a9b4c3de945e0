/**
 * @file
 * Temporal drift of per-row read-disturbance thresholds. Variable
 * Read Disturbance (arXiv:2502.13075) shows HC_first is not a
 * constant: it moves with accumulated stress (aging) and with the
 * operating point (temperature). This file models both as a
 * deterministic, seeded multiplicative trajectory on each row's
 * calibration-time HC_first, advanced in tREFW-sized "drift epochs":
 *
 *  - `aging[:period]` replays the Fig. 10 stress transform over time:
 *    each row draws a hashed uniform against its quantized-HC drop
 *    probability (fault/vuln_model.h) and, if selected, drops one
 *    tested step at a deterministic epoch within the stress period.
 *  - `thermal[:ampl[:period]]` drives a bender::TemperatureController
 *    through a sinusoidal setpoint schedule around the calibration
 *    temperature; HC_first shifts by a per-degree coefficient with
 *    per-row sensitivity jitter (hotter chips flip earlier).
 *  - `aging+thermal` composes both factors multiplicatively.
 *
 * The factor is exactly 1.0 at epoch 0 (calibration time), so a
 * zero-epoch or `none` drift axis reproduces the static path bit for
 * bit. Drift reaches sweep results only through
 * engine::evaluateDrift (engine/drift_eval.h): it compares each
 * sampled row's factor now against its factor at the last
 * recalibration, while the defense keeps the profile it was
 * calibrated with.
 */
#ifndef SVARD_FAULT_DRIFT_H
#define SVARD_FAULT_DRIFT_H

#include <cstdint>
#include <string>
#include <vector>

namespace svard::fault {

/** Which physical drift mechanisms a model composes. */
enum class DriftKind : uint8_t
{
    None = 0,
    Aging = 1,       ///< Fig. 10 stress transform replayed over time
    Thermal = 2,     ///< operating-point (temperature) shifts
};

/**
 * Parsed drift-model grammar:
 *   none
 *   aging[:<periodEpochs>]
 *   thermal[:<amplC>[:<periodEpochs>]]
 *   aging[...]+thermal[...]
 */
struct DriftModelSpec
{
    bool aging = false;
    bool thermal = false;

    /** Epochs of one full 68-day Fig. 10 stress period. */
    uint32_t agingPeriodEpochs = 64;

    double thermalAmplC = 10.0;        ///< setpoint swing amplitude
    uint32_t thermalPeriodEpochs = 32; ///< sinusoid period in epochs
    double thermalCoeffPerC = 0.004;   ///< fractional HC_first per +1 C

    bool isStatic() const { return !aging && !thermal; }

    /** @throws std::invalid_argument on unknown grammar */
    static DriftModelSpec parse(const std::string &text);

    /** Canonical name: parse(name()) round-trips, and every spelling
     *  of the same model canonicalizes identically (fingerprints). */
    std::string name() const;
};

/**
 * A concrete, fully deterministic drift trajectory: (model, seed,
 * epoch horizon) -> per-row multiplicative HC_first factors. The
 * thermal temperature schedule is precomputed once in the constructor
 * by settling a seeded TemperatureController at each epoch's
 * setpoint, so factor() is pure and cheap.
 */
class DriftField
{
  public:
    /** Temperature the module was characterized at (thermal dT=0). */
    static constexpr double kCalibTempC = 55.0;

    DriftField(const DriftModelSpec &spec, uint64_t seed,
               uint32_t epochs);

    /** Settled module temperature at a drift epoch, Celsius. */
    double temperatureAt(uint32_t epoch) const;

    /**
     * Multiplicative factor on a row's calibration-time HC_first at
     * `epoch`. `hc_q` keys the Fig. 10 stress transform: the row's
     * quantized pre-drift HC_first on the tested-count grid (rows in
     * scaled threshold space pass their unscaled module-space value).
     * factor(..., 0) == 1.0 for every row.
     */
    double factor(uint32_t bank, uint32_t row, int64_t hc_q,
                  uint32_t epoch) const;

  private:
    DriftModelSpec spec_;
    uint64_t seed_;
    uint32_t epochs_;
    std::vector<double> temps_; ///< [epoch] settled plant temperature
};

} // namespace svard::fault

#endif // SVARD_FAULT_DRIFT_H
