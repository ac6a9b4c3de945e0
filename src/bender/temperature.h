/**
 * @file
 * Model of the testing rig's thermal control loop: heater pads pressed
 * against the DRAM chips, a thermocouple, and a PID controller holding
 * the chips at a target temperature with +-0.5 C precision (paper
 * Sec. 4.1). The characterization harness uses it to reproduce the
 * paper's temperature-stability methodology check (footnote 4).
 */
#ifndef SVARD_BENDER_TEMPERATURE_H
#define SVARD_BENDER_TEMPERATURE_H

#include "common/rng.h"
#include "dram/types.h"

namespace svard::bender {

/**
 * Discrete-time PID temperature controller around a first-order
 * thermal plant. Advance with step(); the controller converges to the
 * target and then holds it within the rig's published error margins.
 */
class TemperatureController
{
  public:
    /**
     * @param target_c target temperature in Celsius
     * @param ambient_c ambient temperature the plant relaxes toward
     * @param seed for sensor noise
     */
    TemperatureController(double target_c, double ambient_c = 25.0,
                          uint64_t seed = 7);

    /** Change the setpoint. Re-bases the derivative term on the new
     *  error so the first step after a retarget sees no derivative
     *  kick from the setpoint jump (only plant motion). */
    void
    setTarget(double target_c)
    {
        target_ = target_c;
        prevErr_ = target_ - plant_;
    }

    /** Advance the control loop by dt seconds. */
    void step(double dt_s);

    /** Run the loop until the plant settles at the target. */
    void settle();

    /** Current chip temperature (true plant state), Celsius. */
    double temperature() const { return plant_; }

    /** True when within the rig's +-0.5 C holding precision. */
    bool
    stable() const
    {
        const double err = plant_ - target_;
        return err > -0.5 && err < 0.5;
    }

  private:
    double target_;
    double ambient_;
    double plant_;       ///< chip temperature (C)
    double heater_ = 0.0;///< heater drive in [0, 1]
    double integral_ = 0.0;
    double prevErr_ = 0.0;
    Rng rng_;
};

} // namespace svard::bender

#endif // SVARD_BENDER_TEMPERATURE_H
