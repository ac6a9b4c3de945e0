#include "bender/temperature.h"

#include <algorithm>
#include <cmath>

namespace svard::bender {

TemperatureController::TemperatureController(double target_c,
                                             double ambient_c,
                                             uint64_t seed)
    : target_(target_c), ambient_(ambient_c), plant_(ambient_c),
      rng_(seed)
{}

void
TemperatureController::step(double dt_s)
{
    // PID on the temperature error drives the heater duty cycle.
    const double err = target_ - plant_;
    const double deriv = (err - prevErr_) / std::max(dt_s, 1e-6);
    prevErr_ = err;
    const double kp = 1.20, ki = 0.06, kd = 0.10;
    // Anti-windup by conditional integration: while the heater is
    // saturated and the error would push it further into saturation,
    // freeze the integral. Without this, a downward setpoint change
    // winds the integral to its negative clamp during the long
    // heater-off cooldown, and the plant then undershoots the new
    // target by several degrees before the integral recovers.
    const double next_integral =
        std::clamp(integral_ + err * dt_s, -50.0, 50.0);
    const double u = kp * err + ki * next_integral + kd * deriv;
    if (!((u > 1.0 && err > 0.0) || (u < 0.0 && err < 0.0)))
        integral_ = next_integral;
    heater_ = std::clamp(kp * err + ki * integral_ + kd * deriv, 0.0, 1.0);

    // First-order plant: heater power vs. loss to ambient, plus a
    // small disturbance term (airflow, chip self-heating).
    const double heat_rate = 4.0;       // C/s at full drive
    const double loss_coeff = 0.02;     // 1/s toward ambient
    const double disturbance = rng_.normal(0.0, 0.03);
    plant_ += dt_s * (heat_rate * heater_ -
                      loss_coeff * (plant_ - ambient_) + disturbance);
}

void
TemperatureController::settle()
{
    for (int i = 0; i < 4000 && !(stable() && std::abs(prevErr_) < 0.3);
         ++i)
        step(0.25);
}

} // namespace svard::bender
