//! Adaptive-step gradient-descent MPPT (cf. the complexity-aware
//! benchmarking line of work, arXiv 2511.20895).

use eh_units::{Error, Seconds, Volts, Watts};

use super::shared::{check_overhead, check_positive, clamp_target, ensure, ControlTick};
use crate::compute::ComputeCost;
use crate::controller::{MpptController, Observation, TrackerCommand};

/// Gradient-descent MPPT with an adaptive step size.
///
/// Where P&O perturbs by a *fixed* step and only keeps the sign of the
/// power change, this tracker estimates the local slope `dP/dV` from
/// consecutive observations and steps proportionally to it:
/// `Δv = clamp(η · dP/dV, ±max_step)`, floored at `min_step` so the
/// search never stalls. Far from the MPP the slope is steep and the
/// steps are large; near the MPP they shrink toward the floor, trading
/// P&O's fixed ripple for a smaller steady-state oscillation at the
/// price of a division-heavy decision — exactly the trade the
/// compute-cost columns exist to price.
#[derive(Debug, Clone)]
pub struct GradientDescentMppt {
    learning_rate: f64,
    max_step: Volts,
    min_step: Volts,
    overhead: Watts,
    target: Volts,
    last_voltage: Volts,
    last_power: Watts,
    last_direction: f64,
    tick: ControlTick,
}

impl GradientDescentMppt {
    /// Creates a tracker with learning rate `learning_rate` (in V²/W)
    /// and a step band `[min_step, max_step]`, deciding every
    /// `control_period`.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive learning rate or period, a non-positive or
    /// inverted step band, or negative overhead.
    pub fn new(
        learning_rate: f64,
        max_step: Volts,
        min_step: Volts,
        control_period: Seconds,
        initial_target: Volts,
        overhead: Watts,
    ) -> Result<Self, Error> {
        check_positive("learning_rate", learning_rate)?;
        let (min, max) = (min_step.value(), max_step.value());
        ensure(min > 0.0 && max >= min, "step_band", min)?;
        let tick = ControlTick::new(control_period)?;
        check_overhead(overhead)?;
        Ok(Self {
            learning_rate,
            max_step,
            min_step,
            overhead,
            target: initial_target,
            last_voltage: Volts::ZERO,
            last_power: Watts::ZERO,
            last_direction: 1.0,
            tick,
        })
    }

    /// A configuration matched to the µW-scale indoor operating point:
    /// η = 200 V²/W (so a 100 µW/V slope moves 20 mV), steps between
    /// 5 mV and 200 mV at 10 Hz from 2.5 V, with the same 2 mW
    /// MCU-class overhead as the other continuous-sensing trackers \[4\].
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors
    /// [`GradientDescentMppt::new`].
    pub fn literature_default() -> Result<Self, Error> {
        Self::new(
            200.0,
            Volts::from_milli(200.0),
            Volts::from_milli(5.0),
            Seconds::from_milli(100.0),
            Volts::new(2.5),
            Watts::from_milli(2.0),
        )
    }

    /// The present voltage target.
    pub fn target(&self) -> Volts {
        self.target
    }
}

impl MpptController for GradientDescentMppt {
    fn name(&self) -> &str {
        "gradient descent (adaptive step)"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        if let Some(first) = self.tick.advance(dt) {
            let dv = (obs.pv_voltage - self.last_voltage).value();
            let dp = (obs.pv_power - self.last_power).value();
            let delta = if first {
                // First decision: seed the finite differences and probe
                // upward (the same first-sample discipline as P&O).
                self.min_step.value()
            } else if obs.pv_voltage.value() <= 0.0 {
                // Dark module: hold position instead of running away.
                0.0
            } else if dv.abs() < 1e-9 {
                // No voltage movement to difference against: keep
                // probing in the last direction at the floor step.
                self.min_step.value() * self.last_direction
            } else {
                let gradient = dp / dv;
                let raw = self.learning_rate * gradient;
                let magnitude = raw
                    .abs()
                    .clamp(self.min_step.value(), self.max_step.value());
                magnitude * raw.signum()
            };
            if delta != 0.0 {
                self.last_direction = delta.signum();
            }
            self.last_voltage = obs.pv_voltage;
            self.last_power = obs.pv_power;
            self.target = clamp_target(self.target + Volts::new(delta));
        }
        TrackerCommand::connect_at(self.target)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn compute_cost(&self) -> ComputeCost {
        // A finite-difference division, a scaled multiply, two clamps
        // and the direction bookkeeping — the heaviest decision here.
        ComputeCost::mcu_class(110)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::{Amps, Lux};

    fn obs(v: f64, power_uw: f64) -> Observation {
        Observation {
            pv_voltage: Volts::new(v),
            pv_current: Amps::from_micro(if v > 0.0 { power_uw / v } else { 0.0 }),
            pv_power: Watts::from_micro(power_uw),
            ambient_lux: Some(Lux::new(1000.0)),
            ..Observation::at(Seconds::ZERO)
        }
    }

    /// A synthetic indoor power curve peaking at 3.0 V, in µW.
    fn parabola(v: f64) -> f64 {
        (100.0 - (v - 3.0).powi(2) * 50.0).max(0.0)
    }

    #[test]
    fn validation() {
        let mk = |eta, max: f64, min: f64, period: f64| {
            GradientDescentMppt::new(
                eta,
                Volts::new(max),
                Volts::new(min),
                Seconds::new(period),
                Volts::new(2.5),
                Watts::ZERO,
            )
        };
        assert!(mk(0.0, 0.2, 0.005, 0.1).is_err());
        assert!(mk(200.0, 0.005, 0.2, 0.1).is_err(), "inverted step band");
        assert!(mk(200.0, 0.2, 0.005, 0.0).is_err());
        assert!(mk(200.0, 0.2, 0.005, 0.1).is_ok());
    }

    #[test]
    fn converges_to_the_peak() {
        let mut t = GradientDescentMppt::literature_default().unwrap();
        let mut v = t.target().value();
        for _ in 0..400 {
            let c = t.step(&obs(v, parabola(v)), Seconds::from_milli(100.0));
            v = c.target_voltage().expect("stays connected").value();
        }
        assert!((v - 3.0).abs() < 0.05, "should settle near 3.0 V, got {v}");
    }

    #[test]
    fn steps_shrink_near_the_peak() {
        let mut t = GradientDescentMppt::literature_default().unwrap();
        let mut v = t.target().value();
        let mut deltas = Vec::new();
        for _ in 0..200 {
            let c = t.step(&obs(v, parabola(v)), Seconds::from_milli(100.0));
            let next = c.target_voltage().expect("stays connected").value();
            deltas.push((next - v).abs());
            v = next;
        }
        let early: f64 = deltas[1..6].iter().sum();
        let late: f64 = deltas[150..155].iter().sum();
        assert!(
            late < early,
            "adaptive steps must shrink approaching the MPP: early {early}, late {late}"
        );
    }

    #[test]
    fn first_decision_probes_upward_from_a_dark_start() {
        // Same first-sample discipline as the P&O fix: an all-zero first
        // observation must seed the differences and probe upward, not
        // divide the zero initializers.
        let mut t = GradientDescentMppt::literature_default().unwrap();
        let start = t.target();
        let c = t.step(&obs(0.0, 0.0), Seconds::from_milli(100.0));
        assert!(c.target_voltage().expect("stays connected") > start);
    }

    #[test]
    fn holds_position_in_the_dark() {
        let mut t = GradientDescentMppt::literature_default().unwrap();
        t.step(&obs(2.5, 80.0), Seconds::from_milli(100.0));
        let held = t.target();
        for _ in 0..10 {
            t.step(&obs(0.0, 0.0), Seconds::from_milli(100.0));
        }
        assert_eq!(t.target(), held, "dark module must not walk the target");
    }

    #[test]
    fn declares_mcu_class_costs() {
        let t = GradientDescentMppt::literature_default().unwrap();
        assert!(t.overhead_power().as_milli() >= 1.0);
        assert!(!t.requires_light_sensor());
        let cost = t.compute_cost();
        assert!(!cost.is_free());
        assert!(cost.ops_per_decision > 60, "division-heavy decision");
    }
}
