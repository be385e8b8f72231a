//! The incremental-conductance baseline (from the Esram & Chapman survey
//! the paper cites as \[2\]).

use eh_units::{Amps, Error, Seconds, Volts, Watts};

use super::shared::{check_overhead, check_positive, clamp_target, ControlTick};
use crate::compute::ComputeCost;
use crate::controller::{MpptController, Observation, TrackerCommand};

/// Incremental conductance: at the MPP, `dP/dV = 0` implies
/// `dI/dV = −I/V`. The tracker compares the incremental conductance
/// `ΔI/ΔV` against the instantaneous conductance `−I/V` and steps the
/// operating voltage toward the equality.
///
/// Like perturb & observe it needs a microcontroller plus synchronised
/// current *and* voltage sensing, so its overhead is in the same class
/// (\[4\]-like, 2 mW by default) — another technique the paper's intro
/// rules out for indoor use.
#[derive(Debug, Clone)]
pub struct IncrementalConductance {
    step_size: Volts,
    overhead: Watts,
    target: Volts,
    last_voltage: Volts,
    last_current: Amps,
    tick: ControlTick,
}

impl IncrementalConductance {
    /// Creates a tracker stepping by `step_size` every `control_period`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive step size or period, or negative overhead.
    pub fn new(
        step_size: Volts,
        control_period: Seconds,
        initial_target: Volts,
        overhead: Watts,
    ) -> Result<Self, Error> {
        check_positive("step_size", step_size.value())?;
        let tick = ControlTick::new(control_period)?;
        check_overhead(overhead)?;
        Ok(Self {
            step_size,
            overhead,
            target: initial_target,
            last_voltage: Volts::ZERO,
            last_current: Amps::ZERO,
            tick,
        })
    }

    /// Literature-typical configuration: 25 mV steps at 10 Hz from 2.5 V,
    /// 2 mW controller overhead.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors
    /// [`IncrementalConductance::new`].
    pub fn literature_default() -> Result<Self, Error> {
        Self::new(
            Volts::from_milli(25.0),
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

impl MpptController for IncrementalConductance {
    fn name(&self) -> &str {
        "incremental conductance [2]"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        if let Some(first) = self.tick.advance(dt) {
            let dv = (obs.pv_voltage - self.last_voltage).value();
            let di = (obs.pv_current - self.last_current).value();
            let v = obs.pv_voltage.value();
            let i = obs.pv_current.value();
            let direction = if first {
                // Nothing sensed yet: probe upward.
                1.0
            } else if v <= 0.0 {
                // Dark module: hold position instead of running away.
                0.0
            } else if i <= 1e-9 {
                // Pinned at open circuit (zero current): walk back down.
                -1.0
            } else if dv.abs() < 1e-9 {
                // No voltage change: move on current change (a light step
                // at fixed voltage shifts the MPP the same way).
                if di > 0.0 {
                    1.0
                } else if di < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            } else {
                let incremental = di / dv;
                let instantaneous = -i / v;
                if incremental > instantaneous {
                    1.0 // left of the MPP: increase voltage
                } else if incremental < instantaneous {
                    -1.0 // right of the MPP: decrease voltage
                } else {
                    0.0 // at the MPP: hold
                }
            };
            self.last_voltage = obs.pv_voltage;
            self.last_current = obs.pv_current;
            self.target = clamp_target(self.target + self.step_size * direction);
        }
        TrackerCommand::connect_at(self.target)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn compute_cost(&self) -> ComputeCost {
        // Two divisions (ΔI/ΔV and I/V) dominate; division-heavy
        // decisions cost noticeably more than P&O's compare-and-step.
        ComputeCost::mcu_class(90)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_pv::presets;
    use eh_units::Lux;

    fn observe(cell: &eh_pv::PvCell, v: Volts, lux: Lux) -> Observation {
        let i = cell.current_at(v, lux).unwrap().max(Amps::ZERO);
        Observation {
            pv_voltage: v,
            pv_current: i,
            pv_power: v * i,
            ..Observation::at(Seconds::ZERO)
        }
    }

    #[test]
    fn validation() {
        assert!(IncrementalConductance::new(
            Volts::ZERO,
            Seconds::new(0.1),
            Volts::new(2.5),
            Watts::ZERO
        )
        .is_err());
        assert!(IncrementalConductance::new(
            Volts::new(0.025),
            Seconds::ZERO,
            Volts::new(2.5),
            Watts::ZERO
        )
        .is_err());
        assert!(IncrementalConductance::new(
            Volts::new(0.025),
            Seconds::new(0.1),
            Volts::new(2.5),
            Watts::new(-1.0)
        )
        .is_err());
    }

    #[test]
    fn converges_to_the_mpp_on_a_real_cell() {
        let cell = presets::sanyo_am1815();
        let lux = Lux::new(1000.0);
        let mpp = cell.mpp(lux).unwrap();
        let mut t = IncrementalConductance::literature_default().unwrap();
        let mut v = t.target();
        for _ in 0..600 {
            let obs = observe(&cell, v, lux);
            let cmd = t.step(&obs, Seconds::from_milli(100.0));
            v = cmd.target_voltage().expect("IncCond stays connected");
        }
        assert!(
            (v.value() - mpp.voltage.value()).abs() < 0.1,
            "settled at {v}, MPP at {}",
            mpp.voltage
        );
    }

    #[test]
    fn refollows_a_light_change() {
        let cell = presets::sanyo_am1815();
        let mut t = IncrementalConductance::literature_default().unwrap();
        let mut v = t.target();
        for _ in 0..600 {
            let obs = observe(&cell, v, Lux::new(500.0));
            v = t
                .step(&obs, Seconds::from_milli(100.0))
                .target_voltage()
                .unwrap();
        }
        let settled_dim = v;
        for _ in 0..600 {
            let obs = observe(&cell, v, Lux::new(5000.0));
            v = t
                .step(&obs, Seconds::from_milli(100.0))
                .target_voltage()
                .unwrap();
        }
        let mpp_bright = cell.mpp(Lux::new(5000.0)).unwrap().voltage;
        assert!(
            (v.value() - mpp_bright.value()).abs() < 0.15,
            "after brightening: {v} vs MPP {mpp_bright} (was {settled_dim})"
        );
    }

    #[test]
    fn declares_mcu_class_costs() {
        let t = IncrementalConductance::literature_default().unwrap();
        assert!(t.overhead_power().as_milli() >= 1.0);
        assert!(!t.requires_light_sensor());
        assert!(!t.compute_cost().is_free());
    }

    #[test]
    fn first_decision_probes_upward_even_in_the_dark() {
        // Audit pin (sibling of the P&O first-sample bug): the first
        // decision guards the uninitialized conductance terms, so a dark
        // start (all-zero observation) must still probe upward rather
        // than dividing by a zero Δv or judging the zero initializers.
        let mut t = IncrementalConductance::literature_default().unwrap();
        let start = t.target();
        let cmd = t.step(&Observation::at(Seconds::ZERO), Seconds::from_milli(100.0));
        assert!(cmd.target_voltage().expect("stays connected") > start);
    }
}
