//! The fractional short-circuit-current baseline (from the Esram &
//! Chapman survey the paper cites as [2]).

use eh_units::{Amps, Seconds, Volts, Watts};

use super::sample_hold::SampleHold;
use super::shared::{check_fraction, check_overhead, check_positive, clamp_target};
use crate::compute::ComputeCost;
use crate::controller::{MpptController, Observation, TrackerCommand};
use crate::error::CoreError;

/// Fractional-Isc: the MPP *current* of a PV cell is approximately
/// proportional to its short-circuit current (`Impp ≈ k_i · Isc`), so
/// the tracker periodically shorts the module, measures `Isc`, and then
/// regulates the operating point so the module delivers `k_i·Isc`.
///
/// Since our converter regulates voltage, the current command is turned
/// into a voltage by a local search each control step (in hardware this
/// is the converter's current loop). The periodic short costs *all* the
/// module power during the measurement — a harsher interruption than the
/// paper's open-circuit PULSE — and the sensing chain is MCU-class, so
/// this method too fails the indoor budget.
#[derive(Debug, Clone)]
pub struct FractionalIsc {
    k_i: f64,
    overhead: Watts,
    target: Volts,
    hold: SampleHold<Amps>,
}

impl FractionalIsc {
    /// Creates a tracker with MPP-current fraction `k_i` and a given
    /// shorting period.
    ///
    /// # Errors
    ///
    /// Rejects `k_i` outside `(0, 1)`, a non-positive period or negative
    /// overhead.
    pub fn new(k_i: f64, sample_period: Seconds, overhead: Watts) -> Result<Self, CoreError> {
        check_fraction("k_i", k_i)?;
        check_positive("sample_period", sample_period.value())?;
        check_overhead(overhead)?;
        Ok(Self {
            k_i,
            overhead,
            target: Volts::new(2.5),
            hold: SampleHold::new(sample_period),
        })
    }

    /// Configuration tuned for the AM-1815: `k_i = 0.5`. Crystalline
    /// cells use the textbook `k_i ≈ 0.9`, but amorphous cells lose
    /// current to photo-conductive shunting well before the diode knee,
    /// so their `Impp/Isc` sits near one half — one more calibration
    /// burden the paper's voltage-based technique avoids. Shorts every
    /// 10 s; 1 mW sensing/control overhead.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors [`FractionalIsc::new`].
    pub fn literature_default() -> Result<Self, CoreError> {
        Self::new(0.5, Seconds::new(10.0), Watts::from_milli(1.0))
    }

    /// The held short-circuit current, if measured.
    pub fn held_isc(&self) -> Option<Amps> {
        self.hold.held()
    }

    /// The present voltage target.
    pub fn target(&self) -> Volts {
        self.target
    }
}

impl MpptController for FractionalIsc {
    fn name(&self) -> &str {
        "fractional Isc [2]"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        let capturing = self.hold.advance(obs.isc_measurement, dt);
        let Some(isc) = self.hold.decide() else {
            return TrackerCommand::MeasureIsc;
        };
        // Current-loop emulation: nudge the voltage to steer the sensed
        // current toward k_i·Isc. Below the knee the module is a current
        // source, so "too much current" means we are below the MPP
        // voltage and must step up; "too little" means we passed the knee.
        // On the capture step the sensed current is the short-circuit
        // current from the measurement interval itself, not an
        // operating-point current — judging it would read "too much
        // current" after every sample and ratchet the target up
        // regardless of the operating point, so the loop holds for one
        // step instead.
        if !capturing {
            let target_current = isc.value() * self.k_i;
            if obs.pv_current.value() > target_current * 1.02 {
                self.target += Volts::from_milli(50.0);
            } else if obs.pv_current.value() < target_current * 0.98 {
                self.target -= Volts::from_milli(50.0);
            }
            self.target = clamp_target(self.target);
        }
        TrackerCommand::connect_at(self.target)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn can_cold_start(&self) -> bool {
        false
    }

    fn compute_cost(&self) -> ComputeCost {
        // One scale, two compares, one step, one clamp per decision.
        ComputeCost::mcu_class(40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_pv::presets;
    use eh_units::Lux;

    #[test]
    fn validation() {
        assert!(FractionalIsc::new(0.0, Seconds::new(10.0), Watts::ZERO).is_err());
        assert!(FractionalIsc::new(1.1, Seconds::new(10.0), Watts::ZERO).is_err());
        assert!(FractionalIsc::new(0.9, Seconds::ZERO, Watts::ZERO).is_err());
    }

    #[test]
    fn first_command_is_a_short() {
        let mut t = FractionalIsc::literature_default().unwrap();
        let cmd = t.step(&Observation::at(Seconds::ZERO), Seconds::new(1.0));
        assert_eq!(cmd, TrackerCommand::MeasureIsc);
    }

    #[test]
    fn converges_near_the_mpp() {
        let cell = presets::sanyo_am1815();
        let lux = Lux::new(1000.0);
        let isc = cell.short_circuit_current(lux).unwrap();
        let mpp = cell.mpp(lux).unwrap();

        let mut t = FractionalIsc::literature_default().unwrap();
        // Prime with a short measurement.
        t.step(&Observation::at(Seconds::ZERO), Seconds::new(0.1));
        let mut obs = Observation {
            isc_measurement: Some(isc),
            ..Observation::at(Seconds::ZERO)
        };
        let mut v = Volts::new(2.5);
        for _ in 0..300 {
            let cmd = t.step(&obs, Seconds::new(0.1));
            match cmd {
                TrackerCommand::Connect(target) => {
                    v = target;
                    let i = cell.current_at(v, lux).unwrap().max(Amps::ZERO);
                    obs = Observation {
                        pv_voltage: v,
                        pv_current: i,
                        pv_power: v * i,
                        ..Observation::at(Seconds::ZERO)
                    };
                }
                TrackerCommand::MeasureIsc => {
                    obs = Observation {
                        isc_measurement: Some(isc),
                        ..Observation::at(Seconds::ZERO)
                    };
                }
                TrackerCommand::MeasureVoc => unreachable!("FSCC never measures Voc"),
            }
        }
        // Fractional-Isc is an approximation; it should land in the MPP
        // neighbourhood (within ~15 % power).
        let p = cell.power_at(v, lux).unwrap();
        assert!(
            p.value() > 0.85 * mpp.power.value(),
            "settled at {v} with {p}, MPP {}",
            mpp.power
        );
    }

    #[test]
    fn declares_costs() {
        let t = FractionalIsc::literature_default().unwrap();
        assert!(t.overhead_power().as_micro() >= 500.0);
        assert!(!t.can_cold_start());
        assert!(!t.requires_light_sensor());
        assert!(!t.compute_cost().is_free());
    }

    #[test]
    fn capture_step_does_not_nudge_on_the_short_circuit_current() {
        // Regression: the engine reports the measurement interval's
        // short-circuit current as `pv_current` on the step after a
        // short, so the current loop used to see `Isc > k_i·Isc` after
        // every sample and bump the target +50 mV unconditionally. The
        // capture step must hold the previous target.
        let mut t = FractionalIsc::literature_default().unwrap();
        // First command is a short; the tracker is now `measuring`.
        let cmd = t.step(&Observation::at(Seconds::ZERO), Seconds::new(0.1));
        assert_eq!(cmd, TrackerCommand::MeasureIsc);
        let before = t.target();
        // The post-short observation, as the engine builds it: the
        // measured Isc both in `isc_measurement` and as the sensed
        // operating current.
        let isc = Amps::from_micro(200.0);
        let obs = Observation {
            pv_current: isc,
            isc_measurement: Some(isc),
            ..Observation::at(Seconds::new(0.1))
        };
        let cmd = t.step(&obs, Seconds::new(0.1));
        assert!(cmd.is_connect());
        assert_eq!(
            t.target(),
            before,
            "capture step must not judge the short-circuit current as an operating point"
        );
    }
}
