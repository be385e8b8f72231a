//! The paper's technique at behavioural level.

use eh_units::{Seconds, Volts, Watts};

use super::sample_hold::{check_pulse, SampleHold};
use super::shared::{check_fraction, check_overhead};
use crate::controller::{MpptController, Observation, TrackerCommand};
use crate::error::CoreError;

/// The proposed FOCV sample-and-hold tracker: every `sample_period` the
/// module is disconnected for `pulse_width` to measure `Voc`; in between
/// the converter holds the module at `k · Voc_held`.
///
/// The default parameters are the prototype's measurements: 39 ms pulses
/// every 69 s, `k = 0.596`, and the 8 µA × 3.3 V metrology overhead the
/// paper reports in §IV-B.
///
/// ```
/// use eh_core::baselines::FocvSampleHold;
/// use eh_core::MpptController;
///
/// let tracker = FocvSampleHold::paper_prototype()?;
/// assert!(tracker.can_cold_start());
/// assert!(tracker.overhead_power().as_micro() < 30.0);
/// # Ok::<(), eh_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FocvSampleHold {
    k: f64,
    pulse_width: Seconds,
    overhead: Watts,
    /// The astable schedule and the held `Voc`; the FOCV variants take
    /// it over from a node's FOCV chain.
    pub(super) hold: SampleHold<Volts>,
}

impl FocvSampleHold {
    /// Creates a tracker with explicit parameters.
    ///
    /// # Errors
    ///
    /// Rejects `k` outside `(0, 1)`, non-positive periods, or a pulse
    /// width that is not shorter than the sample period.
    pub fn new(
        k: f64,
        sample_period: Seconds,
        pulse_width: Seconds,
        overhead: Watts,
    ) -> Result<Self, CoreError> {
        check_fraction("k", k)?;
        check_pulse(sample_period, pulse_width)?;
        check_overhead(overhead)?;
        Ok(Self {
            k,
            pulse_width,
            overhead,
            hold: SampleHold::new(sample_period),
        })
    }

    /// The prototype parameters: k = 0.596, 69 s period, 39 ms pulse,
    /// 8 µA at 3.3 V.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`FocvSampleHold::new`].
    pub fn paper_prototype() -> Result<Self, CoreError> {
        Self::new(
            0.596,
            Seconds::new(69.0),
            Seconds::from_milli(39.0),
            Volts::new(3.3) * eh_units::Amps::from_micro(8.0),
        )
    }

    /// Staggers the power-up PULSE by `offset` into the hold period: the
    /// first measurement fires after `offset` instead of immediately,
    /// and until then the tracker behaves as a circuit with a discharged
    /// hold capacitor — a held 0 V sample, converter off. Fleet
    /// simulations use this to model astable multivibrators that powered
    /// up at different instants, so a thousand nodes do not all
    /// interrupt harvesting in lock-step.
    ///
    /// # Errors
    ///
    /// Rejects an offset outside `[0, sample_period)`.
    pub fn with_initial_phase(mut self, offset: Seconds) -> Result<Self, CoreError> {
        self.hold = self.hold.with_initial_phase(offset)?;
        Ok(self)
    }

    /// The trimmed FOCV factor.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The hold (sampling) period.
    pub fn sample_period(&self) -> Seconds {
        self.hold.period()
    }

    /// The measurement pulse width (how long the module is disconnected
    /// per sample).
    pub fn pulse_width(&self) -> Seconds {
        self.pulse_width
    }

    /// The currently held open-circuit voltage, if a sample exists.
    pub fn held_voc(&self) -> Option<Volts> {
        self.hold.held()
    }
}

impl MpptController for FocvSampleHold {
    fn name(&self) -> &str {
        "FOCV sample-and-hold (this paper)"
    }

    #[inline]
    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        self.hold.advance(obs.voc_measurement, dt);
        self.hold.focv_command(self.k)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn can_cold_start(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Lux;

    fn obs(voc: Option<f64>) -> Observation {
        Observation {
            pv_voltage: Volts::new(3.0),
            pv_power: Watts::from_micro(100.0),
            voc_measurement: voc.map(Volts::new),
            ambient_lux: Some(Lux::new(1000.0)),
            ..Observation::at(Seconds::ZERO)
        }
    }

    #[test]
    fn validation() {
        assert!(FocvSampleHold::new(
            1.2,
            Seconds::new(69.0),
            Seconds::from_milli(39.0),
            Watts::ZERO
        )
        .is_err());
        assert!(
            FocvSampleHold::new(0.6, Seconds::new(1.0), Seconds::new(2.0), Watts::ZERO).is_err()
        );
    }

    #[test]
    fn first_step_measures_then_tracks() {
        let mut t = FocvSampleHold::paper_prototype().unwrap();
        let c1 = t.step(&obs(None), Seconds::new(1.0));
        assert!(!c1.is_connect(), "must measure first");
        // Engine measured Voc = 5.44 V during the disconnect.
        let c2 = t.step(&obs(Some(5.44)), Seconds::new(1.0));
        assert!(c2.is_connect());
        assert!((c2.target_voltage().expect("connected").value() - 5.44 * 0.596).abs() < 1e-9);
        assert_eq!(t.held_voc(), Some(Volts::new(5.44)));
    }

    #[test]
    fn resamples_every_period() {
        let mut t = FocvSampleHold::paper_prototype().unwrap();
        t.step(&obs(None), Seconds::new(1.0));
        t.step(&obs(Some(5.0)), Seconds::new(1.0));
        let mut measured = 0;
        // Walk 140 s in 1 s steps: expect ~2 more measurement commands.
        for _ in 0..140 {
            let c = t.step(&obs(Some(5.0)), Seconds::new(1.0));
            if !c.is_connect() {
                measured += 1;
            }
        }
        assert_eq!(measured, 2, "one resample per 69 s");
    }

    #[test]
    fn holds_value_between_samples() {
        let mut t = FocvSampleHold::paper_prototype().unwrap();
        t.step(&obs(None), Seconds::new(1.0));
        t.step(&obs(Some(5.0)), Seconds::new(1.0));
        // Light changed but no resample yet: target unchanged.
        let c = t.step(&obs(None), Seconds::new(10.0));
        assert!((c.target_voltage().expect("connected").value() - 5.0 * 0.596).abs() < 1e-9);
    }

    #[test]
    fn initial_phase_delays_the_first_pulse() {
        let mut t = FocvSampleHold::paper_prototype()
            .unwrap()
            .with_initial_phase(Seconds::new(10.0))
            .unwrap();
        // For the first 9 s the tracker idles at a held 0 V sample.
        for _ in 0..9 {
            let c = t.step(&obs(None), Seconds::new(1.0));
            assert!(c.is_connect(), "no PULSE before the phase elapses");
            assert_eq!(c.target_voltage(), Some(Volts::ZERO));
        }
        // The 10th second reaches the staggered boundary: PULSE fires.
        let c = t.step(&obs(None), Seconds::new(1.0));
        assert!(!c.is_connect(), "delayed power-up PULSE must fire");
        let c = t.step(&obs(Some(5.44)), Seconds::new(1.0));
        assert!((c.target_voltage().expect("tracking").value() - 5.44 * 0.596).abs() < 1e-9);
    }

    #[test]
    fn initial_phase_validation() {
        let t = || FocvSampleHold::paper_prototype().unwrap();
        assert!(t().with_initial_phase(Seconds::new(-1.0)).is_err());
        assert!(t().with_initial_phase(Seconds::new(69.0)).is_err());
        assert!(t().with_initial_phase(Seconds::new(f64::NAN)).is_err());
        assert!(t().with_initial_phase(Seconds::ZERO).is_ok());
        assert!(t().with_initial_phase(Seconds::new(68.9)).is_ok());
    }

    #[test]
    fn overhead_is_ultra_low_power() {
        let t = FocvSampleHold::paper_prototype().unwrap();
        assert!((t.overhead_power().as_micro() - 26.4).abs() < 0.1);
        assert!(!t.requires_light_sensor());
    }
}
