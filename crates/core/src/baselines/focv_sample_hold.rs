//! The paper's technique at behavioural level.

use eh_units::{Seconds, Volts, Watts};

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
    kernel: FocvKernel,
    lane: FocvLane,
    pulse_width: Seconds,
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
        if !(k.is_finite() && k > 0.0 && k < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "k",
                value: k,
            });
        }
        if !(sample_period.value() > 0.0 && pulse_width.value() > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "periods",
                value: sample_period.value().min(pulse_width.value()),
            });
        }
        if pulse_width.value() >= sample_period.value() {
            return Err(CoreError::InvalidParameter {
                name: "pulse_width",
                value: pulse_width.value(),
            });
        }
        if !(overhead.value().is_finite() && overhead.value() >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "overhead",
                value: overhead.value(),
            });
        }
        Ok(Self {
            kernel: FocvKernel {
                k,
                sample_period,
                overhead,
            },
            lane: FocvLane {
                held_voc: None,
                // Fire the first measurement immediately (the power-up PULSE).
                since_sample: sample_period,
                measuring: false,
            },
            pulse_width,
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
        let period = self.kernel.sample_period;
        if !(offset.value().is_finite() && offset.value() >= 0.0 && offset < period) {
            return Err(CoreError::InvalidParameter {
                name: "initial_phase",
                value: offset.value(),
            });
        }
        self.lane.since_sample = period - offset;
        if offset.value() > 0.0 {
            // Discharged hold capacitor: tracks 0 V (converter off)
            // until the delayed first PULSE takes a real sample.
            self.lane.held_voc = Some(Volts::ZERO);
        }
        Ok(self)
    }

    /// The trimmed FOCV factor.
    pub fn k(&self) -> f64 {
        self.kernel.k
    }

    /// The hold (sampling) period.
    pub fn sample_period(&self) -> Seconds {
        self.kernel.sample_period
    }

    /// The measurement pulse width (how long the module is disconnected
    /// per sample).
    pub fn pulse_width(&self) -> Seconds {
        self.pulse_width
    }

    /// The currently held open-circuit voltage, if a sample exists.
    pub fn held_voc(&self) -> Option<Volts> {
        self.lane.held_voc
    }

    /// The tracker's immutable parameters.
    ///
    /// A [`FocvKernel`] stepping a [`FocvLane`] is this tracker's state
    /// machine without dynamic dispatch: the fast fleet engine runs one
    /// pair per node in a monomorphic step.
    pub fn kernel(&self) -> FocvKernel {
        self.kernel
    }

    /// A snapshot of this tracker's mutable per-node state (including
    /// the effect of [`FocvSampleHold::with_initial_phase`]), to pair
    /// with [`FocvSampleHold::kernel`].
    pub fn lane(&self) -> FocvLane {
        self.lane
    }
}

/// The immutable parameters of a [`FocvSampleHold`] tracker: the
/// trimmed FOCV factor, the hold period, and the metrology overhead.
///
/// [`FocvKernel::step`] is the tracker's state machine over an external
/// [`FocvLane`]; [`FocvSampleHold`]'s [`MpptController::step`] is that
/// same call on the tracker's own lane.
///
/// ```
/// use eh_core::baselines::{FocvDecision, FocvSampleHold};
/// use eh_units::{Seconds, Volts};
///
/// let tracker = FocvSampleHold::paper_prototype()?;
/// let (kernel, mut lane) = (tracker.kernel(), tracker.lane());
/// // The power-up PULSE fires on the first step, exactly as the
/// // stateful tracker does.
/// assert_eq!(kernel.step(&mut lane, None, Seconds::new(1.0)), FocvDecision::Measure);
/// let d = kernel.step(&mut lane, Some(Volts::new(5.44)), Seconds::new(1.0));
/// assert_eq!(d, FocvDecision::Connect(Volts::new(5.44) * kernel.k()));
/// # Ok::<(), eh_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FocvKernel {
    k: f64,
    sample_period: Seconds,
    overhead: Watts,
}

/// The mutable per-node state of one FOCV lane: the held `Voc` sample,
/// the time since the last PULSE, and whether the module is currently
/// disconnected for a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FocvLane {
    held_voc: Option<Volts>,
    since_sample: Seconds,
    measuring: bool,
}

impl FocvLane {
    /// The currently held open-circuit voltage, if a sample exists.
    pub fn held_voc(&self) -> Option<Volts> {
        self.held_voc
    }

    /// Whether the lane is mid-measurement (module disconnected).
    pub fn measuring(&self) -> bool {
        self.measuring
    }
}

/// What one kernel step decided for a lane: the part of
/// [`TrackerCommand`] the FOCV tracker can emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FocvDecision {
    /// Hold the module at the given operating voltage.
    Connect(Volts),
    /// Disconnect the module and measure `Voc`.
    Measure,
}

impl FocvKernel {
    /// The trimmed FOCV factor.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The hold (sampling) period.
    pub fn sample_period(&self) -> Seconds {
        self.sample_period
    }

    /// The tracker's quiescent metrology overhead.
    pub fn overhead_power(&self) -> Watts {
        self.overhead
    }

    /// Advances one lane by `dt`, given the `Voc` measured during the
    /// previous step's disconnect (if any).
    #[inline]
    pub fn step(
        &self,
        lane: &mut FocvLane,
        voc_measurement: Option<Volts>,
        dt: Seconds,
    ) -> FocvDecision {
        // Capture the measurement made during a disconnect step.
        if lane.measuring {
            if let Some(voc) = voc_measurement {
                lane.held_voc = Some(voc);
            }
            lane.measuring = false;
            lane.since_sample = Seconds::ZERO;
        } else {
            lane.since_sample += dt;
        }

        if lane.since_sample >= self.sample_period {
            lane.measuring = true;
            return FocvDecision::Measure;
        }

        match lane.held_voc {
            Some(voc) => FocvDecision::Connect(voc * self.k),
            // No valid sample yet (ACTIVE low): converter stays off.
            None => FocvDecision::Measure,
        }
    }
}

impl MpptController for FocvSampleHold {
    fn name(&self) -> &str {
        "FOCV sample-and-hold (this paper)"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        match self.kernel.step(&mut self.lane, obs.voc_measurement, dt) {
            FocvDecision::Connect(target) => TrackerCommand::connect_at(target),
            FocvDecision::Measure => TrackerCommand::measure(),
        }
    }

    fn overhead_power(&self) -> Watts {
        self.kernel.overhead
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
    fn kernel_exposes_the_tracker_parameters() {
        let t = FocvSampleHold::paper_prototype().unwrap();
        let kernel = t.kernel();
        assert_eq!(kernel.k(), t.k());
        assert_eq!(kernel.sample_period(), t.sample_period());
        assert_eq!(kernel.overhead_power(), t.overhead_power());
        assert!(!t.lane().measuring());
    }

    #[test]
    fn overhead_is_ultra_low_power() {
        let t = FocvSampleHold::paper_prototype().unwrap();
        assert!((t.overhead_power().as_micro() - 26.4).abs() < 0.1);
        assert!(!t.requires_light_sensor());
    }
}
