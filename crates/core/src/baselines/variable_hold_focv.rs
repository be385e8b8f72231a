//! Variable hold-period FOCV: the paper's Eq. 2 turned into a control
//! law.

use eh_units::{Error, Seconds, Volts, Watts};

use super::sample_hold::SampleHold;
use super::shared::{check_fraction, check_overhead, check_positive, ensure};
use super::FocvSampleHold;
use crate::compute::ComputeCost;
use crate::controller::{MpptController, Observation, TrackerCommand};

/// FOCV sample-and-hold with a hold period that adapts to illuminance
/// volatility.
///
/// The paper's Eq. 2 bounds the tracking error of a sample-and-hold
/// FOCV stage by the worst-case mean `Voc` excursion *within* one hold
/// period: a 69 s hold is nearly free on a desk (12.7 mV mean error)
/// but measurably stale on a semi-mobile node (24.1 mV), and the
/// prescribed remedy is to shorten the period when the light is
/// volatile. This tracker implements that remedy with the cheapest
/// digital estimator that works: an exponentially-weighted moving
/// average of the relative excursion between consecutive `Voc` samples,
/// mapped to a hold period
///
/// ```text
/// period = clamp(base · ε₀ / (ε₀ + volatility), min_period, base)
/// ```
///
/// so a perfectly steady scene (`volatility = 0`) reproduces the fixed
/// 69 s schedule *exactly* — bit-identical decisions, because
/// `base · ε₀/ε₀ = base · 1.0 = base` in IEEE arithmetic — while a
/// scene whose samples move by the sensitivity `ε₀` per period already
/// halves it.
#[derive(Debug, Clone)]
pub struct VariableHoldFocv {
    k: f64,
    base_period: Seconds,
    min_period: Seconds,
    pulse_width: Seconds,
    overhead: Watts,
    sensitivity: f64,
    alpha: f64,
    volatility: f64,
    /// The schedule, whose period is the current (adapted) one.
    hold: SampleHold<Volts>,
}

impl VariableHoldFocv {
    /// Creates a tracker with explicit parameters.
    ///
    /// `sensitivity` is the relative per-sample `Voc` excursion ε₀ at
    /// which the period halves; `alpha` is the EWMA gain of the
    /// volatility estimator.
    ///
    /// # Errors
    ///
    /// Rejects `k` outside `(0, 1)`, a non-positive or inverted period
    /// band, a pulse width not shorter than the minimum period,
    /// non-positive `sensitivity`, `alpha` outside `(0, 1]`, or negative
    /// overhead.
    pub fn new(
        k: f64,
        base_period: Seconds,
        min_period: Seconds,
        pulse_width: Seconds,
        overhead: Watts,
        sensitivity: f64,
        alpha: f64,
    ) -> Result<Self, Error> {
        check_fraction("k", k)?;
        let (min, base) = (min_period.value(), base_period.value());
        ensure(min > 0.0 && base >= min, "period_band", min)?;
        let pulse = pulse_width.value();
        ensure(pulse > 0.0 && pulse < min, "pulse_width", pulse)?;
        check_positive("sensitivity", sensitivity)?;
        ensure(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha",
            alpha,
        )?;
        check_overhead(overhead)?;
        Ok(Self {
            k,
            base_period,
            min_period,
            pulse_width,
            overhead,
            sensitivity,
            alpha,
            volatility: 0.0,
            hold: SampleHold::new(base_period),
        })
    }

    /// Eq.-2-tuned parameters on the prototype's operating point:
    /// `k = 0.596`, a 69 s base period shortened down to 15 s, the 39 ms
    /// PULSE, the paper's 8 µA × 3.3 V metrology overhead, ε₀ = 2 %
    /// relative excursion per sample, EWMA gain 0.5.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors [`VariableHoldFocv::new`].
    pub fn eq2_tuned() -> Result<Self, Error> {
        Self::eq2_tuned_on(FocvSampleHold::paper_prototype()?)
    }

    /// [`VariableHoldFocv::eq2_tuned`] on a given FOCV chain: its `k`,
    /// hold period (as the base period) and PULSE width, and its
    /// schedule as it stands, power-up phase included. The 15 s floor,
    /// ε₀, the EWMA gain and the 8 µA × 3.3 V overhead stay the tuned
    /// ones. Fleets build each node's tracker this way from the node's
    /// drawn hardware.
    ///
    /// # Errors
    ///
    /// Mirrors [`VariableHoldFocv::new`]: rejects a chain whose hold
    /// period is below the 15 s floor.
    pub fn eq2_tuned_on(chain: FocvSampleHold) -> Result<Self, Error> {
        let tuned = Self::new(
            chain.k(),
            chain.sample_period(),
            Seconds::new(15.0),
            chain.pulse_width(),
            Volts::new(3.3) * eh_units::Amps::from_micro(8.0),
            0.02,
            0.5,
        )?;
        Ok(Self {
            hold: chain.hold,
            ..tuned
        })
    }

    /// The trimmed FOCV factor.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The current (adapted) hold period.
    pub fn current_period(&self) -> Seconds {
        self.hold.period()
    }

    /// The base (maximum) hold period.
    pub fn base_period(&self) -> Seconds {
        self.base_period
    }

    /// The measurement pulse width.
    pub fn pulse_width(&self) -> Seconds {
        self.pulse_width
    }

    /// The EWMA estimate of relative per-sample `Voc` excursion.
    pub fn volatility(&self) -> f64 {
        self.volatility
    }

    /// The currently held open-circuit voltage, if a sample exists.
    pub fn held_voc(&self) -> Option<Volts> {
        self.hold.held()
    }
}

impl MpptController for VariableHoldFocv {
    fn name(&self) -> &str {
        "FOCV variable hold (Eq. 2)"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        // The sample a capture replaces: the excursion is measured from it.
        let previous = self.hold.held();
        if self.hold.advance(obs.voc_measurement, dt) {
            if let Some(voc) = obs.voc_measurement {
                if let Some(prev) = previous {
                    if prev.value() > 0.0 {
                        let excursion = (voc - prev).value().abs() / prev.value();
                        self.volatility =
                            (1.0 - self.alpha) * self.volatility + self.alpha * excursion;
                    }
                }
                // Eq. 2 adaptation: the staleness error grows with the
                // within-period excursion, so shrink the period as the
                // observed excursion grows. volatility == 0 maps to
                // exactly the base period.
                let shrink = self.sensitivity / (self.sensitivity + self.volatility);
                let period = (self.base_period.value() * shrink)
                    .clamp(self.min_period.value(), self.base_period.value());
                self.hold.set_period(Seconds::new(period));
            }
        }
        self.hold.focv_command(self.k)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn compute_cost(&self) -> ComputeCost {
        // One EWMA update plus one scaled clamp, and only at capture
        // steps — the cheapest digital tracker in the set.
        ComputeCost::mcu_class(12)
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
        let mk = |k, base: f64, min: f64, pulse: f64, sens, alpha| {
            VariableHoldFocv::new(
                k,
                Seconds::new(base),
                Seconds::new(min),
                Seconds::new(pulse),
                Watts::ZERO,
                sens,
                alpha,
            )
        };
        assert!(mk(1.2, 69.0, 15.0, 0.039, 0.02, 0.5).is_err());
        assert!(
            mk(0.6, 10.0, 15.0, 0.039, 0.02, 0.5).is_err(),
            "inverted band"
        );
        assert!(
            mk(0.6, 69.0, 15.0, 20.0, 0.02, 0.5).is_err(),
            "pulse >= min"
        );
        assert!(mk(0.6, 69.0, 15.0, 0.039, 0.0, 0.5).is_err());
        assert!(mk(0.6, 69.0, 15.0, 0.039, 0.02, 1.5).is_err());
        assert!(mk(0.6, 69.0, 15.0, 0.039, 0.02, 0.5).is_ok());
    }

    #[test]
    fn volatile_samples_shorten_the_period() {
        let mut t = VariableHoldFocv::eq2_tuned().unwrap();
        // Power-up PULSE, then alternating Voc samples 10 % apart.
        t.step(&obs(None), Seconds::new(1.0));
        let mut voc = 5.0;
        for _ in 0..6 {
            t.step(&obs(Some(voc)), Seconds::new(1.0));
            // Walk past the (possibly shortened) period to the next PULSE.
            while t.step(&obs(None), Seconds::new(1.0)).is_connect() {}
            voc = if voc > 4.9 { 4.5 } else { 5.0 };
        }
        assert!(t.volatility() > 0.01, "volatility {}", t.volatility());
        assert!(
            t.current_period() < t.base_period(),
            "period must shorten, still {}",
            t.current_period()
        );
    }

    #[test]
    fn calm_samples_recover_the_base_period() {
        let mut t = VariableHoldFocv::eq2_tuned().unwrap();
        t.step(&obs(None), Seconds::new(1.0));
        // Agitate, then hold steady.
        for voc in [5.0, 4.0, 5.0, 4.0] {
            t.step(&obs(Some(voc)), Seconds::new(1.0));
            while t.step(&obs(None), Seconds::new(1.0)).is_connect() {}
        }
        let agitated = t.current_period();
        assert!(agitated < t.base_period());
        for _ in 0..24 {
            t.step(&obs(Some(4.0)), Seconds::new(1.0));
            while t.step(&obs(None), Seconds::new(1.0)).is_connect() {}
        }
        assert!(
            t.current_period() > agitated,
            "period must relax back toward base"
        );
    }

    #[test]
    fn zero_volatility_degenerates_to_the_fixed_tracker_bitwise() {
        // Constant Voc keeps the volatility estimator at exactly 0.0, so
        // every decision — including the step *boundaries* — must match
        // the fixed 69 s tracker bit for bit.
        let mut adaptive = VariableHoldFocv::eq2_tuned().unwrap();
        let mut fixed = FocvSampleHold::paper_prototype().unwrap();
        let dts = [1.0, 0.039, 13.0, 68.0, 0.961, 69.0, 5.0, 600.0, 33.3];
        let mut measuring = false;
        for (i, dt) in dts.iter().cycle().take(200).enumerate() {
            let o = obs(measuring.then_some(5.44));
            let a = adaptive.step(&o, Seconds::new(*dt));
            let f = fixed.step(&o, Seconds::new(*dt));
            assert_eq!(
                a.target_voltage().map(|v| v.value().to_bits()),
                f.target_voltage().map(|v| v.value().to_bits()),
                "step {i}: {a:?} vs {f:?}"
            );
            measuring = !a.is_connect();
        }
        assert_eq!(adaptive.volatility(), 0.0);
        assert_eq!(
            adaptive.current_period().value().to_bits(),
            adaptive.base_period().value().to_bits()
        );
    }

    #[test]
    fn declares_its_costs() {
        let t = VariableHoldFocv::eq2_tuned().unwrap();
        assert!((t.overhead_power().as_micro() - 26.4).abs() < 0.1);
        assert!(!t.requires_light_sensor());
        assert!(!t.compute_cost().is_free());
        assert!(
            t.compute_cost().ops_per_decision < 60,
            "cheapest digital tracker"
        );
    }
}
