//! Adaptive-k FOCV: sample-and-hold with a slowly re-learned fraction.

use eh_units::{Error, Seconds, Volts, Watts};

use super::sample_hold::{check_pulse, SampleHold};
use super::shared::{check_overhead, ensure};
use super::FocvSampleHold;
use crate::compute::ComputeCost;
use crate::controller::{MpptController, Observation, TrackerCommand};

/// FOCV sample-and-hold whose fraction `k` is re-learned online.
///
/// The paper trims `k = 0.596` once, against one cell at one
/// temperature. Table I's premise — `Vmpp/Voc` is nearly constant — is
/// only *nearly* true: temperature drift and cell aging move the true
/// fraction by a few percent over a deployment, and a fixed trim leaks
/// that margin forever. This tracker keeps the analog sample-and-hold
/// chain intact and adds the smallest possible digital loop on top: a
/// dither hill-climb on `k` itself. Between PULSEs it accumulates the
/// mean extracted power; at each capture it compares that window with
/// the previous one, keeps the dither direction on improvement, flips
/// it otherwise, and steps `k` by a fixed increment inside a safe band.
/// One window per 69 s period makes the loop glacial — which is the
/// point, since the drift it chases is measured in weeks.
#[derive(Debug, Clone)]
pub struct AdaptiveKFocv {
    k: f64,
    k_min: f64,
    k_max: f64,
    k_step: f64,
    pulse_width: Seconds,
    overhead: Watts,
    direction: f64,
    window_energy: f64,
    window_time: f64,
    prev_window_power: Option<f64>,
    hold: SampleHold<Volts>,
}

impl AdaptiveKFocv {
    /// Creates a tracker starting at `k`, dithering by `k_step` inside
    /// `[k_min, k_max]`.
    ///
    /// # Errors
    ///
    /// Rejects a band outside `(0, 1)` or not containing `k`, a
    /// non-positive `k_step` wider than the band, non-positive periods,
    /// a pulse width not shorter than the sample period, or negative
    /// overhead.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        k: f64,
        k_min: f64,
        k_max: f64,
        k_step: f64,
        sample_period: Seconds,
        pulse_width: Seconds,
        overhead: Watts,
    ) -> Result<Self, Error> {
        ensure(
            k_min.is_finite() && k_max.is_finite() && 0.0 < k_min && k_min < k_max && k_max < 1.0,
            "k_band",
            k_min,
        )?;
        ensure(k.is_finite() && (k_min..=k_max).contains(&k), "k", k)?;
        ensure(
            k_step.is_finite() && k_step > 0.0 && k_step < k_max - k_min,
            "k_step",
            k_step,
        )?;
        check_pulse(sample_period, pulse_width)?;
        check_overhead(overhead)?;
        Ok(Self {
            k,
            k_min,
            k_max,
            k_step,
            pulse_width,
            overhead,
            direction: 1.0,
            window_energy: 0.0,
            window_time: 0.0,
            prev_window_power: None,
            hold: SampleHold::new(sample_period),
        })
    }

    /// The prototype's schedule with a learning trim: start at the
    /// paper's `k = 0.596`, dither by 0.004 inside `[0.50, 0.70]`, 69 s
    /// period, 39 ms PULSE. Overhead is the paper's 8 µA metrology plus
    /// ~1.5 µA for the sleeping trim MCU, at 3.3 V.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors [`AdaptiveKFocv::new`].
    pub fn paper_tuned() -> Result<Self, Error> {
        Self::paper_tuned_on(FocvSampleHold::paper_prototype()?)
    }

    /// [`AdaptiveKFocv::paper_tuned`] on a given FOCV chain: it starts
    /// from the chain's `k`, clamped into the `[0.50, 0.70]` band, and
    /// takes over the chain's hold period, PULSE width and schedule as
    /// it stands, power-up phase included. The band, the dither step and
    /// the 9.5 µA × 3.3 V overhead stay the tuned ones. Fleets build each
    /// node's tracker this way from the node's drawn hardware.
    ///
    /// # Errors
    ///
    /// Never fails for a valid chain; mirrors [`AdaptiveKFocv::new`].
    pub fn paper_tuned_on(chain: FocvSampleHold) -> Result<Self, Error> {
        let (k_min, k_max) = (0.50, 0.70);
        let tuned = Self::new(
            chain.k().clamp(k_min, k_max),
            k_min,
            k_max,
            0.004,
            chain.sample_period(),
            chain.pulse_width(),
            Volts::new(3.3) * eh_units::Amps::from_micro(9.5),
        )?;
        Ok(Self {
            hold: chain.hold,
            ..tuned
        })
    }

    /// The current (learned) FOCV fraction.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The measurement pulse width.
    pub fn pulse_width(&self) -> Seconds {
        self.pulse_width
    }

    /// The hold (sampling) period.
    pub fn sample_period(&self) -> Seconds {
        self.hold.period()
    }

    /// The currently held open-circuit voltage, if a sample exists.
    pub fn held_voc(&self) -> Option<Volts> {
        self.hold.held()
    }
}

impl MpptController for AdaptiveKFocv {
    fn name(&self) -> &str {
        "FOCV adaptive-k (drift trim)"
    }

    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand {
        if self.hold.advance(obs.voc_measurement, dt) {
            // Judge the harvest window that just closed: did the last k
            // move pay off in mean extracted power?
            if self.window_time > 0.0 {
                let mean_power = self.window_energy / self.window_time;
                if let Some(prev) = self.prev_window_power {
                    if mean_power <= prev {
                        self.direction = -self.direction;
                    }
                }
                self.prev_window_power = Some(mean_power);
                self.k = (self.k + self.k_step * self.direction).clamp(self.k_min, self.k_max);
                self.window_energy = 0.0;
                self.window_time = 0.0;
            }
        } else {
            self.window_energy += obs.pv_power.value() * dt.value();
            self.window_time += dt.value();
        }
        self.hold.focv_command(self.k)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn compute_cost(&self) -> ComputeCost {
        // One multiply-accumulate per step plus a compare-and-step at
        // capture boundaries.
        ComputeCost::mcu_class(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Lux;

    fn obs(voc: Option<f64>, power_uw: f64) -> Observation {
        Observation {
            pv_voltage: Volts::new(3.0),
            pv_power: Watts::from_micro(power_uw),
            voc_measurement: voc.map(Volts::new),
            ambient_lux: Some(Lux::new(1000.0)),
            ..Observation::at(Seconds::ZERO)
        }
    }

    #[test]
    fn validation() {
        let mk = |k, k_min, k_max, k_step| {
            AdaptiveKFocv::new(
                k,
                k_min,
                k_max,
                k_step,
                Seconds::new(69.0),
                Seconds::from_milli(39.0),
                Watts::ZERO,
            )
        };
        assert!(mk(0.6, 0.7, 0.5, 0.004).is_err(), "inverted band");
        assert!(mk(0.8, 0.5, 0.7, 0.004).is_err(), "k outside band");
        assert!(mk(0.6, 0.5, 0.7, 0.0).is_err(), "zero step");
        assert!(mk(0.6, 0.5, 0.7, 0.5).is_err(), "step wider than band");
        assert!(mk(0.6, 0.5, 0.7, 0.004).is_ok());
    }

    /// Runs one full hold cycle: capture (with `voc`), then harvest
    /// windows at `power(k)` until the next PULSE fires.
    fn cycle(t: &mut AdaptiveKFocv, voc: f64, power: impl Fn(f64) -> f64) {
        let mut o = obs(Some(voc), power(t.k()));
        while t.step(&o, Seconds::new(23.0)).is_connect() {
            o = obs(None, power(t.k()));
        }
    }

    #[test]
    fn learns_a_drifted_fraction() {
        // The cell's true MPP fraction has drifted to 0.55; extracted
        // power is a parabola in k peaking there. The trim loop must
        // walk k from 0.596 into the neighbourhood of the new optimum.
        let mut t = AdaptiveKFocv::paper_tuned().unwrap();
        t.step(&obs(None, 0.0), Seconds::new(1.0));
        let power = |k: f64| 100.0 - (k - 0.55).powi(2) * 4000.0;
        for _ in 0..120 {
            cycle(&mut t, 5.0, power);
        }
        assert!(
            (t.k() - 0.55).abs() < 0.02,
            "k should settle near 0.55, got {}",
            t.k()
        );
    }

    #[test]
    fn dither_stays_inside_the_safe_band() {
        let mut t = AdaptiveKFocv::paper_tuned().unwrap();
        t.step(&obs(None, 0.0), Seconds::new(1.0));
        // Monotonically rewarding larger k drives the dither to the rail.
        let power = |k: f64| 100.0 * k;
        for _ in 0..200 {
            cycle(&mut t, 5.0, power);
        }
        // The dither parks against the clamp (modulo one step of
        // oscillation) and never escapes the band.
        assert!(
            t.k() > 0.69 && t.k() <= 0.70,
            "clamped at k_max, got {}",
            t.k()
        );
    }

    #[test]
    fn holds_the_scaled_sample_between_pulses() {
        let mut t = AdaptiveKFocv::paper_tuned().unwrap();
        t.step(&obs(None, 0.0), Seconds::new(1.0));
        let c = t.step(&obs(Some(5.0), 100.0), Seconds::new(1.0));
        assert!(c.is_connect());
        assert!((c.target_voltage().expect("connected").value() - 5.0 * t.k()).abs() < 1e-12);
    }

    #[test]
    fn declares_its_costs() {
        let t = AdaptiveKFocv::paper_tuned().unwrap();
        assert!(t.overhead_power().as_micro() < 40.0, "still ULP class");
        assert!(!t.requires_light_sensor());
        assert!(!t.compute_cost().is_free());
    }
}
