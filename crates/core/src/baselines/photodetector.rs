//! The photodetector baseline (AmbiMax, Park & Chou \[6\]).

use eh_units::{Error, Lux, Seconds, Volts, Watts};

use super::shared::{check_fraction, check_overhead, check_positive};
use crate::controller::{MpptController, Observation, TrackerCommand};

/// An AmbiMax-style tracker: a photodiode measures ambient light and an
/// analog law maps it to the expected MPP voltage. The sensor chain
/// consumes ~500 µA \[6\] — ultra cheap outdoors, ruinous indoors — and
/// the lux→Vmpp law is a calibration that carries systematic error.
#[derive(Debug, Clone)]
pub struct Photodetector {
    /// Voc model intercept (volts at 1 lux).
    intercept: Volts,
    /// Voc model slope per ln(lux).
    slope: Volts,
    k: f64,
    /// Multiplicative calibration error of the sensor chain.
    calibration_gain: f64,
    overhead: Watts,
}

impl Photodetector {
    /// Creates a tracker with an explicit `Voc ≈ intercept + slope·ln(lux)`
    /// calibration, FOCV factor `k`, a multiplicative calibration error
    /// and overhead power.
    ///
    /// # Errors
    ///
    /// Rejects `k` outside `(0, 1)`, non-positive slope or calibration
    /// gain, or negative overhead.
    pub fn new(
        intercept: Volts,
        slope: Volts,
        k: f64,
        calibration_gain: f64,
        overhead: Watts,
    ) -> Result<Self, Error> {
        check_fraction("k", k)?;
        check_positive("slope", slope.value())?;
        check_positive("calibration_gain", calibration_gain)?;
        check_overhead(overhead)?;
        Ok(Self {
            intercept,
            slope,
            k,
            calibration_gain,
            overhead,
        })
    }

    /// The literature configuration, calibrated against the AM-1815's
    /// log-law (`Voc ≈ 3.76 + 0.24·ln(lux)`), with a 3 % systematic
    /// calibration error and the 500 µA × 3.3 V overhead of \[6\].
    ///
    /// # Errors
    ///
    /// Never fails for these constants; mirrors [`Photodetector::new`].
    pub fn literature_default() -> Result<Self, Error> {
        Self::new(
            Volts::new(3.76),
            Volts::new(0.24),
            0.596,
            1.03,
            Volts::new(3.3) * eh_units::Amps::from_micro(500.0),
        )
    }

    /// The estimated open-circuit voltage for a lux reading.
    pub fn estimate_voc(&self, lux: Lux) -> Volts {
        if lux.value() <= 1.0 {
            return Volts::ZERO;
        }
        (self.intercept + self.slope * lux.value().ln()) * self.calibration_gain
    }
}

impl MpptController for Photodetector {
    fn name(&self) -> &str {
        "photodetector (AmbiMax) [6]"
    }

    fn step(&mut self, obs: &Observation, _dt: Seconds) -> TrackerCommand {
        let lux = obs.ambient_lux.unwrap_or_default();
        let voc = self.estimate_voc(lux);
        if voc.value() <= 0.0 {
            // Too dark for the photodiode law: idle the converter with
            // the module connected. The technique never disconnects the
            // main module, so there is nothing to measure.
            return TrackerCommand::connect_at(Volts::ZERO);
        }
        TrackerCommand::connect_at(voc * self.k)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn requires_light_sensor(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_pv::presets;

    fn obs(lux: f64) -> Observation {
        Observation {
            pv_voltage: Volts::new(3.0),
            ambient_lux: Some(Lux::new(lux)),
            ..Observation::at(Seconds::ZERO)
        }
    }

    #[test]
    fn validation() {
        assert!(Photodetector::new(Volts::new(3.0), Volts::ZERO, 0.6, 1.0, Watts::ZERO).is_err());
        assert!(
            Photodetector::new(Volts::new(3.0), Volts::new(0.3), 0.6, 0.0, Watts::ZERO).is_err()
        );
    }

    #[test]
    fn estimate_tracks_true_voc_within_calibration_error() {
        let t = Photodetector::literature_default().unwrap();
        let cell = presets::sanyo_am1815();
        for lux in [200.0, 1000.0, 5000.0] {
            let est = t.estimate_voc(Lux::new(lux)).value();
            let truth = cell.open_circuit_voltage(Lux::new(lux)).unwrap().value();
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.08, "estimate off by {rel:.3} at {lux} lx");
        }
    }

    #[test]
    fn commands_follow_estimate() {
        let mut t = Photodetector::literature_default().unwrap();
        let c = t.step(&obs(1000.0), Seconds::new(1.0));
        assert!(c.is_connect());
        let expected = t.estimate_voc(Lux::new(1000.0)).value() * 0.596;
        assert!((c.target_voltage().expect("connected").value() - expected).abs() < 1e-9);
    }

    #[test]
    fn dark_idles_and_overhead_is_heavy() {
        let mut t = Photodetector::literature_default().unwrap();
        assert_eq!(
            t.step(&obs(0.5), Seconds::new(1.0)),
            TrackerCommand::connect_at(Volts::ZERO)
        );
        assert!((t.overhead_power().as_milli() - 1.65).abs() < 0.01);
        assert!(t.requires_light_sensor());
    }
}
