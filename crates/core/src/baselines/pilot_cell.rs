//! The pilot-cell baseline (Brunelli et al., DATE'08 \[5\]).

use eh_pv::PvCell;
use eh_units::{Seconds, Volts, Watts};

use super::shared::{check_fraction, check_overhead};
use crate::controller::{MpptController, Observation, TrackerCommand};
use crate::error::CoreError;

/// A pilot-cell FOCV tracker: a second, small PV cell is kept permanently
/// open-circuit and its voltage (scaled by `k`) steers the converter, so
/// the main module never has to be disconnected.
///
/// The cost is the paper's point: the pilot cell itself (area that could
/// have been harvesting) and an "off" system consumption around 300 µW
/// \[5\] — fine outdoors, fatal indoors.
#[derive(Debug, Clone)]
pub struct PilotCell {
    pilot: PvCell,
    k: f64,
    overhead: Watts,
}

impl PilotCell {
    /// Creates a tracker whose pilot is electrically identical to `pilot`
    /// (usually a clone of the main cell's model).
    ///
    /// # Errors
    ///
    /// Rejects `k` outside `(0, 1)` or negative overhead.
    pub fn new(pilot: PvCell, k: f64, overhead: Watts) -> Result<Self, CoreError> {
        check_fraction("k", k)?;
        check_overhead(overhead)?;
        Ok(Self { pilot, k, overhead })
    }

    /// The literature configuration: same cell chemistry as the main
    /// module, `k = 0.596`, ~300 µW overhead \[5\].
    ///
    /// # Errors
    ///
    /// Never fails for valid presets; mirrors [`PilotCell::new`].
    pub fn literature_default(pilot: PvCell) -> Result<Self, CoreError> {
        Self::new(pilot, 0.596, Watts::from_micro(300.0))
    }
}

impl MpptController for PilotCell {
    fn name(&self) -> &str {
        "pilot cell [5]"
    }

    fn step(&mut self, obs: &Observation, _dt: Seconds) -> TrackerCommand {
        // The pilot cell sees the same light as the main module; its
        // open-circuit voltage is continuously available.
        let lux = obs.ambient_lux.unwrap_or_default();
        let voc = self.pilot.open_circuit_voltage(lux).unwrap_or(Volts::ZERO);
        if voc.value() <= 0.0 {
            // A dark pilot has nothing to steer toward: the converter
            // idles with the module still connected. The technique never
            // disconnects the main module, so there is nothing to measure.
            return TrackerCommand::connect_at(Volts::ZERO);
        }
        TrackerCommand::connect_at(voc * self.k)
    }

    fn overhead_power(&self) -> Watts {
        self.overhead
    }

    fn can_cold_start(&self) -> bool {
        true
    }

    fn requires_light_sensor(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_pv::presets;
    use eh_units::Lux;

    fn obs(lux: f64) -> Observation {
        Observation {
            pv_voltage: Volts::new(3.0),
            ambient_lux: Some(Lux::new(lux)),
            ..Observation::at(Seconds::ZERO)
        }
    }

    #[test]
    fn validation() {
        assert!(PilotCell::new(presets::sanyo_am1815(), 1.5, Watts::ZERO).is_err());
        assert!(PilotCell::new(presets::sanyo_am1815(), 0.6, Watts::new(-1.0)).is_err());
    }

    #[test]
    fn tracks_continuously_without_disconnecting() {
        let mut t = PilotCell::literature_default(presets::sanyo_am1815()).unwrap();
        let c = t.step(&obs(1000.0), Seconds::new(1.0));
        assert!(
            c.is_connect(),
            "pilot cell never interrupts the main module"
        );
        // Target ≈ k·Voc(1000 lx) ≈ 0.596 · 5.44 ≈ 3.24 V.
        assert!((c.target_voltage().expect("connected").value() - 0.596 * 5.44).abs() < 0.1);
    }

    #[test]
    fn follows_light_changes_immediately() {
        let mut t = PilotCell::literature_default(presets::sanyo_am1815()).unwrap();
        let dim = t
            .step(&obs(200.0), Seconds::new(1.0))
            .target_voltage()
            .expect("connected");
        let bright = t
            .step(&obs(5000.0), Seconds::new(1.0))
            .target_voltage()
            .expect("connected");
        assert!(bright > dim);
    }

    #[test]
    fn dark_pilot_idles_at_zero_volts() {
        // A dark pilot idles the converter without disconnecting the
        // main module: one engine step per control step, no measurement.
        let mut t = PilotCell::literature_default(presets::sanyo_am1815()).unwrap();
        let c = t.step(&obs(0.0), Seconds::new(1.0));
        assert_eq!(c, TrackerCommand::connect_at(Volts::ZERO));
    }

    #[test]
    fn declares_its_costs() {
        let t = PilotCell::literature_default(presets::sanyo_am1815()).unwrap();
        assert!((t.overhead_power().as_micro() - 300.0).abs() < 1e-9);
        assert!(t.requires_light_sensor());
        // Analog steering network: no per-decision arithmetic to charge.
        assert!(t.compute_cost().is_free());
    }

    #[test]
    fn missing_light_sensor_data_degrades_to_idle() {
        // Audit pin: with no ambient-lux sample at all (engine quirk or
        // sensor fault) the `unwrap_or` chain must bottom out in a
        // harmless idle at 0 V, never a divide or a bogus target.
        let mut t = PilotCell::literature_default(presets::sanyo_am1815()).unwrap();
        let c = t.step(&Observation::at(Seconds::ZERO), Seconds::new(1.0));
        assert_eq!(c, TrackerCommand::connect_at(Volts::ZERO));
    }
}
