//! The ideal tracker — an upper bound for comparisons.

use eh_pv::PvCell;
use eh_units::{Seconds, Volts, Watts};

use crate::controller::{MpptController, Observation, TrackerCommand};

/// An omniscient tracker that always commands the true MPP voltage with
/// zero overhead. Physically unrealisable; used to normalise every other
/// tracker's harvest ("efficiency vs oracle").
#[derive(Debug, Clone)]
pub struct Oracle {
    cell: PvCell,
}

impl Oracle {
    /// Creates an oracle for the given cell.
    pub fn new(cell: PvCell) -> Self {
        Self { cell }
    }
}

impl MpptController for Oracle {
    fn name(&self) -> &str {
        "oracle (ideal MPP)"
    }

    fn step(&mut self, obs: &Observation, _dt: Seconds) -> TrackerCommand {
        let lux = obs.ambient_lux.unwrap_or_default();
        match self.cell.mpp(lux) {
            Ok(mpp) if mpp.voltage.value() > 0.0 => TrackerCommand::connect_at(mpp.voltage),
            _ => TrackerCommand::connect_at(Volts::ZERO),
        }
    }

    fn overhead_power(&self) -> Watts {
        Watts::ZERO
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

    #[test]
    fn commands_true_mpp() {
        let cell = presets::sanyo_am1815();
        let mut oracle = Oracle::new(cell.clone());
        let obs = Observation {
            ambient_lux: Some(Lux::new(1000.0)),
            ..Observation::at(Seconds::ZERO)
        };
        let c = oracle.step(&obs, Seconds::new(1.0));
        let mpp = cell.mpp(Lux::new(1000.0)).unwrap();
        assert!(
            (c.target_voltage().expect("connected").value() - mpp.voltage.value()).abs() < 1e-9
        );
        assert_eq!(oracle.overhead_power(), Watts::ZERO);
    }

    #[test]
    fn dark_commands_zero() {
        let mut oracle = Oracle::new(presets::sanyo_am1815());
        let obs = Observation {
            ambient_lux: Some(Lux::ZERO),
            ..Observation::at(Seconds::ZERO)
        };
        let c = oracle.step(&obs, Seconds::new(1.0));
        assert_eq!(c.target_voltage(), Some(Volts::ZERO));
    }
}
