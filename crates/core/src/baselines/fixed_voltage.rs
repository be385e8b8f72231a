//! The fixed-voltage baseline (Weddell'08 \[8\]).

use eh_units::{Seconds, Volts, Watts};

use super::shared::{check_overhead, check_positive};
use crate::controller::{MpptController, Observation, TrackerCommand};
use crate::error::CoreError;

/// The fixed-voltage indoor harvester of the paper's ref. \[8\]: the PV
/// module is operated "at a fixed voltage which is assumed to be
/// sufficiently close to the MPP voltage". A voltage reference IC sets
/// the operating point; §IV-B notes the proposed sample-and-hold draws
/// *less* than that reference IC, so the default overhead here is a
/// 12 µA reference at 3.3 V.
///
/// The technique is perfect as long as the lighting stays the kind it
/// was tuned for — and loses badly when a mobile sensor walks outdoors,
/// which is exactly the gap the paper's technique closes.
#[derive(Debug, Clone)]
pub struct FixedVoltage {
    reference: Volts,
    overhead: Watts,
}

impl FixedVoltage {
    /// Creates a tracker pinned at `reference`.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive reference or negative overhead.
    pub fn new(reference: Volts, overhead: Watts) -> Result<Self, CoreError> {
        check_positive("reference", reference.value())?;
        check_overhead(overhead)?;
        Ok(Self {
            reference,
            overhead,
        })
    }

    /// Tuned for the AM-1815 indoors: pinned at 3.0 V (the datasheet
    /// operating voltage), 12 µA reference IC at 3.3 V.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`FixedVoltage::new`].
    pub fn indoor_tuned() -> Result<Self, CoreError> {
        Self::new(
            Volts::new(3.0),
            Volts::new(3.3) * eh_units::Amps::from_micro(12.0),
        )
    }

    /// The pinned reference voltage.
    pub fn reference(&self) -> Volts {
        self.reference
    }
}

impl MpptController for FixedVoltage {
    fn name(&self) -> &str {
        "fixed voltage [8]"
    }

    fn step(&mut self, _obs: &Observation, _dt: Seconds) -> TrackerCommand {
        TrackerCommand::connect_at(self.reference)
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

    #[test]
    fn validation() {
        assert!(FixedVoltage::new(Volts::ZERO, Watts::ZERO).is_err());
        assert!(FixedVoltage::new(Volts::new(3.0), Watts::new(-1.0)).is_err());
    }

    #[test]
    fn never_moves() {
        let mut t = FixedVoltage::indoor_tuned().unwrap();
        let obs = Observation {
            pv_voltage: Volts::new(1.0),
            ambient_lux: Some(Lux::new(50_000.0)),
            ..Observation::at(Seconds::ZERO)
        };
        for _ in 0..10 {
            let c = t.step(&obs, Seconds::new(1.0));
            assert!(c.is_connect());
            assert_eq!(c.target_voltage(), Some(Volts::new(3.0)));
        }
    }

    #[test]
    fn overhead_exceeds_proposed_technique() {
        // §IV-B: the S&H (8 µA) draws less than the reference IC here.
        let t = FixedVoltage::indoor_tuned().unwrap();
        assert!(t.overhead_power().as_micro() > 26.4);
        assert!(t.can_cold_start());
    }
}
