//! The behavioural tracker interface used for day-scale comparisons.
//!
//! Every MPPT technique the paper discusses reduces, at behavioural
//! level, to a policy that decides each step (a) whether the PV module
//! stays connected to the converter and (b) what voltage the converter
//! should hold it at — paid for by a technique-specific quiescent
//! overhead. The closed-loop engine in `eh-node` drives implementations
//! of [`MpptController`] against the same cell, converter and light
//! trace, which is exactly the comparison the paper's §I and §IV-B make
//! in prose.

use eh_units::{Amps, Lux, Seconds, Volts, Watts};

use crate::compute::ComputeCost;

/// What a tracker can observe at the start of a control step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Simulation time.
    pub time: Seconds,
    /// The PV operating voltage applied during the previous step.
    pub pv_voltage: Volts,
    /// The PV current drawn during the previous step (what a
    /// sense resistor in the power path measures).
    pub pv_current: Amps,
    /// The PV power extracted during the previous step (what a
    /// hill-climbing tracker's sense resistor measures).
    pub pv_power: Watts,
    /// The open-circuit voltage measured during the previous step —
    /// present only if the tracker disconnected the module then.
    pub voc_measurement: Option<Volts>,
    /// The short-circuit current measured during the previous step —
    /// present only if the tracker shorted the module then (fractional-Isc
    /// trackers).
    pub isc_measurement: Option<Amps>,
    /// Ambient illuminance — populated by the engine only for trackers
    /// that declare [`MpptController::requires_light_sensor`] (a pilot
    /// cell or photodiode in hardware terms).
    pub ambient_lux: Option<Lux>,
}

impl Observation {
    /// A blank observation at a given time (nothing measured yet).
    pub fn at(time: Seconds) -> Self {
        Self {
            time,
            pv_voltage: Volts::ZERO,
            pv_current: Amps::ZERO,
            pv_power: Watts::ZERO,
            voc_measurement: None,
            isc_measurement: None,
            ambient_lux: None,
        }
    }
}

/// A tracker's decision for the coming step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackerCommand {
    /// Hand the module to the converter, regulated at the given voltage.
    Connect(Volts),
    /// Disconnect the module to measure its open-circuit voltage
    /// (the paper's PULSE).
    MeasureVoc,
    /// Short the module to measure its short-circuit current
    /// (fractional-Isc trackers).
    MeasureIsc,
}

impl TrackerCommand {
    /// A connected command at the given target.
    pub fn connect_at(target_voltage: Volts) -> Self {
        Self::Connect(target_voltage)
    }

    /// A disconnect-and-measure-Voc command.
    pub fn measure() -> Self {
        Self::MeasureVoc
    }

    /// Whether the module stays connected to the converter.
    pub fn is_connect(&self) -> bool {
        matches!(self, Self::Connect(_))
    }

    /// The regulation target, if connected.
    pub fn target_voltage(&self) -> Option<Volts> {
        match self {
            Self::Connect(v) => Some(*v),
            _ => None,
        }
    }
}

/// A maximum-power-point-tracking policy plus its energy cost.
pub trait MpptController {
    /// Human-readable technique name (used in reports).
    fn name(&self) -> &str;

    /// Decides the next step's command.
    fn step(&mut self, obs: &Observation, dt: Seconds) -> TrackerCommand;

    /// The tracker's own quiescent power draw (the quantity the whole
    /// paper is about minimising).
    ///
    /// The value is constant for the tracker's lifetime: it describes
    /// the hardware, not the tracker's state, so no
    /// [`MpptController::step`] changes it. The closed-loop engine in
    /// `eh-node` relies on this and reads it once per run.
    fn overhead_power(&self) -> Watts;

    /// Whether the technique needs an ambient light sensor (pilot cell or
    /// photodiode). The engine only populates
    /// [`Observation::ambient_lux`] for trackers that return `true`.
    fn requires_light_sensor(&self) -> bool {
        false
    }

    /// The digital cost of one control decision (ops per decision ×
    /// energy per op), charged by the closed-loop engines on every
    /// [`MpptController::step`] call, separately from the quiescent
    /// [`MpptController::overhead_power`]. Analog implementations
    /// default to [`ComputeCost::ZERO`].
    fn compute_cost(&self) -> ComputeCost {
        ComputeCost::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_constructors() {
        let c = TrackerCommand::connect_at(Volts::new(3.0));
        assert!(c.is_connect());
        assert_eq!(c.target_voltage(), Some(Volts::new(3.0)));
        let m = TrackerCommand::measure();
        assert!(!m.is_connect());
        assert_eq!(m.target_voltage(), None);
        assert_eq!(m, TrackerCommand::MeasureVoc);
        assert!(!TrackerCommand::MeasureIsc.is_connect());
    }

    #[test]
    fn blank_observation() {
        let o = Observation::at(Seconds::new(5.0));
        assert_eq!(o.time, Seconds::new(5.0));
        assert!(o.voc_measurement.is_none());
        assert!(o.isc_measurement.is_none());
        assert!(o.ambient_lux.is_none());
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_c: &mut dyn MpptController) {}
    }
}
