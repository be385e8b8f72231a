//! Replaying one seeded population against the state of the art.
//!
//! The paper's Table compares trackers on a single prototype; a fleet
//! asks the sharper question — how does each technique behave across a
//! *population* of toleranced, differently lit nodes? Because the
//! population is a pure function of the spec, every tracker sees the
//! same N nodes: same placements, same optics, same astable jitter
//! (where the tracker has an astable), same light.

use eh_core::baselines::{
    AdaptiveKFocv, FixedVoltage, FractionalIsc, GradientDescentMppt, IncrementalConductance,
    Oracle, PerturbObserve, Photodetector, PilotCell, VariableHoldFocv,
};
use eh_core::MpptController;
use eh_pv::PvCell;
use eh_units::Error;

use crate::population::NodeSpec;
use crate::report::FleetReport;
use crate::run::FleetRunner;
use crate::spec::FleetSpec;

/// Every tracker family the workspace models, as fleet-runnable kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TrackerKind {
    /// The paper's FOCV sample-and-hold, jittered per node.
    Focv,
    /// FOCV with an Eq.-2-adaptive hold period.
    VariableHoldFocv,
    /// FOCV with a drift-learning fraction k.
    AdaptiveKFocv,
    /// Fixed reference voltage (Weddell'08).
    FixedVoltage,
    /// Perturb & observe hill climber.
    PerturbObserve,
    /// Gradient descent with adaptive step size.
    GradientDescent,
    /// Incremental conductance.
    IncrementalConductance,
    /// Fractional short-circuit current.
    FractionalIsc,
    /// Pilot-cell FOCV (Brunelli'08).
    PilotCell,
    /// Photodetector-steered (AmbiMax).
    Photodetector,
    /// The zero-overhead MPP oracle (upper bound).
    Oracle,
}

impl TrackerKind {
    /// Every kind, in comparison-table order (oracle last as the
    /// reference bound).
    pub const ALL: [TrackerKind; 11] = [
        TrackerKind::Focv,
        TrackerKind::VariableHoldFocv,
        TrackerKind::AdaptiveKFocv,
        TrackerKind::FixedVoltage,
        TrackerKind::PerturbObserve,
        TrackerKind::GradientDescent,
        TrackerKind::IncrementalConductance,
        TrackerKind::FractionalIsc,
        TrackerKind::PilotCell,
        TrackerKind::Photodetector,
        TrackerKind::Oracle,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            TrackerKind::Focv => "focv",
            TrackerKind::VariableHoldFocv => "focv-variable-hold",
            TrackerKind::AdaptiveKFocv => "focv-adaptive-k",
            TrackerKind::FixedVoltage => "fixed-voltage",
            TrackerKind::PerturbObserve => "perturb-observe",
            TrackerKind::GradientDescent => "gradient-descent",
            TrackerKind::IncrementalConductance => "incremental-conductance",
            TrackerKind::FractionalIsc => "fractional-isc",
            TrackerKind::PilotCell => "pilot-cell",
            TrackerKind::Photodetector => "photodetector",
            TrackerKind::Oracle => "oracle",
        }
    }

    /// Parses a CLI/env/request spelling of a tracker kind: the
    /// [`TrackerKind::label`] with `-` and `_` interchangeable, plus a
    /// few common aliases (`p&o`, `incond`, `mpp`).
    pub fn parse(s: &str) -> Option<TrackerKind> {
        let normalized = s.trim().to_ascii_lowercase().replace('_', "-");
        match normalized.as_str() {
            "focv" | "sample-hold" => Some(TrackerKind::Focv),
            "focv-variable-hold" | "variable-hold" => Some(TrackerKind::VariableHoldFocv),
            "focv-adaptive-k" | "adaptive-k" => Some(TrackerKind::AdaptiveKFocv),
            "fixed-voltage" => Some(TrackerKind::FixedVoltage),
            "perturb-observe" | "p&o" | "po" => Some(TrackerKind::PerturbObserve),
            "gradient-descent" => Some(TrackerKind::GradientDescent),
            "incremental-conductance" | "incond" => Some(TrackerKind::IncrementalConductance),
            "fractional-isc" => Some(TrackerKind::FractionalIsc),
            "pilot-cell" => Some(TrackerKind::PilotCell),
            "photodetector" => Some(TrackerKind::Photodetector),
            "oracle" | "mpp" => Some(TrackerKind::Oracle),
            _ => None,
        }
    }

    /// Builds the tracker instance for one node. The three FOCV kinds
    /// run on the node's drawn divider, astable timing and power-up
    /// phase, each adding its own policy and overhead; the other kinds
    /// have no divider or astable, so they take their literature
    /// constants. Every kind sees the node's perturbed light and
    /// placement temperature through `cell`.
    ///
    /// # Errors
    ///
    /// Propagates tracker parameter validation.
    pub(crate) fn build(
        self,
        node: &NodeSpec,
        cell: &PvCell,
    ) -> Result<Box<dyn MpptController>, Error> {
        Ok(match self {
            TrackerKind::Focv => Box::new(node.tracker()?),
            TrackerKind::VariableHoldFocv => {
                Box::new(VariableHoldFocv::eq2_tuned_on(node.tracker()?)?)
            }
            TrackerKind::AdaptiveKFocv => Box::new(AdaptiveKFocv::paper_tuned_on(node.tracker()?)?),
            TrackerKind::GradientDescent => Box::new(GradientDescentMppt::literature_default()?),
            TrackerKind::FixedVoltage => Box::new(FixedVoltage::indoor_tuned()?),
            TrackerKind::PerturbObserve => Box::new(PerturbObserve::literature_default()?),
            TrackerKind::IncrementalConductance => {
                Box::new(IncrementalConductance::literature_default()?)
            }
            TrackerKind::FractionalIsc => Box::new(FractionalIsc::literature_default()?),
            TrackerKind::PilotCell => Box::new(PilotCell::literature_default(cell.clone())?),
            TrackerKind::Photodetector => Box::new(Photodetector::literature_default()?),
            TrackerKind::Oracle => Box::new(Oracle::new(cell.clone())),
        })
    }
}

/// Replays the same seeded population against every [`TrackerKind`],
/// returning one merged [`FleetReport`] per kind in
/// [`TrackerKind::ALL`] order.
///
/// # Errors
///
/// Propagates the first failing fleet run.
pub fn compare_trackers_over_fleet(
    spec: &FleetSpec,
    runner: &FleetRunner,
) -> Result<Vec<(TrackerKind, FleetReport)>, Error> {
    compare_trackers_over_fleet_with(spec, runner, crate::Engine::PerNode)
}

/// [`compare_trackers_over_fleet`] under an explicit [`crate::Engine`]
/// label (both labels run the one node stepper). The shared fleet
/// inputs (population, traces, warmed surfaces) are prepared once and
/// reused across all tracker kinds.
///
/// # Errors
///
/// Propagates the first failing fleet run.
pub fn compare_trackers_over_fleet_with(
    spec: &FleetSpec,
    runner: &FleetRunner,
    engine: crate::Engine,
) -> Result<Vec<(TrackerKind, FleetReport)>, Error> {
    let ctx = crate::FleetContext::prepare(spec)?;
    TrackerKind::ALL
        .iter()
        .map(|&kind| Ok((kind, runner.run_engine_prepared(&ctx, kind, engine)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Tolerances;
    use eh_core::Observation;
    use eh_units::{Seconds, Volts};

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            TrackerKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), TrackerKind::ALL.len());
    }

    #[test]
    fn every_label_round_trips_through_parse() {
        for kind in TrackerKind::ALL {
            assert_eq!(TrackerKind::parse(kind.label()), Some(kind));
            assert_eq!(
                TrackerKind::parse(&kind.label().to_ascii_uppercase().replace('-', "_")),
                Some(kind),
                "case/underscore spelling of {} must parse",
                kind.label()
            );
        }
        assert_eq!(TrackerKind::parse("warp-drive"), None);
        assert_eq!(TrackerKind::parse(""), None);
    }

    #[test]
    fn comparison_replays_the_same_population() {
        // A tiny, coarse fleet so the 11-way comparison stays fast.
        let mut spec = FleetSpec::mixed_indoor_outdoor(6, 99).unwrap();
        spec.trace_decimate = 1200;
        spec.dt = Seconds::new(1200.0);
        spec.tolerances = Tolerances::production_batch();
        let rows = compare_trackers_over_fleet(&spec, &FleetRunner::new(2)).unwrap();
        assert_eq!(rows.len(), TrackerKind::ALL.len());
        for (kind, report) in &rows {
            assert_eq!(report.nodes(), 6, "{} lost nodes", kind.label());
        }
        // Every kind runs a tracker of its own name.
        let names: std::collections::HashSet<_> = rows.iter().map(|(_, r)| &r.tracker).collect();
        assert_eq!(names.len(), TrackerKind::ALL.len());
        // Same population: placements line up across trackers.
        let placements = |r: &FleetReport| -> Vec<_> {
            r.outcomes.iter().map(|o| (o.id, o.placement)).collect()
        };
        let reference = placements(&rows[0].1);
        for (_, report) in &rows[1..] {
            assert_eq!(placements(report), reference);
        }
        // The oracle bounds everyone's median net energy.
        let median = |r: &FleetReport| {
            r.net_energy_percentiles()
                .expect("six-node fleets have percentiles")
                .p50
        };
        let oracle = median(&rows.last().unwrap().1);
        for (kind, report) in &rows {
            assert!(
                median(report) <= oracle + 1e-9,
                "{} beat the oracle",
                kind.label()
            );
        }
        // The analog kinds charge no compute energy; the digital kinds
        // must report it as a separate, nonzero column.
        for (kind, report) in &rows {
            let compute = report
                .compute_energy_percentiles()
                .expect("six-node fleets have percentiles")
                .p50;
            match kind {
                TrackerKind::Focv | TrackerKind::Oracle | TrackerKind::FixedVoltage => {
                    assert_eq!(compute, 0.0, "{} is analog", kind.label());
                }
                TrackerKind::PerturbObserve | TrackerKind::GradientDescent => {
                    assert!(compute > 0.0, "{} must charge compute", kind.label());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn focv_variants_run_on_the_nodes_drawn_hardware() {
        // A node whose astable powered up well into its hold period and
        // whose divider is off the prototype's trim.
        let node = FleetSpec::mixed_indoor_outdoor(40, 2011)
            .unwrap()
            .population()
            .unwrap()
            .into_iter()
            .find(|n| n.phase_offset > Seconds::new(20.0) && n.k != 0.596)
            .expect("a 40-node production batch has such a node");
        let cell = eh_pv::presets::sanyo_am1815();
        let first_pulse = |kind: TrackerKind| {
            let mut t = kind.build(&node, &cell).unwrap();
            let dark = Observation::at(Seconds::ZERO);
            let pulse = (1..200)
                .find(|_| !t.step(&dark, Seconds::new(1.0)).is_connect())
                .expect("a PULSE within 200 s");
            let lit = Observation {
                voc_measurement: Some(Volts::new(5.0)),
                ..dark
            };
            (pulse, t.step(&lit, Seconds::new(1.0)).target_voltage())
        };
        let (focv_pulse, focv_target) = first_pulse(TrackerKind::Focv);
        assert!(focv_pulse > 20, "FOCV waits for its drawn phase");
        assert_eq!(focv_target, Some(Volts::new(5.0) * node.k));
        let (pulse, target) = first_pulse(TrackerKind::VariableHoldFocv);
        assert_eq!(pulse, focv_pulse, "variable hold takes the drawn phase");
        assert_eq!(target, focv_target, "variable hold holds the drawn k");
        let (pulse, _) = first_pulse(TrackerKind::AdaptiveKFocv);
        assert_eq!(pulse, focv_pulse, "adaptive-k takes the drawn phase");
    }

    #[test]
    fn zero_node_spec_errors_instead_of_panicking() {
        // Regression: an empty fleet used to reach a `.expect` deep in
        // the shard-merge path and panic the whole comparison; it must
        // surface as an error instead.
        let mut spec = FleetSpec::mixed_indoor_outdoor(6, 99).unwrap();
        spec.nodes = 0;
        for engine in crate::Engine::ALL {
            let err = compare_trackers_over_fleet_with(&spec, &FleetRunner::new(2), engine);
            assert!(err.is_err(), "{engine:?} must reject an empty fleet");
        }
    }
}
