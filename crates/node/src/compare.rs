//! Multi-tracker comparison — the paper's state-of-the-art table.

use eh_core::baselines::Oracle;
use eh_core::{HarvestSummary, MpptController};
use eh_env::TimeSeries;
use eh_pv::PvCell;
use eh_units::{Error, Seconds};

use crate::report::NodeReport;
use crate::sim::NodeSimulation;

/// One tracker's outcome on a shared scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerComparison {
    /// Tracker name.
    pub name: String,
    /// The full run report.
    pub report: NodeReport,
    /// Net-vs-oracle summary.
    pub summary: HarvestSummary,
}

/// Runs every tracker (plus an internal [`Oracle`] reference) over the
/// same cell and light trace with fresh ideal stores, and summarises each
/// against the oracle's gross harvest.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn compare_trackers(
    cell: &PvCell,
    trace: &TimeSeries,
    dt: Seconds,
    trackers: &mut [&mut dyn MpptController],
) -> Result<Vec<TrackerComparison>, Error> {
    let mut oracle = Oracle::new(cell.clone());
    let oracle_report = NodeSimulation::default_for(cell.clone())?.run(&mut oracle, trace, dt)?;
    let oracle_gross = oracle_report.gross_energy;

    let mut out = Vec::with_capacity(trackers.len() + 1);
    out.push(TrackerComparison {
        name: oracle_report.tracker.clone(),
        summary: HarvestSummary::new(
            oracle_report.gross_energy,
            oracle_report.overhead_energy,
            oracle_gross,
        ),
        report: oracle_report,
    });

    for tracker in trackers.iter_mut() {
        let report = NodeSimulation::default_for(cell.clone())?.run(*tracker, trace, dt)?;
        out.push(TrackerComparison {
            name: report.tracker.clone(),
            summary: HarvestSummary::new(report.gross_energy, report.overhead_energy, oracle_gross),
            report,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_core::baselines::{FixedVoltage, FocvSampleHold, PerturbObserve};
    use eh_env::profiles;
    use eh_pv::presets;
    use eh_units::Lux;

    #[test]
    fn comparison_ranks_trackers_indoors() {
        let cell = presets::sanyo_am1815();
        let trace = profiles::constant(Lux::new(500.0), Seconds::from_minutes(20.0));
        let mut focv = FocvSampleHold::paper_prototype().unwrap();
        let mut po = PerturbObserve::literature_default().unwrap();
        let mut fixed = FixedVoltage::indoor_tuned().unwrap();
        let mut trackers: Vec<&mut dyn MpptController> = vec![&mut focv, &mut po, &mut fixed];
        let rows = compare_trackers(&cell, &trace, Seconds::new(1.0), &mut trackers).unwrap();
        assert_eq!(rows.len(), 4);
        // Oracle leads the list and is the reference.
        assert!(rows[0].name.contains("oracle"));
        assert!((rows[0].summary.efficiency_vs_oracle().value() - 1.0).abs() < 1e-9);

        let find = |needle: &str| {
            rows.iter()
                .find(|r| r.name.contains(needle))
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        let focv_row = find("sample-and-hold");
        let po_row = find("perturb");
        let fixed_row = find("fixed");
        // The paper's indoor story: FOCV net-positive and near-oracle;
        // the hill climber is net-negative; fixed voltage works indoors.
        assert!(focv_row.summary.is_net_positive());
        assert!(!po_row.summary.is_net_positive());
        assert!(fixed_row.summary.is_net_positive());
        assert!(
            focv_row.summary.efficiency_vs_oracle().value() > 0.8,
            "FOCV vs oracle = {}",
            focv_row.summary.efficiency_vs_oracle()
        );
    }
}
