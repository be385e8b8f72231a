//! Multi-day endurance runs with per-day reporting.
//!
//! The storage state persists across days (that is the whole point of an
//! endurance run), while harvest/overhead/uptime counters reset daily so
//! the report shows *which* day hurt — typically the blinds-closed
//! weekend living off Friday's surplus.

use eh_core::MpptController;
use eh_env::TimeSeries;
use eh_units::Seconds;

use crate::error::NodeError;
use crate::report::NodeReport;
use crate::sim::NodeSimulation;

/// Runs `tracker` over `trace`, split into consecutive windows of
/// `window` duration, returning one [`NodeReport`] per window. The
/// simulation (and its energy store) carries over between windows.
///
/// # Errors
///
/// Rejects a window shorter than the trace's sampling interval;
/// propagates simulation errors.
pub fn run_windowed(
    sim: &mut NodeSimulation,
    tracker: &mut dyn MpptController,
    trace: &TimeSeries,
    window: Seconds,
    dt: Seconds,
) -> Result<Vec<NodeReport>, NodeError> {
    eh_sim::run_windowed(trace, window, |day| sim.run(tracker, day, dt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;
    use crate::storage::{ConcreteStore, Supercapacitor};
    use eh_core::baselines::FocvSampleHold;
    use eh_env::week::{self, DayKind};
    use eh_pv::presets;
    use eh_units::{Farads, Volts};

    #[test]
    fn window_shorter_than_sampling_rejected() {
        let trace = eh_env::profiles::constant(eh_units::Lux::new(100.0), Seconds::new(100.0));
        let mut sim =
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap()).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        assert!(run_windowed(
            &mut sim,
            &mut tracker,
            &trace,
            Seconds::new(0.5),
            Seconds::new(1.0)
        )
        .is_err());
    }

    #[test]
    fn three_day_run_reports_daily() {
        let trace = week::sequence(
            &[
                DayKind::Office,
                DayKind::SemiMobile,
                DayKind::WeekendBlindsClosed,
            ],
            7,
        )
        .unwrap()
        .decimate(60)
        .unwrap();
        let store = Supercapacitor::new(Farads::new(0.5), Volts::new(5.0), Volts::new(1.8))
            .unwrap()
            .with_initial_voltage(Volts::new(4.0));
        let cfg = SimConfig::default_for(presets::sanyo_am1815())
            .unwrap()
            .with_store(ConcreteStore::Supercapacitor(store));
        let mut sim = NodeSimulation::new(cfg).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let reports = run_windowed(
            &mut sim,
            &mut tracker,
            &trace,
            Seconds::from_hours(24.0),
            Seconds::new(60.0),
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        // The semi-mobile day (outdoor lunch) harvests the most; the
        // blinds-closed weekend day the least.
        assert!(reports[1].gross_energy > reports[0].gross_energy);
        assert!(reports[2].gross_energy < reports[0].gross_energy);
        // Storage persisted: the weekend day still had energy to burn.
        assert!(reports[2].overhead_energy.value() > 0.0);
    }

    #[test]
    fn windows_cover_the_whole_trace() {
        let trace = eh_env::profiles::constant(eh_units::Lux::new(500.0), Seconds::from_hours(5.0));
        let mut sim =
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap()).unwrap();
        let mut tracker = FocvSampleHold::paper_prototype().unwrap();
        let reports = run_windowed(
            &mut sim,
            &mut tracker,
            &trace,
            Seconds::from_hours(2.0),
            Seconds::new(10.0),
        )
        .unwrap();
        // 5 h in 2 h windows → 2 full + 1 partial.
        assert_eq!(reports.len(), 3);
        let total: f64 = reports.iter().map(|r| r.duration.value()).sum();
        assert!((total - 5.0 * 3600.0).abs() < 60.0, "covered {total} s");
    }
}
