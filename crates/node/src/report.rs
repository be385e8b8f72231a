//! Run reports.

use eh_obs::Metrics;
use eh_units::{Joules, Ratio, Seconds};

/// Result of a closed-loop node run with one tracker.
///
/// The harvest, overhead and compute fields book each flow in full,
/// whatever the store took or gave: a full store refuses the harvest
/// that does not fit, and an empty one supplies less than the draw,
/// but neither shortfall shows here. Of the store's flows, only
/// [`NodeReport::load_served`] is what the store actually delivered.
/// On the reference two-year campaign a full store refused 91.9 % of
/// the gross.
///
/// [`crate::NodeSimulation::run`] books every field as its slices
/// settle, starting from the empty [`Default`] report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeReport {
    /// Tracker name.
    pub tracker: String,
    /// Simulated duration.
    pub duration: Seconds,
    /// Energy the converter delivered (before tracker overhead), booked
    /// in full whether or not the store absorbed it.
    pub gross_energy: Joules,
    /// Energy the tracker's own electronics consumed, booked in full
    /// even when an empty store supplied less.
    pub overhead_energy: Joules,
    /// Energy demanded by the node load.
    pub load_demand: Joules,
    /// Load energy actually served from the store.
    pub load_served: Joules,
    /// Energy left in the store at the end.
    pub final_store_energy: Joules,
    /// Energy dissipated in the conversion path (converter losses).
    pub loss_energy: Joules,
    /// Energy the tracker's control law consumed (digital trackers
    /// only; zero for analog implementations), booked in full even
    /// when an empty store supplied less.
    pub compute_energy: Joules,
    /// Number of open-circuit measurement interruptions.
    pub measurements: u64,
    /// Number of control decisions the tracker took.
    pub decisions: u64,
    /// The run's metric store, when [`crate::NodeSimulation::obs`] was
    /// enabled; `None` for uninstrumented runs.
    pub metrics: Option<Metrics>,
}

impl NodeReport {
    /// `gross − overhead − compute`: the tracker's net contribution.
    pub fn net_energy(&self) -> Joules {
        Joules::new(
            self.gross_energy.value() - self.overhead_energy.value() - self.compute_energy.value(),
        )
    }

    /// Fraction of the load demand that was served.
    pub fn uptime(&self) -> Ratio {
        if self.load_demand.value() <= 0.0 {
            return Ratio::ONE;
        }
        Ratio::new((self.load_served.value() / self.load_demand.value()).clamp(0.0, 1.0))
    }

    /// Whether the tracker produced more than it consumed.
    pub fn is_net_positive(&self) -> bool {
        self.net_energy().value() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(gross: f64, overhead: f64, demand: f64, served: f64) -> NodeReport {
        NodeReport {
            tracker: "t".into(),
            duration: Seconds::from_hours(24.0),
            gross_energy: Joules::new(gross),
            overhead_energy: Joules::new(overhead),
            load_demand: Joules::new(demand),
            load_served: Joules::new(served),
            ..NodeReport::default()
        }
    }

    #[test]
    fn net_and_uptime() {
        let r = report(10.0, 2.0, 4.0, 3.0);
        assert_eq!(r.net_energy(), Joules::new(8.0));
        assert!((r.uptime().value() - 0.75).abs() < 1e-12);
        assert!(r.is_net_positive());
    }

    #[test]
    fn compute_energy_reduces_net() {
        let mut r = report(10.0, 2.0, 0.0, 0.0);
        r.compute_energy = Joules::new(1.5);
        assert_eq!(r.net_energy(), Joules::new(6.5));
    }

    #[test]
    fn net_negative_tracker() {
        let r = report(1.0, 5.0, 0.0, 0.0);
        assert!(!r.is_net_positive());
        assert_eq!(r.uptime(), Ratio::ONE);
    }
}
