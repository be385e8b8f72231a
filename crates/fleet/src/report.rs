//! Order-independent fleet aggregation.
//!
//! A [`FleetReport`] is built by merging single-node reports. The merge
//! is a plain concatenation in input order — [`eh_sim::SweepRunner::run_merged`]
//! guarantees shard reports are folded in shard index order — so the
//! aggregate is bit-for-bit identical at any worker count, and every
//! derived statistic (percentiles, counts, the worst-node drill-down)
//! inherits that determinism.

use std::fmt;

use eh_node::NodeReport;
use eh_obs::Metrics;
use eh_sim::Mergeable;
use eh_units::Joules;

use crate::spec::Placement;

/// One node's outcome inside a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// The node's fleet index.
    pub id: u32,
    /// Where the node was deployed.
    pub placement: Placement,
    /// Whether the cold-start supervisor could ever bring this node up
    /// from a fully discharged state under its own peak illuminance
    /// (analytic feasibility check against the paper's §III circuit).
    pub cold_start_ok: bool,
    /// The full closed-loop run report.
    pub report: NodeReport,
}

impl NodeOutcome {
    /// `gross − overhead − compute` for this node.
    pub fn net_energy(&self) -> Joules {
        self.report.net_energy()
    }

    /// Whether the node failed to serve some of its load demand (ran
    /// its store dry at least once).
    pub fn browned_out(&self) -> bool {
        self.report.load_demand.value() > 0.0
            && self.report.load_served.value() < self.report.load_demand.value()
    }
}

/// The p5/p50/p95 of one per-node quantity, by the nearest-rank method
/// over `total_cmp`-sorted values (deterministic for any input order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Percentiles {
    /// Nearest-rank p5/p50/p95 of a value set; `None` when empty.
    /// Public so layers that aggregate non-energy values (the campaign
    /// runner's survival days) reuse the exact ranking the fleet report
    /// uses.
    pub fn of(mut values: Vec<f64>) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let n = values.len();
            let k = ((q * n as f64).ceil() as usize).clamp(1, n);
            values[k - 1]
        };
        Some(Self {
            p5: rank(0.05),
            p50: rank(0.50),
            p95: rank(0.95),
        })
    }
}

/// The merged outcome of a fleet run: every node's report in fleet
/// order, plus the derived population statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The fleet's display name.
    pub name: String,
    /// The tracker the fleet ran.
    pub tracker: String,
    /// Per-node outcomes, in fleet (input) order.
    pub outcomes: Vec<NodeOutcome>,
    /// The fleet-wide metric store: every node's [`Metrics`] folded in
    /// fleet order, when [`crate::FleetSpec::obs`] was enabled. Hoisted
    /// out of the per-node reports at [`FleetReport::single`] so the
    /// outcome vector stays lean.
    pub metrics: Option<Metrics>,
}

impl FleetReport {
    /// A single-node report — the unit [`Mergeable`] folds over.
    ///
    /// Moves the node's metric store (if any) out of the per-node
    /// report and into the fleet-level aggregate.
    pub fn single(name: &str, mut outcome: NodeOutcome) -> Self {
        let metrics = outcome.report.metrics.take();
        Self {
            name: name.to_owned(),
            tracker: outcome.report.tracker.clone(),
            outcomes: vec![outcome],
            metrics,
        }
    }

    /// Number of nodes aggregated.
    pub fn nodes(&self) -> usize {
        self.outcomes.len()
    }

    /// Stamps the fleet-scope counters (`fleet.nodes`) into the merged
    /// metric store, when one exists. [`crate::FleetRunner`] applies
    /// this exactly once after the shard merge; callers that fold
    /// shards themselves (via [`crate::FleetContext::simulate_shard`])
    /// must apply it to their final merged report to stay bit-identical
    /// with the runner's output.
    #[must_use]
    pub fn with_fleet_counters(mut self) -> Self {
        if let Some(m) = self.metrics.as_mut() {
            m.add_counter("fleet.nodes", self.outcomes.len() as u64);
        }
        self
    }

    /// Net-energy percentiles across the fleet, in joules.
    pub fn net_energy_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(
            self.outcomes
                .iter()
                .map(|o| o.net_energy().value())
                .collect(),
        )
    }

    /// Gross-harvest percentiles across the fleet, in joules.
    pub fn gross_energy_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(
            self.outcomes
                .iter()
                .map(|o| o.report.gross_energy.value())
                .collect(),
        )
    }

    /// Metrology (tracker-overhead) percentiles across the fleet, in
    /// joules: the energy each node's measurement circuit burned.
    pub fn overhead_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(
            self.outcomes
                .iter()
                .map(|o| o.report.overhead_energy.value())
                .collect(),
        )
    }

    /// Compute-energy percentiles across the fleet, in joules: what
    /// each node's MPPT arithmetic cost on the MCU. Zero for analog
    /// trackers.
    pub fn compute_energy_percentiles(&self) -> Option<Percentiles> {
        Percentiles::of(
            self.outcomes
                .iter()
                .map(|o| o.report.compute_energy.value())
                .collect(),
        )
    }

    /// How many nodes failed to serve some load demand.
    pub fn brown_out_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.browned_out()).count()
    }

    /// How many nodes can never cold-start under their own light.
    pub fn cold_start_failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.cold_start_ok).count()
    }

    /// How many nodes ended the run net-negative.
    pub fn net_negative_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.report.is_net_positive())
            .count()
    }

    /// Nodes deployed at the given placement.
    pub fn placement_count(&self, p: Placement) -> usize {
        self.outcomes.iter().filter(|o| o.placement == p).count()
    }

    /// The node with the lowest net energy (first such node in fleet
    /// order on exact ties) — the drill-down target.
    pub fn worst_node(&self) -> Option<&NodeOutcome> {
        self.outcomes.iter().min_by(|a, b| {
            a.net_energy()
                .value()
                .total_cmp(&b.net_energy().value())
                .then(a.id.cmp(&b.id))
        })
    }
}

impl Mergeable for FleetReport {
    fn merge(&mut self, other: Self) {
        self.outcomes.extend(other.outcomes);
        match (self.metrics.as_mut(), other.metrics) {
            (Some(mine), Some(theirs)) => mine.merge_from(theirs),
            (None, Some(theirs)) => self.metrics = Some(theirs),
            _ => {}
        }
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet `{}` — {} nodes, tracker: {}",
            self.name,
            self.nodes(),
            self.tracker
        )?;
        if let Some(p) = self.gross_energy_percentiles() {
            writeln!(
                f,
                "  gross        p5 {:>10.4} J   p50 {:>10.4} J   p95 {:>10.4} J",
                p.p5, p.p50, p.p95
            )?;
        }
        if let Some(p) = self.overhead_percentiles() {
            writeln!(
                f,
                "  metrology    p5 {:>10.4} J   p50 {:>10.4} J   p95 {:>10.4} J",
                p.p5, p.p50, p.p95
            )?;
        }
        if let Some(p) = self.compute_energy_percentiles() {
            writeln!(
                f,
                "  compute      p5 {:>10.4} J   p50 {:>10.4} J   p95 {:>10.4} J",
                p.p5, p.p50, p.p95
            )?;
        }
        if let Some(p) = self.net_energy_percentiles() {
            writeln!(
                f,
                "  net energy   p5 {:>10.4} J   p50 {:>10.4} J   p95 {:>10.4} J",
                p.p5, p.p50, p.p95
            )?;
        }
        writeln!(
            f,
            "  brown-outs {}   cold-start failures {}   net-negative {}",
            self.brown_out_count(),
            self.cold_start_failures(),
            self.net_negative_count()
        )?;
        if let Some(w) = self.worst_node() {
            writeln!(
                f,
                "  worst node #{} ({}): net {:.4} J, uptime {:.3}, {} measurements",
                w.id,
                w.placement.label(),
                w.net_energy().value(),
                w.report.uptime().value(),
                w.report.measurements
            )?;
        }
        if let Some(m) = self.metrics.as_ref() {
            let ledger = m.ledger();
            if !ledger.is_empty() {
                writeln!(
                    f,
                    "  energy ledger: astable {:.4} J, sample/hold {:.4} J, switching {:.4} J, load {:.4} J, compute {:.4} J",
                    ledger.energy(eh_obs::EnergyBucket::Astable).value(),
                    ledger.energy(eh_obs::EnergyBucket::SampleHold).value(),
                    ledger.energy(eh_obs::EnergyBucket::ConverterSwitching).value(),
                    ledger.energy(eh_obs::EnergyBucket::Load).value(),
                    ledger.energy(eh_obs::EnergyBucket::Compute).value(),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Seconds;

    fn outcome(id: u32, net: f64, served: f64) -> NodeOutcome {
        NodeOutcome {
            id,
            placement: Placement::InteriorDesk,
            cold_start_ok: id.is_multiple_of(2),
            report: NodeReport {
                tracker: "t".into(),
                duration: Seconds::from_hours(24.0),
                gross_energy: Joules::new(net.max(0.0)),
                overhead_energy: Joules::new((net.max(0.0)) - net),
                load_demand: Joules::new(1.0),
                load_served: Joules::new(served),
                final_store_energy: Joules::ZERO,
                loss_energy: Joules::ZERO,
                compute_energy: Joules::ZERO,
                measurements: 10,
                decisions: 0,
                metrics: None,
            },
        }
    }

    fn report(ids: &[u32]) -> FleetReport {
        let mut it = ids.iter();
        let first = *it.next().unwrap();
        let mut r = FleetReport::single("test", outcome(first, first as f64, 1.0));
        for &id in it {
            r.merge(FleetReport::single("test", outcome(id, id as f64, 1.0)));
        }
        r
    }

    #[test]
    fn merge_concatenates_in_call_order() {
        let r = report(&[0, 1, 2, 3]);
        let ids: Vec<u32> = r.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(r.nodes(), 4);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(values).unwrap();
        assert_eq!(p.p5, 5.0);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert!(Percentiles::of(Vec::new()).is_none());
        let single = Percentiles::of(vec![7.0]).unwrap();
        assert_eq!((single.p5, single.p50, single.p95), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentiles_are_input_order_independent() {
        let a = Percentiles::of(vec![3.0, 1.0, 2.0]).unwrap();
        let b = Percentiles::of(vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn worst_node_breaks_ties_by_id() {
        let mut r = FleetReport::single("test", outcome(5, 1.0, 1.0));
        r.merge(FleetReport::single("test", outcome(2, 1.0, 1.0)));
        r.merge(FleetReport::single("test", outcome(9, 4.0, 1.0)));
        assert_eq!(r.worst_node().unwrap().id, 2);
    }

    #[test]
    fn counts() {
        let mut r = report(&[0, 1, 2, 3]);
        r.merge(FleetReport::single("test", outcome(4, 4.0, 0.5)));
        assert_eq!(r.brown_out_count(), 1);
        assert_eq!(r.cold_start_failures(), 2, "odd ids fail cold start");
        assert_eq!(r.net_negative_count(), 1, "node 0 has net == 0");
        assert_eq!(r.placement_count(Placement::InteriorDesk), 5);
        assert_eq!(r.placement_count(Placement::Outdoor), 0);
    }

    #[test]
    fn display_renders_the_drill_down() {
        let s = report(&[0, 1, 2]).to_string();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("worst node #0"));
    }

    #[test]
    fn single_hoists_metrics_and_merge_folds_them() {
        let with_metrics = |id: u32, count: u64| {
            let mut o = outcome(id, 1.0, 1.0);
            let mut m = Metrics::default();
            m.add_counter("node.measurements", count);
            o.report.metrics = Some(m);
            o
        };

        let mut r = FleetReport::single("test", with_metrics(0, 3));
        assert!(
            r.outcomes[0].report.metrics.is_none(),
            "single() must move the store out of the per-node report"
        );
        r.merge(FleetReport::single("test", with_metrics(1, 4)));
        r.merge(FleetReport::single("test", outcome(2, 1.0, 1.0)));
        let m = r.metrics.as_ref().expect("fleet store present");
        assert_eq!(m.counter("node.measurements"), 7);
        assert_eq!(r.nodes(), 3);

        // A metrics-less left side adopts the right side's store.
        let mut bare = FleetReport::single("test", outcome(3, 1.0, 1.0));
        bare.merge(FleetReport::single("test", with_metrics(4, 5)));
        assert_eq!(
            bare.metrics.as_ref().unwrap().counter("node.measurements"),
            5
        );
    }
}
