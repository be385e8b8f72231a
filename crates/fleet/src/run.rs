//! The sharded fleet runner.
//!
//! ```text
//! FleetSpec ──FleetContext::prepare──▶ population + traces + pool
//!     │                                        │
//!     └──────── shards ──▶ SweepRunner ◀───────┘
//!                              │ per node: NodeSimulation on eh_sim::drive
//!                              ▼ fold
//!               FleetReport ◀──merge in shard index order
//! ```
//!
//! Each worker claims shards of nodes, simulates them against its
//! placement's shared base trace (perturbed per node) and the shared
//! warmed PV surface, and folds the single-node reports locally; the
//! per-shard aggregates merge in shard index order. The result is
//! bit-for-bit identical at any worker count and shard size.

use eh_sim::SweepRunner;
use eh_units::Error;

use crate::compare::TrackerKind;
use crate::context::FleetContext;
use crate::report::FleetReport;
use crate::spec::FleetSpec;

/// The engine label of a fleet run.
///
/// Both labels run the same node stepper and give the same bits. The
/// type stays because its labels are part of the serving layer's wire
/// format and cache keys, and because callers name it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The `per-node` label.
    PerNode,
    /// The `vectorized` label, and the default.
    #[default]
    Vectorized,
}

impl Engine {
    /// Every engine label.
    pub const ALL: [Engine; 2] = [Engine::PerNode, Engine::Vectorized];

    /// Stable label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Engine::PerNode => "per-node",
            Engine::Vectorized => "vectorized",
        }
    }

    /// Parses a CLI/env spelling (`per-node`, `per_node`, `vectorized`,
    /// ...).
    pub fn parse(s: &str) -> Option<Engine> {
        match s.trim().to_ascii_lowercase().as_str() {
            "per-node" | "per_node" | "pernode" | "node" | "oracle" => Some(Engine::PerNode),
            "vectorized" | "vector" | "wide" | "lanes" => Some(Engine::Vectorized),
            _ => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs fleets: a [`SweepRunner`] plus a shard size.
///
/// The shard size trades scheduling overhead against load balance; it
/// never affects the per-node outcomes (see
/// [`eh_sim::SweepRunner::run_shards`]'s order contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRunner {
    runner: SweepRunner,
    shard_size: usize,
}

impl FleetRunner {
    /// Default nodes per shard.
    pub const DEFAULT_SHARD_SIZE: usize = 32;

    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            runner: SweepRunner::new(workers),
            shard_size: Self::DEFAULT_SHARD_SIZE,
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self {
            runner: SweepRunner::auto(),
            shard_size: Self::DEFAULT_SHARD_SIZE,
        }
    }

    /// Overrides the shard size. A zero size is kept as given, so a run
    /// rejects it with [`eh_sim::SweepRunner::run_shards`]'s
    /// `shard_size` error.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.runner.workers()
    }

    /// The nodes-per-shard granularity.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Runs the fleet with each node's own FOCV tracker (the paper's
    /// technique, jittered per unit).
    ///
    /// # Errors
    ///
    /// Propagates spec validation and simulation errors; on multiple
    /// node failures the first in fleet order is returned.
    pub fn run(&self, spec: &FleetSpec) -> Result<FleetReport, Error> {
        self.run_tracker(spec, TrackerKind::Focv)
    }

    /// Runs the same seeded population under an arbitrary tracker kind,
    /// preparing the spec's context for this one run.
    /// [`compare_trackers_over_fleet`](crate::compare_trackers_over_fleet)
    /// instead prepares once and runs every kind through
    /// [`FleetRunner::run_engine_prepared`].
    ///
    /// # Errors
    ///
    /// As [`FleetRunner::run`].
    pub fn run_tracker(&self, spec: &FleetSpec, kind: TrackerKind) -> Result<FleetReport, Error> {
        let ctx = FleetContext::prepare(spec)?;
        self.run_tracker_prepared(&ctx, kind)
    }

    /// [`FleetRunner::run`] against an already-prepared context,
    /// skipping the per-run setup (population, traces, surface warm).
    ///
    /// # Errors
    ///
    /// As [`FleetRunner::run`].
    pub fn run_prepared(&self, ctx: &FleetContext) -> Result<FleetReport, Error> {
        self.run_tracker_prepared(ctx, TrackerKind::Focv)
    }

    /// [`FleetRunner::run_tracker`] against an already-prepared context.
    ///
    /// # Errors
    ///
    /// As [`FleetRunner::run`].
    pub fn run_tracker_prepared(
        &self,
        ctx: &FleetContext,
        kind: TrackerKind,
    ) -> Result<FleetReport, Error> {
        self.run_engine_prepared(ctx, kind, Engine::PerNode)
    }

    /// Runs the population under `kind` through `engine`.
    ///
    /// # Errors
    ///
    /// As [`FleetRunner::run`].
    pub fn run_engine(
        &self,
        spec: &FleetSpec,
        kind: TrackerKind,
        engine: Engine,
    ) -> Result<FleetReport, Error> {
        let ctx = FleetContext::prepare(spec)?;
        self.run_engine_prepared(&ctx, kind, engine)
    }

    /// [`FleetRunner::run_engine`] against an already-prepared context:
    /// every shard goes through [`FleetContext::simulate_shard`], and
    /// the shard reports merge in shard index order.
    ///
    /// # Errors
    ///
    /// As [`FleetRunner::run`].
    pub fn run_engine_prepared(
        &self,
        ctx: &FleetContext,
        kind: TrackerKind,
        engine: Engine,
    ) -> Result<FleetReport, Error> {
        let population = ctx.population().to_vec();
        let report = merged_or_empty(self.runner.run_shards(
            population,
            self.shard_size,
            |_idx, nodes| ctx.simulate_shard(kind, engine, nodes),
        )?)?;
        Ok(report.with_fleet_counters())
    }
}

/// Unwraps an optional merge result: a run that produced no aggregate
/// (zero nodes, or every shard dropped before yielding one) is an
/// [`Error::EmptyFleet`], not a panic.
pub(crate) fn merged_or_empty<T>(merged: Option<Result<T, Error>>) -> Result<T, Error> {
    merged.ok_or(Error::EmptyFleet)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Placement, Tolerances};
    use eh_node::StoreSpec;
    use eh_units::{Joules, Seconds};

    /// A small fleet that still exercises every placement, sized so the
    /// test-suite run stays fast: 10-minute trace grid, 10-minute step.
    fn small_spec() -> FleetSpec {
        let mut spec = FleetSpec::mixed_indoor_outdoor(24, 2011).unwrap();
        spec.trace_decimate = 600;
        spec.dt = Seconds::new(600.0);
        spec
    }

    #[test]
    fn zero_shard_size_is_an_error_naming_it() {
        let err = FleetRunner::new(1)
            .with_shard_size(0)
            .run(&small_spec())
            .unwrap_err();
        assert!(err.to_string().contains("shard_size"), "{err}");
    }

    #[test]
    fn a_node_failure_reaches_the_caller_unchanged() {
        // `FleetSpec::validate` does not build the store, so a bad one
        // fails inside every node; the first failure in fleet order is
        // the one returned, at any worker count and shard size.
        let mut spec = small_spec();
        spec.store = StoreSpec::Battery {
            capacity: Joules::new(-1.0),
            charge_efficiency: 0.9,
            self_discharge_per_month: 0.02,
            initial_soc: 0.5,
        };
        for workers in [1, 4] {
            for shard_size in [1, 32] {
                let err = FleetRunner::new(workers)
                    .with_shard_size(shard_size)
                    .run(&spec)
                    .unwrap_err();
                assert_eq!(
                    err,
                    Error::InvalidParameter {
                        name: "capacity",
                        value: -1.0,
                    },
                    "workers {workers}, shard size {shard_size}"
                );
            }
        }
    }

    #[test]
    fn fleet_runs_and_aggregates_every_node() {
        let report = FleetRunner::new(2).run(&small_spec()).unwrap();
        assert_eq!(report.nodes(), 24);
        assert!(report.net_energy_percentiles().is_some());
        assert!(report.worst_node().is_some());
        let placed: usize = Placement::ALL
            .iter()
            .map(|&p| report.placement_count(p))
            .sum();
        assert_eq!(placed, 24);
    }

    #[test]
    fn every_node_simulates_the_whole_day() {
        let mut spec = FleetSpec::mixed_indoor_outdoor(2, 2011).unwrap();
        spec.trace_decimate = 3600;
        spec.dt = Seconds::new(3600.0);
        let report = FleetRunner::new(1).run(&spec).unwrap();
        for node in &report.outcomes {
            assert_eq!(node.report.duration, Seconds::new(86_400.0));
        }
        spec.trace_decimate = 7;
        assert!(matches!(
            FleetRunner::new(1).run(&spec),
            Err(Error::InvalidParameter {
                name: "trace_decimate",
                ..
            })
        ));
    }

    #[test]
    fn empty_merge_is_an_error_not_a_panic() {
        // Regression: both engine paths used to `.expect` on the merged
        // shard fold, so a fleet that produced no outcomes panicked
        // instead of erroring.
        let lifted: Result<FleetReport, Error> = merged_or_empty(None);
        assert!(matches!(lifted, Err(Error::EmptyFleet)));
        let passthrough = merged_or_empty(Some(Err::<FleetReport, _>(Error::EmptyFleet)));
        assert!(passthrough.is_err());
    }

    #[test]
    fn heterogeneity_spreads_the_outcomes() {
        let report = FleetRunner::new(1).run(&small_spec()).unwrap();
        let p = report
            .net_energy_percentiles()
            .expect("non-empty fleet has percentiles");
        assert!(
            p.p95 > p.p5,
            "a toleranced fleet must not collapse to one outcome: {p:?}"
        );
    }

    #[test]
    fn zero_tolerance_single_placement_fleet_collapses() {
        let mut spec = small_spec();
        spec.tolerances = Tolerances::none();
        spec.placements = crate::PlacementMix::new(0.0, 1.0, 0.0).unwrap();
        let report = FleetRunner::new(2).run(&spec).unwrap();
        let p = report
            .net_energy_percentiles()
            .expect("non-empty fleet has percentiles");
        // Identical hardware and identical light: only the power-up
        // phase differs, which perturbs day-scale energy marginally.
        let spread = (p.p95 - p.p5).abs();
        let scale = p.p50.abs().max(1e-12);
        assert!(
            spread / scale < 0.05,
            "golden fleet spread {spread:.3e} vs median {scale:.3e}"
        );
    }

    #[test]
    fn obs_fleet_metrics_merge_worker_invariant_and_conserve() {
        let mut spec = small_spec();
        spec.obs = true;
        let one = FleetRunner::new(1).run(&spec).unwrap();
        let two = FleetRunner::new(2).run(&spec).unwrap();
        let m = one
            .metrics
            .as_ref()
            .expect("obs spec carries a fleet store");
        assert_eq!(
            one.metrics, two.metrics,
            "merged metrics depend on worker count"
        );
        assert_eq!(m.counter("fleet.nodes"), 24);
        assert_eq!(
            m.counter("node.measurements"),
            one.outcomes
                .iter()
                .map(|o| o.report.measurements)
                .sum::<u64>()
        );
        // The fleet ledger must balance the summed closed-loop node
        // accounting: overhead + conversion losses + load served +
        // control-law compute.
        let closed_loop: f64 = one
            .outcomes
            .iter()
            .map(|o| {
                o.report.overhead_energy.value()
                    + o.report.loss_energy.value()
                    + o.report.load_served.value()
                    + o.report.compute_energy.value()
            })
            .sum();
        let rel = m
            .ledger()
            .relative_error(eh_units::Joules::new(closed_loop));
        assert!(
            rel < 1e-9,
            "fleet ledger drifts from closed loop: {rel:.3e}"
        );
        // Per-node reports stay lean: every store was hoisted out.
        assert!(one.outcomes.iter().all(|o| o.report.metrics.is_none()));
    }

    #[test]
    fn oracle_fleet_dominates_focv_fleet() {
        let spec = small_spec();
        let runner = FleetRunner::new(2);
        let focv = runner.run(&spec).unwrap();
        let oracle = runner.run_tracker(&spec, TrackerKind::Oracle).unwrap();
        let net = |r: &FleetReport| {
            r.net_energy_percentiles()
                .expect("non-empty fleet has percentiles")
                .p50
        };
        assert!(net(&oracle) >= net(&focv));
    }

    #[test]
    fn prepared_runs_match_unprepared_runs() {
        let spec = small_spec();
        let runner = FleetRunner::new(1);
        let ctx = FleetContext::prepare(&spec).unwrap();
        assert_eq!(
            runner.run_prepared(&ctx).unwrap(),
            runner.run(&spec).unwrap()
        );
        assert_eq!(
            runner
                .run_engine_prepared(&ctx, TrackerKind::Focv, Engine::Vectorized)
                .unwrap(),
            runner
                .run_engine(&spec, TrackerKind::Focv, Engine::Vectorized)
                .unwrap()
        );
    }

    #[test]
    fn engine_labels_parse_and_dispatch() {
        assert_eq!(Engine::default(), Engine::Vectorized);
        assert_eq!(Engine::parse("per-node"), Some(Engine::PerNode));
        assert_eq!(Engine::parse("PER_NODE"), Some(Engine::PerNode));
        assert_eq!(Engine::parse("warp"), None);
        assert_eq!(Engine::parse("batch"), None);
        assert_eq!(Engine::parse("vectorized"), Some(Engine::Vectorized));
        for engine in Engine::ALL {
            assert_eq!(Engine::parse(engine.label()), Some(engine));
            assert_eq!(engine.to_string(), engine.label());
        }
        let spec = small_spec();
        let runner = FleetRunner::new(1);
        for engine in Engine::ALL {
            assert_eq!(
                runner.run_engine(&spec, TrackerKind::Focv, engine).unwrap(),
                runner.run(&spec).unwrap(),
                "{engine}"
            );
        }
    }
}
