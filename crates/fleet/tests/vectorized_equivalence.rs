//! Bounded-divergence contract of the fast (`vectorized`) engine.
//!
//! The vectorized engine is **not** bit-identical to the per-node
//! oracle — its strength reductions (cursored PV reads, energy-domain
//! supercap, prefix-sum load profile) reassociate a handful of float
//! operations. These tests pin the contract it holds instead
//! (`DESIGN.md` §14):
//!
//! 1. Pulse/measurement/decision counts and outcome classifications
//!    (brown-out, cold-start failure, net-negative) are **exactly**
//!    equal to the oracle's.
//! 2. Per-node energy totals agree to **rel 1e-9**.
//! 3. The engine is **bit-identical to itself** across seeds × worker
//!    counts {1, 2, 4} × shard sizes {1, 32, 257}.
//! 4. Everything without a fast stepper (other trackers, `pv_cache:
//!    false`) goes to the per-node shard fold and stays bit-identical
//!    across the same seed × worker × shard matrix.
//! 5. Growing the fleet leaves the outcomes of the existing prefix
//!    unchanged.
//! 6. The engine's own output is pinned bit for bit by recorded golden
//!    digests, so a refactor of the fast path can show it moved no bit.

use eh_fleet::{
    compare_trackers_over_fleet_with, Engine, FleetContext, FleetReport, FleetRunner, FleetSpec,
    TrackerKind,
};
use eh_node::StoreSpec;
use eh_units::{Joules, Seconds};

/// A fast, fully heterogeneous spec: every placement, 10-minute light
/// grid, 10-minute step.
fn spec(nodes: u32, seed: u64) -> FleetSpec {
    let mut spec = FleetSpec::mixed_indoor_outdoor(nodes, seed).unwrap();
    spec.trace_decimate = 600;
    spec.dt = Seconds::new(600.0);
    spec
}

/// Relative disagreement with an absolute floor well below any energy
/// this scenario moves (loads draw millijoules per cycle; traces run a
/// full day).
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// The per-node divergence budget of the contract.
const NET_ENERGY_REL: f64 = 1e-9;

/// The population under `kind` through the vectorized engine.
fn run_vectorized(runner: &FleetRunner, ctx: &FleetContext, kind: TrackerKind) -> FleetReport {
    runner
        .run_engine_prepared(ctx, kind, Engine::Vectorized)
        .unwrap()
}

fn assert_contract(reference: &FleetReport, candidate: &FleetReport, what: &str) {
    assert_eq!(
        reference.outcomes.len(),
        candidate.outcomes.len(),
        "{what}: node count diverged"
    );
    for (a, b) in reference.outcomes.iter().zip(&candidate.outcomes) {
        assert_eq!(a.id, b.id, "{what}: fleet order diverged");
        assert_eq!(a.placement, b.placement, "{what}: node {} placement", a.id);
        // Exact clauses: counts and classifications.
        assert_eq!(
            a.cold_start_ok, b.cold_start_ok,
            "{what}: node {} cold-start classification",
            a.id
        );
        assert_eq!(
            a.report.measurements, b.report.measurements,
            "{what}: node {} measurement count",
            a.id
        );
        assert_eq!(
            a.report.decisions, b.report.decisions,
            "{what}: node {} decision count",
            a.id
        );
        assert_eq!(
            a.browned_out(),
            b.browned_out(),
            "{what}: node {} brown-out classification",
            a.id
        );
        assert_eq!(
            a.report.is_net_positive(),
            b.report.is_net_positive(),
            "{what}: node {} net-positive classification",
            a.id
        );
        assert_eq!(a.report.tracker, b.report.tracker, "{what}: tracker name");
        assert_eq!(
            a.report.duration.value().to_bits(),
            b.report.duration.value().to_bits(),
            "{what}: node {} duration must be exact",
            a.id
        );
        // Bounded clauses: every energy total within rel 1e-9.
        for (label, x, y) in [
            ("net", a.net_energy().value(), b.net_energy().value()),
            (
                "gross",
                a.report.gross_energy.value(),
                b.report.gross_energy.value(),
            ),
            (
                "overhead",
                a.report.overhead_energy.value(),
                b.report.overhead_energy.value(),
            ),
            (
                "load_demand",
                a.report.load_demand.value(),
                b.report.load_demand.value(),
            ),
            (
                "load_served",
                a.report.load_served.value(),
                b.report.load_served.value(),
            ),
            (
                "loss",
                a.report.loss_energy.value(),
                b.report.loss_energy.value(),
            ),
            (
                "compute",
                a.report.compute_energy.value(),
                b.report.compute_energy.value(),
            ),
            (
                "final_store",
                a.report.final_store_energy.value(),
                b.report.final_store_energy.value(),
            ),
        ] {
            let rel = rel_err(x, y);
            assert!(
                rel <= NET_ENERGY_REL,
                "{what}: node {} {label} energy diverged by rel {rel:.3e} ({x} vs {y})",
                a.id
            );
        }
    }
    // Fleet-level classifications follow from the per-node ones, but
    // assert them anyway — they are what campaign gates consume.
    assert_eq!(reference.brown_out_count(), candidate.brown_out_count());
    assert_eq!(
        reference.cold_start_failures(),
        candidate.cold_start_failures()
    );
    assert_eq!(
        reference.net_negative_count(),
        candidate.net_negative_count()
    );
}

#[test]
fn vectorized_holds_the_contract_against_the_oracle_across_seeds() {
    for seed in [2011_u64, 7, 404] {
        let spec = spec(24, seed);
        let ctx = FleetContext::prepare(&spec).unwrap();
        let reference = FleetRunner::new(1).run_prepared(&ctx).unwrap();
        let vectorized = run_vectorized(&FleetRunner::new(2), &ctx, TrackerKind::Focv);
        assert_contract(&reference, &vectorized, &format!("seed {seed}"));
    }
}

#[test]
fn vectorized_is_bit_identical_to_itself_across_workers_and_shards() {
    for seed in [2011_u64, 7, 404] {
        let spec = spec(24, seed);
        let ctx = FleetContext::prepare(&spec).unwrap();
        let reference = run_vectorized(&FleetRunner::new(1), &ctx, TrackerKind::Focv);
        for workers in [1_usize, 2, 4] {
            for shard_size in [1_usize, 32, 257] {
                let runner = FleetRunner::new(workers).with_shard_size(shard_size);
                let candidate = run_vectorized(&runner, &ctx, TrackerKind::Focv);
                assert_eq!(
                    reference, candidate,
                    "seed {seed}: vectorized run diverged from itself at \
                     {workers} workers, shard {shard_size}"
                );
            }
        }
    }
}

#[test]
fn vectorized_obs_counters_match_the_oracle_and_are_worker_invariant() {
    let mut spec = spec(24, 2011);
    spec.obs = true;
    let ctx = FleetContext::prepare(&spec).unwrap();
    let runner = FleetRunner::new(2).with_shard_size(8);
    let per_node = runner.run_prepared(&ctx).unwrap();
    let vectorized = run_vectorized(&runner, &ctx, TrackerKind::Focv);
    assert_contract(&per_node, &vectorized, "obs fleet");
    let a = per_node.metrics.as_ref().expect("obs run carries metrics");
    let b = vectorized
        .metrics
        .as_ref()
        .expect("obs run carries metrics");
    // Counter sums are integers, so the exact-count clause extends to
    // the merged metric store verbatim.
    for name in [
        "engine.steps",
        "engine.dwell_steps",
        "node.measurements",
        "tracker.decisions",
        "tracker.ops",
        "converter.transfer_steps",
        "fleet.nodes",
    ] {
        assert_eq!(
            a.counter(name),
            b.counter(name),
            "fleet counter {name} diverged"
        );
    }
    // Span counts are exact too; their accumulated times are energies
    // of the same bounded-divergence class as the rest.
    for name in [
        "engine.drive",
        "engine.dwell",
        "node.harvesting",
        "node.measuring",
    ] {
        let sa = a.span_stats(name).expect("oracle records span");
        let sb = b.span_stats(name).expect("vectorized records span");
        assert_eq!(sa.count, sb.count, "span {name} count diverged");
        assert!(
            rel_err(sa.sim_time().value(), sb.sim_time().value()) <= NET_ENERGY_REL,
            "span {name} time diverged"
        );
    }
    // And the vectorized engine's merged store is worker-invariant at
    // equal shard size.
    let one = run_vectorized(
        &FleetRunner::new(1).with_shard_size(8),
        &ctx,
        TrackerKind::Focv,
    );
    assert_eq!(one, vectorized, "vectorized obs run depends on workers");
}

#[test]
fn trackers_without_a_wide_lane_stay_bit_identical() {
    let ctx = FleetContext::prepare(&spec(8, 99)).unwrap();
    let runner = FleetRunner::new(2).with_shard_size(3);
    for &kind in &TrackerKind::ALL {
        if kind == TrackerKind::Focv {
            continue;
        }
        let per_node = runner.run_tracker_prepared(&ctx, kind).unwrap();
        assert_eq!(
            per_node,
            run_vectorized(&runner, &ctx, kind),
            "{}: delegation lane must stay bit-identical",
            kind.label()
        );
    }
    // The adaptive trackers hold the same bit-identity across the full
    // seed × worker × shard matrix.
    let kinds = [
        TrackerKind::VariableHoldFocv,
        TrackerKind::AdaptiveKFocv,
        TrackerKind::GradientDescent,
    ];
    for seed in [2011_u64, 7, 404] {
        let ctx = FleetContext::prepare(&spec(12, seed)).unwrap();
        for &kind in &kinds {
            let reference = FleetRunner::new(1)
                .run_tracker_prepared(&ctx, kind)
                .unwrap();
            for workers in [1_usize, 2, 4] {
                for shard_size in [1_usize, 32, 257] {
                    let runner = FleetRunner::new(workers).with_shard_size(shard_size);
                    assert_eq!(
                        reference,
                        run_vectorized(&runner, &ctx, kind),
                        "{}, seed {seed}, {workers} workers, shard {shard_size}",
                        kind.label()
                    );
                }
            }
        }
    }
}

#[test]
fn vectorized_population_path_is_prefix_stable() {
    // Growing the fleet appends nodes; the existing prefix re-simulates
    // to the exact same outcomes.
    let runner = FleetRunner::new(2);
    let run = |nodes: u32| {
        runner
            .run_engine(&spec(nodes, 2011), TrackerKind::Focv, Engine::Vectorized)
            .unwrap()
    };
    let (small, large) = (run(12), run(36));
    assert_eq!(small.outcomes.len(), 12);
    assert_eq!(
        small.outcomes.as_slice(),
        &large.outcomes[..12],
        "prefix outcomes diverged when the fleet grew"
    );
}

#[test]
fn uncached_fleets_delegate_and_stay_bit_identical() {
    let mut spec = spec(12, 7);
    spec.pv_cache = false;
    let ctx = FleetContext::prepare(&spec).unwrap();
    let runner = FleetRunner::new(2);
    let per_node = runner.run_prepared(&ctx).unwrap();
    let vectorized = run_vectorized(&runner, &ctx, TrackerKind::Focv);
    assert_eq!(
        per_node, vectorized,
        "pv_cache: false has no cursor to reuse — must take the per-node fold"
    );
}

#[test]
fn engine_aware_comparison_matrix_honours_the_contract() {
    let spec = spec(6, 5);
    let runner = FleetRunner::new(2);
    let per_node = compare_trackers_over_fleet_with(&spec, &runner, Engine::PerNode).unwrap();
    let vectorized = compare_trackers_over_fleet_with(&spec, &runner, Engine::Vectorized).unwrap();
    assert_eq!(per_node.len(), TrackerKind::ALL.len());
    assert_eq!(per_node.len(), vectorized.len());
    for ((kind_a, report_a), (kind_b, report_b)) in per_node.iter().zip(&vectorized) {
        assert_eq!(kind_a, kind_b);
        if *kind_a == TrackerKind::Focv {
            assert_contract(report_a, report_b, kind_a.label());
        } else {
            assert_eq!(report_a, report_b, "{}: delegation lane", kind_a.label());
        }
    }
}

/// FNV-1a over a canonical rendering of `report`: every per-node
/// field's bit pattern, the integer counts, and the merged metric store
/// (whose JSON export renders each `f64` in shortest round-trip form,
/// so equal digests mean equal bits).
fn digest(report: &FleetReport) -> u64 {
    use std::fmt::Write as _;
    let mut text = format!("{}|{}\n", report.name, report.tracker);
    for o in &report.outcomes {
        let r = &o.report;
        let _ = write!(
            text,
            "{} {} {} {} {} {}",
            o.id,
            o.placement.index(),
            o.cold_start_ok,
            r.tracker,
            r.measurements,
            r.decisions
        );
        for x in [
            r.duration.value(),
            r.gross_energy.value(),
            r.overhead_energy.value(),
            r.load_demand.value(),
            r.load_served.value(),
            r.final_store_energy.value(),
            r.loss_energy.value(),
            r.compute_energy.value(),
        ] {
            let _ = write!(text, " {:016x}", x.to_bits());
        }
        let node_metrics = r.metrics.as_ref().map(eh_obs::Metrics::to_json);
        let _ = writeln!(text, " {node_metrics:?}");
    }
    let merged = report.metrics.as_ref().map(eh_obs::Metrics::to_json);
    let _ = write!(text, "{merged:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Golden values of the fast engine, recorded from the lane-pack
/// implementation this engine replaced: any refactor of the FOCV fast
/// path must reproduce them bit for bit. Each row is `(fleet, dt, obs,
/// shard size, total measurements, total decisions, digest)`. The bits
/// are those of an x86-64 glibc build; a libm that rounds `ln`/`exp`
/// differently moves the digests, not the counts.
#[test]
fn vectorized_output_matches_its_recorded_golden_bits() {
    // Three small day-long fleets: five nodes at dt 1 s on a 10-minute
    // light grid; nine at dt 60 s on the reference 1-minute grid; and
    // the same nine on a battery with no load (`bat`), which takes the
    // exact store arithmetic instead of the energy-domain supercap.
    let fleet = |which: &str, dt: f64, obs: bool| {
        let (nodes, seed, decimate) = if which == "dt1" {
            (5, 2011, 600)
        } else {
            (9, 7, 60)
        };
        let mut spec = FleetSpec::mixed_indoor_outdoor(nodes, seed).unwrap();
        spec.trace_decimate = decimate;
        spec.dt = Seconds::new(dt);
        spec.obs = obs;
        if which == "bat" {
            spec.store = StoreSpec::Battery {
                capacity: Joules::new(20.0),
                charge_efficiency: 0.9,
                self_discharge_per_month: 0.03,
                initial_soc: 0.5,
            };
            spec.load = None;
        }
        spec
    };
    let expected: &[(&str, f64, bool, usize, u64, u64, u64)] = &[
        ("dt1", 1.0, false, 1, 6341, 438104, 0x387e_0c8b_6a82_f8a8),
        ("dt1", 1.0, false, 7, 6341, 438104, 0x387e_0c8b_6a82_f8a8),
        ("dt1", 1.0, true, 1, 6341, 438104, 0xcb1e_4c7b_266b_c0ca),
        ("dt1", 1.0, true, 7, 6341, 438104, 0xcb1e_4c7b_266b_c0ca),
        ("dt60", 60.0, false, 1, 6480, 19440, 0x7cc9_a4c1_81f4_4f54),
        ("dt60", 60.0, false, 7, 6480, 19440, 0x7cc9_a4c1_81f4_4f54),
        ("dt60", 60.0, true, 1, 6480, 19440, 0x2fe9_5849_4b37_8d61),
        ("dt60", 60.0, true, 7, 6480, 19440, 0x058d_5e5b_22b2_dfc7),
        ("bat", 60.0, false, 1, 6480, 19440, 0x14b7_2aa0_baef_196a),
        ("bat", 60.0, false, 7, 6480, 19440, 0x14b7_2aa0_baef_196a),
        ("bat", 60.0, true, 1, 6480, 19440, 0x5235_d279_cc86_cf21),
        ("bat", 60.0, true, 7, 6480, 19440, 0x5235_d279_cc86_cf21),
    ];
    let mut got = Vec::new();
    for (which, dt) in [("dt1", 1.0), ("dt60", 60.0), ("bat", 60.0)] {
        for obs in [false, true] {
            for shard in [1, 7] {
                let runner = FleetRunner::new(2).with_shard_size(shard);
                let report = runner
                    .run_engine(
                        &fleet(which, dt, obs),
                        TrackerKind::Focv,
                        Engine::Vectorized,
                    )
                    .unwrap();
                let measurements = report.outcomes.iter().map(|o| o.report.measurements);
                let decisions = report.outcomes.iter().map(|o| o.report.decisions);
                got.push((
                    which,
                    dt,
                    obs,
                    shard,
                    measurements.sum::<u64>(),
                    decisions.sum::<u64>(),
                    digest(&report),
                ));
            }
        }
    }
    assert_eq!(got, expected);
}
