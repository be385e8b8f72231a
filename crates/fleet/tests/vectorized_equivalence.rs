//! One stepper, one contract: the two [`Engine`] labels run the same
//! node stepper, so they must give the same bits.
//!
//! 1. Both labels give **equal** [`FleetReport`]s for every tracker
//!    kind, on cached and uncached surfaces, with metrics on and off.
//! 2. A run is **bit-identical to itself** across seeds × worker
//!    counts {1, 2, 4, 16} × shard sizes {1, 7, 32, 257, 1000}, and a
//!    different seed gives a different fleet.
//! 3. Growing the fleet leaves the outcomes of the existing prefix
//!    unchanged.
//! 4. The output of the FOCV path is pinned bit for bit by golden
//!    digests, and every tracker kind's by a second table, so a
//!    refactor of the stepper or of the trackers can show it moved no
//!    bit.
//!
//! The file keeps the name it had when a separate fast engine held a
//! bounded-divergence contract against the per-node oracle here.

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

#[test]
fn engine_labels_give_equal_reports_for_every_tracker() {
    let runner = FleetRunner::new(2).with_shard_size(3);
    for pv_cache in [true, false] {
        for obs in [false, true] {
            let mut spec = spec(8, 99);
            spec.pv_cache = pv_cache;
            spec.obs = obs;
            let per_node =
                compare_trackers_over_fleet_with(&spec, &runner, Engine::PerNode).unwrap();
            let vectorized =
                compare_trackers_over_fleet_with(&spec, &runner, Engine::Vectorized).unwrap();
            assert_eq!(per_node.len(), TrackerKind::ALL.len());
            for ((kind, a), (_, b)) in per_node.iter().zip(&vectorized) {
                assert_eq!(
                    a,
                    b,
                    "{}: engine labels diverged (pv_cache {pv_cache}, obs {obs})",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn runs_are_bit_identical_across_workers_and_shards() {
    let kinds = [
        TrackerKind::Focv,
        TrackerKind::VariableHoldFocv,
        TrackerKind::AdaptiveKFocv,
        TrackerKind::GradientDescent,
        TrackerKind::FixedVoltage,
    ];
    for seed in [2011_u64, 7, 404] {
        let ctx = FleetContext::prepare(&spec(24, seed)).unwrap();
        for kind in kinds {
            let run = |runner: FleetRunner| {
                runner
                    .run_engine_prepared(&ctx, kind, Engine::Vectorized)
                    .unwrap()
            };
            let reference = run(FleetRunner::new(1));
            for workers in [1_usize, 2, 4, 16] {
                for shard_size in [1_usize, 7, 32, 257, 1000] {
                    let candidate = run(FleetRunner::new(workers).with_shard_size(shard_size));
                    assert_eq!(
                        reference,
                        candidate,
                        "{}, seed {seed}: run diverged from itself at \
                         {workers} workers, shard {shard_size}",
                        kind.label()
                    );
                }
            }
        }
    }
}

#[test]
fn different_seeds_produce_different_fleets() {
    let runner = FleetRunner::new(2);
    let a = runner.run(&spec(40, 2011)).unwrap();
    let b = runner.run(&spec(40, 2012)).unwrap();
    assert_ne!(a, b, "the seed must actually steer the population");
}

#[test]
fn merged_metrics_are_worker_invariant() {
    let mut spec = spec(24, 2011);
    spec.obs = true;
    let ctx = FleetContext::prepare(&spec).unwrap();
    let run = |workers: usize| {
        FleetRunner::new(workers)
            .with_shard_size(8)
            .run_prepared(&ctx)
            .unwrap()
    };
    let one = run(1);
    assert!(one.metrics.is_some(), "obs run carries merged metrics");
    assert_eq!(one, run(2), "obs run depends on workers");
}

#[test]
fn population_path_is_prefix_stable() {
    // Growing the fleet appends nodes; the existing prefix re-simulates
    // to the exact same outcomes.
    let runner = FleetRunner::new(2);
    let run = |nodes: u32| runner.run(&spec(nodes, 2011)).unwrap();
    let (small, large) = (run(12), run(36));
    assert_eq!(small.outcomes.len(), 12);
    assert_eq!(
        small.outcomes.as_slice(),
        &large.outcomes[..12],
        "prefix outcomes diverged when the fleet grew"
    );
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

/// Golden values of the FOCV path: any refactor of the node stepper
/// must reproduce them bit for bit. They were first recorded from the
/// lane-pack engine that first computed this path, and re-recorded
/// once, when each PULSE folded into the slice it interrupts instead of
/// taking an engine step of its own. The obs rows were re-recorded once
/// more, when the engine's always-zero dwell counter and span left the
/// metric store; each new value is the old run's digest with those two
/// entries taken out of the metric JSON. Every digest was re-recorded
/// when the exact single-diode solver became Newton's method, which
/// moved the PV table's nodes by up to 9e-10 of `Isc` (to within 5e-15
/// of a bisection) and no count. Each row is `(fleet, dt, obs,
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
        ("dt1", 1.0, false, 1, 6345, 438345, 0x244c_f9b4_4306_6285),
        ("dt1", 1.0, false, 7, 6345, 438345, 0x244c_f9b4_4306_6285),
        ("dt1", 1.0, true, 1, 6345, 438345, 0x222f_19ed_2558_c500),
        ("dt1", 1.0, true, 7, 6345, 438345, 0x222f_19ed_2558_c500),
        ("dt60", 60.0, false, 1, 6480, 19440, 0xc8af_25c8_cb49_5547),
        ("dt60", 60.0, false, 7, 6480, 19440, 0xc8af_25c8_cb49_5547),
        ("dt60", 60.0, true, 1, 6480, 19440, 0xe3ef_d931_b6f7_3fdc),
        ("dt60", 60.0, true, 7, 6480, 19440, 0xe3ef_d931_b6f7_3fdc),
        ("bat", 60.0, false, 1, 6480, 19440, 0x886f_8fa3_8f9b_3127),
        ("bat", 60.0, false, 7, 6480, 19440, 0x886f_8fa3_8f9b_3127),
        ("bat", 60.0, true, 1, 6480, 19440, 0x5bcf_68de_4fc5_28c3),
        ("bat", 60.0, true, 7, 6480, 19440, 0x5bcf_68de_4fc5_28c3),
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

/// Golden values for every tracker kind on a small coarse fleet (eight
/// nodes, 10-minute light grid, 60 s step), cached and uncached, with
/// metrics on. Each row is `(tracker, pv_cache, total measurements,
/// total decisions, digest)`. They pin the baselines' output bit for
/// bit, as the test above pins FOCV's, so a refactor of the tracker zoo
/// can show it moved no bit. The variable-hold and adaptive-k rows were
/// re-recorded once, when those kinds began to run on each node's drawn
/// divider, astable timing and power-up phase instead of the golden
/// prototype's. The four measuring kinds' rows (FOCV, variable hold,
/// adaptive-k, fractional-Isc) were re-recorded when each PULSE folded
/// into the slice it interrupts. Every row was re-recorded when the
/// engine's always-zero dwell counter and span left the metric store,
/// each as the old run's digest with those two entries taken out of the
/// metric JSON, and every digest again, with every count unchanged,
/// when the exact single-diode solver became Newton's method and moved
/// the PV table's nodes (by up to 9e-10 of `Isc`) and the exact
/// currents (by up to 1e-14 relative).
#[test]
fn every_tracker_matches_its_recorded_golden_bits() {
    #[rustfmt::skip]
    let expected: &[(&str, bool, u64, u64, u64)] = &[
        ("focv", true, 5760, 17280, 0x2c7f_6e0e_d774_3cc0),
        ("focv-variable-hold", true, 6980, 18500, 0x1895_67af_db56_14b8),
        ("focv-adaptive-k", true, 5760, 17280, 0xd388_b702_a19b_b122),
        ("fixed-voltage", true, 0, 11520, 0x5691_8839_2213_1c41),
        ("perturb-observe", true, 0, 11520, 0xf02c_0e5f_b6a4_1e37),
        ("gradient-descent", true, 0, 11520, 0x2a7f_1bb3_001a_4851),
        ("incremental-conductance", true, 0, 11520, 0xf081_5b84_9f63_701e),
        ("fractional-isc", true, 11520, 23040, 0x7bec_6970_45e3_a448),
        ("pilot-cell", true, 0, 11520, 0x2ec6_e8f4_e61f_3673),
        ("photodetector", true, 0, 11520, 0x4c19_ce7b_a084_f611),
        ("oracle", true, 0, 11520, 0xf327_9269_03e2_e86b),
        ("focv", false, 5760, 17280, 0x8de1_c4e5_ca76_28cc),
        ("focv-variable-hold", false, 6980, 18500, 0xbc29_d64e_fb9e_32c5),
        ("focv-adaptive-k", false, 5760, 17280, 0x7ab7_d710_2a4f_8e0c),
        ("fixed-voltage", false, 0, 11520, 0x6f45_3bb0_c78e_8a56),
        ("perturb-observe", false, 0, 11520, 0x166c_2435_6f32_8546),
        ("gradient-descent", false, 0, 11520, 0x4214_5bd7_bf79_992f),
        ("incremental-conductance", false, 0, 11520, 0xeb48_20f6_f291_9d41),
        ("fractional-isc", false, 11520, 23040, 0xdc8a_f692_a216_6f40),
        ("pilot-cell", false, 0, 11520, 0x19e0_230a_dd91_10fa),
        ("photodetector", false, 0, 11520, 0x82cc_c586_e340_cd86),
        ("oracle", false, 0, 11520, 0x4ec4_eb9c_5131_4691),
    ];
    let runner = FleetRunner::new(2).with_shard_size(3);
    let mut got = Vec::new();
    for pv_cache in [true, false] {
        let mut spec = spec(8, 99);
        spec.dt = Seconds::new(60.0);
        spec.pv_cache = pv_cache;
        spec.obs = true;
        for (kind, report) in
            compare_trackers_over_fleet_with(&spec, &runner, Engine::PerNode).unwrap()
        {
            let measurements = report.outcomes.iter().map(|o| o.report.measurements);
            let decisions = report.outcomes.iter().map(|o| o.report.decisions);
            got.push((
                kind.label(),
                pv_cache,
                measurements.sum::<u64>(),
                decisions.sum::<u64>(),
                digest(&report),
            ));
        }
    }
    assert_eq!(got, expected);
}
