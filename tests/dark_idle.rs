//! A tracker with nothing to track idles: the dark must cost one engine
//! step per control step, not a night of 39 ms measurement slices.
//! Engine-step and measurement counts are deterministic, so these pins
//! are exact gates on simulated work.

use pv_mppt_repro::env::profiles;
use pv_mppt_repro::fleet::{
    compare_trackers_over_fleet_with, Engine, FleetContext, FleetReport, FleetRunner, FleetSpec,
    NodeSpec, Placement, SurfacePool, Tolerances, TrackerKind,
};
use pv_mppt_repro::serve::{Json, Op, WhatIfRequest};
use pv_mppt_repro::units::{Lux, Seconds};

fn engine_steps(report: &FleetReport) -> u64 {
    report
        .metrics
        .as_ref()
        .expect("obs fleets carry a merged store")
        .counter("engine.steps")
}

fn measurements(report: &FleetReport) -> Vec<u64> {
    report
        .outcomes
        .iter()
        .map(|o| o.report.measurements)
        .collect()
}

/// Every tracker of a `/compare` at the service defaults (dt 600 s,
/// 10-minute light grid, vectorized engine) stays within twice
/// fixed-voltage's engine steps, and the sensor-steered trackers, which
/// never disconnect the module, count no measurements.
#[test]
fn every_tracker_steps_within_twice_fixed_voltage_at_service_defaults() {
    let body = Json::parse(r#"{"nodes":8,"obs":true}"#).expect("valid JSON");
    let req = WhatIfRequest::from_json(Op::Compare, &body, 1000).expect("valid request");
    let spec = req.to_spec().expect("valid spec");
    assert_eq!((spec.dt, spec.trace_decimate), (Seconds::new(600.0), 600));
    let runner = FleetRunner::new(2).with_shard_size(req.shard_size);
    let rows = compare_trackers_over_fleet_with(&spec, &runner, req.engine).expect("compare runs");
    let row = |kind: TrackerKind| {
        &rows
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("every kind is compared")
            .1
    };
    let fixed = engine_steps(row(TrackerKind::FixedVoltage));
    assert!(fixed > 0);
    for (kind, report) in &rows {
        let steps = engine_steps(report);
        assert!(
            steps <= 2 * fixed,
            "{} took {steps} engine steps, fixed-voltage {fixed}",
            kind.label()
        );
    }
    for kind in [TrackerKind::PilotCell, TrackerKind::Photodetector] {
        let report = row(kind);
        assert!(
            measurements(report).iter().all(|&m| m == 0),
            "{} measured: {:?}",
            kind.label(),
            measurements(report)
        );
        let m = report.metrics.as_ref().expect("obs store");
        assert_eq!(m.counter("node.measurements"), 0, "{}", kind.label());
    }
}

/// The FOCV family powering up at dusk with no held sample takes its
/// power-up PULSE, holds the 0 V dark sample, and then measures once per
/// hold period (or once per step when the step outlasts the period) —
/// identically on the per-node and the vectorized engine, at dt 1 s and
/// at the service's 600 s.
#[test]
fn focv_family_powers_up_in_the_dark_measuring_once_per_hold_period() {
    let night = Seconds::from_hours(12.0);
    let dark = profiles::constant(Lux::ZERO, night);
    for dt in [1.0, 600.0] {
        let mut spec = FleetSpec::mixed_indoor_outdoor(3, 2011).expect("valid spec");
        // No tolerances: no placement lux offset lifts the dark trace.
        spec.tolerances = Tolerances::none();
        spec.dt = Seconds::new(dt);
        spec.obs = true;
        let pool = SurfacePool::warm(&spec.cell, Placement::ALL, spec.pv_cache).expect("warms");
        let traces = [Some(dark.clone()), Some(dark.clone()), Some(dark.clone())];
        let ctx = FleetContext::prepare_with_environment(&spec, traces, pool).expect("prepares");
        // Power-up with a discharged hold capacitor and no sample yet.
        let nodes: Vec<NodeSpec> = ctx
            .population()
            .iter()
            .cloned()
            .map(|mut n| {
                n.phase_offset = Seconds::ZERO;
                n
            })
            .collect();
        for kind in [
            TrackerKind::Focv,
            TrackerKind::VariableHoldFocv,
            TrackerKind::AdaptiveKFocv,
        ] {
            let per_node = ctx
                .simulate_shard(kind, Engine::PerNode, nodes.clone())
                .expect("per-node run");
            let vectorized = ctx
                .simulate_shard(kind, Engine::Vectorized, nodes.clone())
                .expect("vectorized run");
            assert_eq!(
                measurements(&per_node),
                measurements(&vectorized),
                "{} dt {dt}",
                kind.label()
            );
            assert_eq!(engine_steps(&per_node), engine_steps(&vectorized));
            let mut measured = 0;
            for (node, m) in nodes.iter().zip(measurements(&per_node)) {
                // All three kinds run on the node's drawn astable.
                let period = node.sample_period.value().max(dt);
                let bound = (night.value() / period).ceil() as u64 + 1;
                assert!(
                    (1..=bound).contains(&m),
                    "{} dt {dt}: {m} measurements, one per {period} s allows {bound}",
                    kind.label()
                );
                measured += m;
            }
            let control_steps = nodes.len() as u64 * (night.value() / dt).ceil() as u64;
            assert!(
                engine_steps(&per_node) <= control_steps + measured + nodes.len() as u64,
                "{} dt {dt}: {} engine steps for {control_steps} control steps",
                kind.label(),
                engine_steps(&per_node)
            );
        }
    }
}

/// A PULSE folds into the slice it interrupts, so a FOCV fleet takes
/// exactly one engine step per control slice however often it
/// measures: 144 per node-day at dt 600 s, where every slice outlasts
/// the ~69 s hold and measures once, and 1,440 at dt 60 s on the 60 s
/// light grid, where every second slice measures (each node's drawn
/// hold period lies between one and two slices). Each PULSE costs one
/// extra tracker decision instead of an engine step.
#[test]
fn focv_takes_one_engine_step_per_control_slice() {
    for (dt, slices, measured_per_node) in [(600_u32, 144_u64, 144_u64), (60, 1440, 720)] {
        let mut spec = FleetSpec::mixed_indoor_outdoor(8, 2011).expect("valid spec");
        spec.trace_decimate = dt as usize;
        spec.dt = Seconds::new(f64::from(dt));
        spec.obs = true;
        let report = FleetRunner::new(2).run(&spec).expect("fleet runs");
        let nodes = report.outcomes.len() as u64;
        assert_eq!(engine_steps(&report), slices * nodes, "dt {dt}");
        let m = report.metrics.as_ref().expect("obs store");
        let per_node = measurements(&report);
        assert_eq!(per_node, vec![measured_per_node; 8], "dt {dt}");
        let measured: u64 = per_node.iter().sum();
        assert_eq!(m.counter("tracker.decisions"), slices * nodes + measured);
    }
}
