//! Cross-crate integration for the eh-obs metrics layer: opt-in
//! recording through the facade at circuit and node scale, the
//! energy-ledger conservation invariant, and the exporters. The fleet
//! store's worker invariance is a property of eh-fleet
//! (`crates/fleet/tests/properties.rs`).

use pv_mppt_repro::core::{FocvMpptSystem, SystemConfig};
use pv_mppt_repro::node::{DutyCycledLoad, NodeSimulation, SimConfig};
use pv_mppt_repro::obs::{EnergyBucket, Metrics};
use pv_mppt_repro::pv::presets;
use pv_mppt_repro::units::{Joules, Lux, Seconds};

/// The circuit layer records pulses, cold-start events and the
/// metrology energy split — and only when asked to.
#[test]
fn circuit_metrics_through_the_facade() {
    let mut cfg = SystemConfig::paper_prototype().expect("paper constants");
    cfg.obs = true;
    let mut sys = FocvMpptSystem::new(cfg).expect("valid system");
    let report = sys
        .run_constant(Lux::new(1000.0), Seconds::new(120.0), Seconds::new(0.05))
        .expect("run completes");
    let metrics = sys.take_metrics().expect("obs run collects metrics");
    assert_eq!(metrics.counter("core.pulses"), report.pulses);
    assert_eq!(metrics.counter("core.rail_up"), 1);
    assert!(metrics.ledger().energy(EnergyBucket::Astable).value() > 0.0);

    let mut plain = FocvMpptSystem::new(SystemConfig::paper_prototype().expect("paper constants"))
        .expect("valid system");
    plain
        .run_constant(Lux::new(1000.0), Seconds::new(120.0), Seconds::new(0.05))
        .expect("run completes");
    assert!(plain.take_metrics().is_none(), "metrics are opt-in");
}

/// A node-day run conserves energy across the five ledger buckets and
/// both exporters render every section.
#[test]
fn node_ledger_conserves_and_exports() {
    let cell = presets::sanyo_am1815();
    let trace = pv_mppt_repro::env::profiles::office_desk_mixed(7)
        .decimate(60)
        .expect("decimates");
    let cfg = SimConfig::default_for(cell)
        .expect("valid config")
        .with_load(DutyCycledLoad::typical_sensor_node().expect("valid load"))
        .with_obs(true);
    let mut sim = NodeSimulation::new(cfg).expect("valid sim");
    let mut tracker =
        pv_mppt_repro::core::baselines::FocvSampleHold::paper_prototype().expect("paper constants");
    let report = sim
        .run(&mut tracker, &trace, Seconds::new(60.0))
        .expect("run completes");
    let metrics = report.metrics.expect("obs run collects metrics");

    let closed_loop = report.overhead_energy.value()
        + report.loss_energy.value()
        + report.load_served.value()
        + report.compute_energy.value();
    let rel = metrics.ledger().relative_error(Joules::new(closed_loop));
    assert!(rel < 1e-9, "ledger drifts from closed loop: {rel:.3e}");

    let json = metrics.to_json();
    for key in [
        "\"counters\"",
        "\"spans\"",
        "\"energy_ledger_j\"",
        "\"astable\"",
    ] {
        assert!(json.contains(key), "JSON export missing {key}: {json}");
    }
    let table = metrics.to_table();
    assert!(
        table.contains("energy ledger"),
        "table export misses the ledger:\n{table}"
    );
    assert!(
        table.contains("node.measurements"),
        "table export misses counters:\n{table}"
    );
}

/// The metric store's recording API is usable stand-alone (no
/// simulation at all).
#[test]
fn recorder_api_stand_alone() {
    let mut metrics = Metrics::default();
    metrics.add_counter("events", 2);
    metrics.charge(EnergyBucket::Load, Joules::new(1.5));
    assert_eq!(metrics.counter("events"), 2);
}
