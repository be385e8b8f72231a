//! The fleet determinism contract: one spec, one result — bit for bit —
//! regardless of how the work was parallelised.

use eh_fleet::{FleetRunner, FleetSpec, TrackerKind};
use eh_units::Seconds;

/// A mixed fleet on a coarse grid: big enough that shards actually
/// interleave across workers (200 nodes over 32-node shards), coarse
/// enough to keep the 4-runner comparison fast in a debug test run.
fn spec() -> FleetSpec {
    let mut spec = FleetSpec::mixed_indoor_outdoor(200, 2011).unwrap();
    spec.trace_decimate = 600;
    spec.dt = Seconds::new(600.0);
    spec
}

#[test]
fn report_is_bit_identical_across_worker_counts() {
    let spec = spec();
    let reference = FleetRunner::new(1).run(&spec).unwrap();
    assert_eq!(reference.nodes(), 200);
    for workers in [2, 4, 16] {
        let report = FleetRunner::new(workers).run(&spec).unwrap();
        // PartialEq compares every f64 of every node report: this is
        // bit-identity, not tolerance.
        assert_eq!(report, reference, "{workers} workers diverged");
    }
}

#[test]
fn report_is_bit_identical_across_shard_sizes() {
    let spec = spec();
    let reference = FleetRunner::new(4).with_shard_size(1).run(&spec).unwrap();
    for shard in [7, 32, 1000] {
        let report = FleetRunner::new(4)
            .with_shard_size(shard)
            .run(&spec)
            .unwrap();
        assert_eq!(report, reference, "shard size {shard} diverged");
    }
}

#[test]
fn derived_statistics_inherit_the_determinism() {
    let spec = spec();
    let a = FleetRunner::new(1).run(&spec).unwrap();
    let b = FleetRunner::new(16).run(&spec).unwrap();
    assert_eq!(a.net_energy_percentiles(), b.net_energy_percentiles());
    assert_eq!(a.overhead_percentiles(), b.overhead_percentiles());
    assert_eq!(a.brown_out_count(), b.brown_out_count());
    assert_eq!(a.cold_start_failures(), b.cold_start_failures());
    assert_eq!(a.worst_node().map(|w| w.id), b.worst_node().map(|w| w.id));
}

#[test]
fn baseline_replay_is_deterministic_too() {
    // The comparison path shares the runner machinery; spot-check one
    // baseline kind rather than all 11.
    let mut spec = spec();
    spec.nodes = 40;
    let a = FleetRunner::new(1)
        .run_tracker(&spec, TrackerKind::FixedVoltage)
        .unwrap();
    let b = FleetRunner::new(4)
        .run_tracker(&spec, TrackerKind::FixedVoltage)
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_fleets() {
    let mut a_spec = spec();
    a_spec.nodes = 40;
    let mut b_spec = a_spec.clone();
    b_spec.seed = a_spec.seed + 1;
    let a = FleetRunner::new(2).run(&a_spec).unwrap();
    let b = FleetRunner::new(2).run(&b_spec).unwrap();
    assert_ne!(a, b, "the seed must actually steer the population");
}
