//! Reproducibility: every stochastic element is seeded, so identical
//! configurations must give bit-identical results across the full stack.

use pv_mppt_repro::core::baselines::FocvSampleHold;
use pv_mppt_repro::core::{FocvMpptSystem, SystemConfig};
use pv_mppt_repro::env::{profiles, TimeSeries};
use pv_mppt_repro::node::NodeSimulation;
use pv_mppt_repro::pv::presets;
use pv_mppt_repro::sim::{drive, Light, StepInput, Stepper, SweepRunner};
use pv_mppt_repro::units::{Error, Lux, Seconds};

#[test]
fn profiles_are_seed_deterministic() {
    for seed in [0u64, 1, 42, u64::MAX] {
        assert_eq!(
            profiles::office_desk_mixed(seed),
            profiles::office_desk_mixed(seed)
        );
        assert_eq!(
            profiles::semi_mobile_friday(seed),
            profiles::semi_mobile_friday(seed)
        );
        assert_eq!(
            profiles::desk_weekend_blinds_closed(seed),
            profiles::desk_weekend_blinds_closed(seed)
        );
    }
}

#[test]
fn different_seeds_differ() {
    assert_ne!(
        profiles::office_desk_mixed(1).values(),
        profiles::office_desk_mixed(2).values()
    );
}

#[test]
fn full_system_runs_identically() {
    let run = || {
        let mut sys =
            FocvMpptSystem::new(SystemConfig::paper_prototype().expect("valid prototype"))
                .expect("valid system");
        sys.run_constant(Lux::new(777.0), Seconds::new(100.0), Seconds::new(0.03))
            .expect("run succeeds")
    };
    let a = run();
    let b = run();
    assert_eq!(a.pulses, b.pulses);
    assert_eq!(a.final_held_sample, b.final_held_sample);
    assert_eq!(a.stored_energy, b.stored_energy);
    assert_eq!(a.average_metrology_current, b.average_metrology_current);
}

#[test]
fn node_simulation_runs_identically() {
    let trace = profiles::semi_mobile_friday(5)
        .decimate(60)
        .expect("decimate succeeds");
    let run = || {
        let mut sim = NodeSimulation::default_for(presets::sanyo_am1815()).expect("valid config");
        let mut tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
        sim.run(&mut tracker, &trace, Seconds::new(60.0))
            .expect("run succeeds")
    };
    let a = run();
    let b = run();
    assert_eq!(a.gross_energy, b.gross_energy);
    assert_eq!(a.overhead_energy, b.overhead_energy);
    assert_eq!(a.measurements, b.measurements);
}

/// The sweep runner must return bit-identical, input-ordered results no
/// matter how many workers split the scenarios.
#[test]
fn sweep_identical_at_any_worker_count() {
    let intensities: Vec<f64> = (1..=16).map(|i| 150.0 * i as f64).collect();
    let job = |_: usize, lux: f64| {
        let mut sys =
            FocvMpptSystem::new(SystemConfig::paper_prototype().expect("valid prototype"))
                .expect("valid system");
        let report = sys
            .run_constant(Lux::new(lux), Seconds::new(80.0), Seconds::new(0.05))
            .expect("run succeeds");
        (
            report.pulses,
            report.final_held_sample,
            report.stored_energy,
            report.average_metrology_current,
        )
    };
    let serial = SweepRunner::new(1).run(intensities.clone(), job);
    for workers in [2, 4, 16] {
        let parallel = SweepRunner::new(workers).run(intensities.clone(), job);
        assert_eq!(serial, parallel, "sweep diverged at {workers} workers");
    }
}

/// Cached sweeps must be bit-identical across worker counts: the jobs
/// share one pre-warmed interpolation table (cloning a warmed cell shares
/// the surface), and pure table lookups carry no thread-dependent state.
#[test]
fn cached_sweep_identical_at_any_worker_count() {
    let cell = presets::sanyo_am1815().with_cache(true);
    cell.cached().expect("surface builds");
    let intensities: Vec<f64> = (1..=8).map(|i| 200.0 * i as f64).collect();
    let job = move |_: usize, lux: f64| {
        let mut sim = NodeSimulation::default_for(cell.clone()).expect("valid config");
        let mut tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
        let trace = profiles::constant(Lux::new(lux), Seconds::from_minutes(10.0));
        let report = sim
            .run(&mut tracker, &trace, Seconds::new(1.0))
            .expect("run succeeds");
        (
            report.gross_energy.value().to_bits(),
            report.overhead_energy.value().to_bits(),
            report.measurements,
        )
    };
    let serial = SweepRunner::new(1).run(intensities.clone(), &job);
    for workers in [2, 4] {
        let parallel = SweepRunner::new(workers).run(intensities.clone(), &job);
        assert_eq!(
            serial, parallel,
            "cached sweep diverged at {workers} workers"
        );
    }
}

/// The engine starts slice `k` at `k·dt` and ends the last slice at the
/// light's end, so a run that is a whole number of slices takes exactly
/// that many, on a non-dyadic grid too, and a run that is not ends on
/// one short slice.
#[test]
fn drive_takes_whole_slices_on_any_grid() {
    #[derive(Default)]
    struct Slices {
        count: u64,
        last: f64,
    }
    impl Stepper for Slices {
        fn step(&mut self, _t: Seconds, dt: Seconds, _input: &StepInput) -> Result<(), Error> {
            self.count += 1;
            self.last = dt.value();
            Ok(())
        }
    }
    let run = |total: f64, dt: f64| {
        let mut slices = Slices::default();
        let light = Light::constant(Lux::new(500.0), Seconds::new(total));
        let end = drive(&mut slices, &light, Seconds::new(dt)).expect("drive succeeds");
        (slices.count, slices.last, end.value())
    };
    let (count, _, end) = run(1800.0, 0.1);
    assert_eq!((count, end), (18_000, 1800.0));
    assert_eq!(run(80.0, 0.05).0, 1_600);
    assert_eq!(run(345.25, 1.0), (346, 0.25, 345.25));

    // A FOCV node takes one decision per slice plus one per PULSE: the
    // same 27 PULSEs at either step, and no extra slice at dt 0.1 s.
    let trace =
        TimeSeries::new(Seconds::ZERO, Seconds::new(1800.0), vec![1000.0; 2]).expect("valid trace");
    let decisions = |dt: f64| {
        let mut sim = NodeSimulation::default_for(presets::sanyo_am1815()).expect("valid config");
        let mut tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
        let report = sim
            .run(&mut tracker, &trace, Seconds::new(dt))
            .expect("run succeeds");
        (report.measurements, report.decisions)
    };
    assert_eq!(decisions(1.0), (27, 1_827));
    assert_eq!(decisions(0.1), (27, 18_027));
}
