//! Reproducibility: every stochastic element is seeded, so identical
//! configurations must give bit-identical results across the full stack.

use pv_mppt_repro::core::baselines::FocvSampleHold;
use pv_mppt_repro::core::{FocvMpptSystem, SystemConfig};
use pv_mppt_repro::env::profiles;
use pv_mppt_repro::node::{NodeSimulation, SimConfig};
use pv_mppt_repro::pv::presets;
use pv_mppt_repro::sim::{drive, Light, SimError, StepInput, StepOutput, Stepper, SweepRunner};
use pv_mppt_repro::units::{Lux, Seconds};

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
        let mut sim = NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap())
            .expect("valid config");
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
        let cfg = SimConfig::default_for(cell.clone()).expect("valid config");
        let mut sim = NodeSimulation::new(cfg).expect("valid sim");
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

/// A measurement step that returns a short dwell advances the engine
/// clock by exactly that dwell, not the planned dt.
#[test]
fn dwell_accounting_advances_by_actual_dwell() {
    struct DwellEveryFifth {
        steps: usize,
        advanced: f64,
    }
    impl Stepper for DwellEveryFifth {
        type Error = SimError;
        fn step(
            &mut self,
            _t: Seconds,
            dt: Seconds,
            _input: &StepInput,
        ) -> Result<StepOutput, SimError> {
            self.steps += 1;
            let out = if self.steps.is_multiple_of(5) {
                // 39 ms PULSE-style dwell, far shorter than the planned dt.
                StepOutput::dwell(Seconds::from_milli(2.0).min(dt))
            } else {
                StepOutput::full(dt)
            };
            self.advanced += out.advanced.value();
            Ok(out)
        }
    }

    let mut stepper = DwellEveryFifth {
        steps: 0,
        advanced: 0.0,
    };
    let total = drive(
        &mut stepper,
        &Light::constant(Lux::new(500.0), Seconds::new(1.0)),
        Seconds::from_milli(10.0),
    )
    .expect("drive succeeds");
    // The engine clock is the sum of the per-step advances…
    assert!((total.value() - stepper.advanced).abs() < 1e-12);
    // …and short dwells mean more steps than total/dt would suggest.
    assert!(stepper.steps > 100, "only {} steps", stepper.steps);
    // Every fifth step advanced 2 ms instead of 10 ms, so the run needs
    // 1 s / (4·10 ms + 2 ms per 5 steps) ≈ 119 full cycles of 5.
    assert!((total.value() - 1.0).abs() < 0.01);
}
