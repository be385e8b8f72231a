//! Property-based tests on the full-system invariants.

use eh_core::baselines::{
    AdaptiveKFocv, FixedVoltage, FocvSampleHold, FractionalIsc, GradientDescentMppt,
    IncrementalConductance, Oracle, PerturbObserve, Photodetector, PilotCell, VariableHoldFocv,
};
use eh_core::{FocvMpptSystem, MpptController, Observation, SystemConfig, TrackerCommand};
use eh_units::{Amps, Lux, Seconds, Volts, Watts};
use proptest::prelude::*;

/// One tracker of each of the 11 kinds, at its default configuration.
fn every_tracker() -> Vec<Box<dyn MpptController>> {
    let cell = eh_pv::presets::sanyo_am1815();
    vec![
        Box::new(FocvSampleHold::paper_prototype().expect("valid tracker")),
        Box::new(VariableHoldFocv::eq2_tuned().expect("valid tracker")),
        Box::new(AdaptiveKFocv::paper_tuned().expect("valid tracker")),
        Box::new(FixedVoltage::indoor_tuned().expect("valid tracker")),
        Box::new(PerturbObserve::literature_default().expect("valid tracker")),
        Box::new(GradientDescentMppt::literature_default().expect("valid tracker")),
        Box::new(IncrementalConductance::literature_default().expect("valid tracker")),
        Box::new(FractionalIsc::literature_default().expect("valid tracker")),
        Box::new(PilotCell::literature_default(cell.clone()).expect("valid tracker")),
        Box::new(Photodetector::literature_default().expect("valid tracker")),
        Box::new(Oracle::new(cell)),
    ]
}

fn charged_system() -> FocvMpptSystem {
    let mut cfg = SystemConfig::paper_prototype().expect("valid prototype");
    cfg.cold_start.set_rail_voltage(Volts::new(3.3));
    FocvMpptSystem::new(cfg).expect("valid system")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At any steady illuminance the measured k lands in the Table I
    /// band once a sample has been taken.
    #[test]
    fn k_band_holds_across_intensities(lux in 150.0..20_000.0f64) {
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(lux), Seconds::new(80.0), Seconds::new(0.05))
            .expect("run succeeds");
        let k = report.measured_k.as_percent();
        prop_assert!((57.5..61.5).contains(&k), "k({lux}) = {k}");
    }

    /// Stored energy is always non-negative and bounded by PV energy.
    #[test]
    fn energy_book_keeping(lux in 0.0..30_000.0f64, seconds in 10.0..200.0f64) {
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(lux), Seconds::new(seconds), Seconds::new(0.1))
            .expect("run succeeds");
        prop_assert!(report.stored_energy.value() >= 0.0);
        prop_assert!(report.stored_energy.value() <= report.pv_energy.value() + 1e-12);
    }

    /// The metrology draw is independent of light level (it runs from
    /// the rail, not the cell) — within the pulse-phase jitter.
    #[test]
    fn metrology_draw_is_light_independent(lux in 300.0..20_000.0f64) {
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(lux), Seconds::new(150.0), Seconds::new(0.05))
            .expect("run succeeds");
        let ua = report.average_metrology_current.as_micro();
        prop_assert!((6.8..8.8).contains(&ua), "draw({lux}) = {ua} µA");
    }

    /// The behavioural FOCV tracker's commanded voltage never exceeds
    /// the Voc it was given.
    #[test]
    fn focv_target_below_voc(voc in 0.5..8.0f64) {
        let mut tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
        // Measure step, then feed the measured Voc.
        tracker.step(&Observation::at(Seconds::ZERO), Seconds::new(1.0));
        let obs = Observation {
            voc_measurement: Some(Volts::new(voc)),
            ..Observation::at(Seconds::new(1.0))
        };
        let cmd = tracker.step(&obs, Seconds::new(1.0));
        if let TrackerCommand::Connect(v) = cmd {
            prop_assert!(v.value() < voc);
            prop_assert!(v.value() > 0.0);
        } else {
            prop_assert!(false, "expected a connect command");
        }
    }

    /// P&O's target always stays inside its clamp window, whatever the
    /// power sequence.
    #[test]
    fn perturb_observe_stays_clamped(powers in proptest::collection::vec(0.0..1e-3f64, 1..60)) {
        let mut t = PerturbObserve::literature_default().expect("valid tracker");
        for p in powers {
            let obs = Observation {
                pv_power: Watts::new(p),
                pv_voltage: t.target(),
                pv_current: Amps::new(p / t.target().value().max(0.1)),
                ..Observation::at(Seconds::ZERO)
            };
            let cmd = t.step(&obs, Seconds::from_milli(100.0));
            let v = cmd.target_voltage().expect("P&O stays connected");
            prop_assert!((0.1..=8.0).contains(&v.value()), "target = {v}");
        }
    }

    /// Under a perfectly steady scene (constant Voc ⇒ zero measured
    /// volatility), the variable-hold tracker is the fixed 69 s
    /// sample-and-hold, bit for bit, whatever step sizes drive it.
    #[test]
    fn variable_hold_degenerates_to_fixed_focv_at_zero_volatility(
        voc in 0.5..8.0f64,
        dts in proptest::collection::vec(0.01..120.0f64, 20..120),
    ) {
        let mut adaptive = VariableHoldFocv::eq2_tuned().expect("valid tracker");
        let mut fixed = FocvSampleHold::paper_prototype().expect("valid tracker");
        let mut measuring = false;
        for (i, dt) in dts.iter().enumerate() {
            let obs = Observation {
                voc_measurement: measuring.then(|| Volts::new(voc)),
                ..Observation::at(Seconds::ZERO)
            };
            let a = adaptive.step(&obs, Seconds::new(*dt));
            let f = fixed.step(&obs, Seconds::new(*dt));
            prop_assert_eq!(
                a.target_voltage().map(|v| v.value().to_bits()),
                f.target_voltage().map(|v| v.value().to_bits()),
                "step {}: {:?} vs {:?}", i, a, f
            );
            measuring = !a.is_connect();
        }
        prop_assert_eq!(adaptive.volatility(), 0.0);
        prop_assert_eq!(
            adaptive.current_period().value().to_bits(),
            adaptive.base_period().value().to_bits()
        );
    }

    /// Every tracker's overhead power is constant for its lifetime,
    /// as [`MpptController::overhead_power`] documents and the node
    /// engine relies on when it reads the value once per run: random
    /// observations and step sizes never change it. Each command's
    /// reading comes back in the next observation, as the engine
    /// delivers it, so the sampling trackers walk their whole schedule.
    #[test]
    fn overhead_power_is_constant_for_the_trackers_lifetime(
        draws in proptest::collection::vec(0.0..1.0f64, 4..400),
    ) {
        for mut tracker in every_tracker() {
            let overhead = tracker.overhead_power().value().to_bits();
            let mut last = None;
            let mut time = Seconds::ZERO;
            for (i, d) in draws.chunks_exact(4).enumerate() {
                let v = Volts::new(8.0 * d[0]);
                let current = Amps::from_micro(500.0 * d[1]);
                let obs = Observation {
                    time,
                    pv_voltage: v,
                    pv_current: current,
                    pv_power: v * current,
                    voc_measurement: (last == Some(TrackerCommand::MeasureVoc)).then_some(v),
                    isc_measurement: (last == Some(TrackerCommand::MeasureIsc)).then_some(current),
                    ambient_lux: tracker
                        .requires_light_sensor()
                        .then(|| Lux::new(20_000.0 * d[2])),
                };
                let dt = Seconds::new(0.01 + 600.0 * d[3]);
                last = Some(tracker.step(&obs, dt));
                time += dt;
                prop_assert_eq!(
                    tracker.overhead_power().value().to_bits(),
                    overhead,
                    "{} after step {}", tracker.name(), i
                );
            }
        }
    }

    /// The oracle never commands above the cell's open-circuit voltage.
    #[test]
    fn oracle_commands_are_feasible(lux in 0.0..50_000.0f64) {
        let cell = eh_pv::presets::sanyo_am1815();
        let mut oracle = Oracle::new(cell.clone());
        let obs = Observation {
            ambient_lux: Some(Lux::new(lux)),
            ..Observation::at(Seconds::ZERO)
        };
        let cmd = oracle.step(&obs, Seconds::new(1.0));
        let v = cmd.target_voltage().expect("oracle always connects");
        let voc = cell.open_circuit_voltage(Lux::new(lux)).expect("solver converges");
        prop_assert!(v <= voc);
    }
}
