//! Property-based tests on the closed-loop node engine.

use eh_core::baselines::{FocvSampleHold, Oracle};
use eh_env::profiles;
use eh_node::{
    DutyCycledLoad, EnergyDomainSupercap, EnergyStore, IdealStore, NodeSimulation, SimConfig,
    Supercapacitor,
};
use eh_pv::presets;
use eh_units::{Farads, Joules, Lux, Seconds, Volts};
use proptest::prelude::*;

/// Relative disagreement with a floor so near-empty stores compare on an
/// absolute scale (a drained voltage-domain supercap can carry a ~1e-17 J
/// rounding residue where the energy-domain clamp hits exactly zero; the
/// stores under test hold O(1) J, so a 1e-3 J floor keeps the comparison
/// relative everywhere that matters).
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Gross energy and overhead are non-negative; uptime is a valid
    /// fraction; with no load the demand is zero.
    #[test]
    fn report_sanity(lux in 0.0..20_000.0f64, minutes in 2.0..30.0f64) {
        let trace = profiles::constant(Lux::new(lux), Seconds::from_minutes(minutes));
        let mut sim = NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap())
            .expect("valid config");
        let mut tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
        let report = sim.run(&mut tracker, &trace, Seconds::new(1.0)).expect("run succeeds");
        prop_assert!(report.gross_energy.value() >= 0.0);
        prop_assert!(report.overhead_energy.value() > 0.0);
        prop_assert_eq!(report.load_demand, Joules::ZERO);
        let u = report.uptime().value();
        prop_assert!((0.0..=1.0).contains(&u));
    }

    /// The oracle's gross harvest dominates the FOCV tracker's on the
    /// same scenario (it is the upper bound by construction).
    #[test]
    fn oracle_dominates(lux in 100.0..10_000.0f64) {
        let trace = profiles::constant(Lux::new(lux), Seconds::from_minutes(10.0));
        let run = |tracker: &mut dyn eh_core::MpptController| {
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap())
                .expect("valid config")
                .run(tracker, &trace, Seconds::new(1.0))
                .expect("run succeeds")
        };
        let focv = run(&mut FocvSampleHold::paper_prototype().expect("valid tracker"));
        let oracle = run(&mut Oracle::new(presets::sanyo_am1815()));
        prop_assert!(oracle.gross_energy.value() >= focv.gross_energy.value() - 1e-12);
    }

    /// Harvest scales (sub-)linearly with illuminance: more light never
    /// yields less gross energy.
    #[test]
    fn gross_monotone_in_light(lux in 100.0..5_000.0f64, factor in 1.2..4.0f64) {
        let run = |l: f64| {
            let trace = profiles::constant(Lux::new(l), Seconds::from_minutes(10.0));
            NodeSimulation::new(SimConfig::default_for(presets::sanyo_am1815()).unwrap())
                .expect("valid config")
                .run(
                    &mut FocvSampleHold::paper_prototype().expect("valid tracker"),
                    &trace,
                    Seconds::new(1.0),
                )
                .expect("run succeeds")
                .gross_energy
        };
        prop_assert!(run(lux * factor).value() >= run(lux).value());
    }

    /// A supercapacitor store conserves energy: what went in minus what
    /// came out (and leaked) equals what remains, within tolerance.
    #[test]
    fn supercap_conservation(deposits in proptest::collection::vec(0.0..0.2f64, 1..20)) {
        let mut sc = Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::new(1.8))
            .expect("valid supercap")
            .with_leakage(eh_units::Amps::ZERO);
        let mut in_total = 0.0;
        let mut out_total = 0.0;
        for (n, d) in deposits.iter().enumerate() {
            if n % 3 == 2 {
                out_total += sc.withdraw(Joules::new(*d)).value();
            } else {
                in_total += sc.deposit(Joules::new(*d)).value();
            }
        }
        let remaining = sc.stored_energy().value();
        prop_assert!((in_total - out_total - remaining).abs() < 1e-9,
            "in {in_total} out {out_total} left {remaining}");
    }

    /// IdealStore round-trips exactly.
    #[test]
    fn ideal_store_round_trip(amounts in proptest::collection::vec(0.0..10.0f64, 1..20)) {
        let mut store = IdealStore::new();
        let mut balance = 0.0;
        for a in amounts {
            store.deposit(Joules::new(a));
            balance += a;
        }
        let got = store.withdraw(Joules::new(balance * 2.0));
        prop_assert!((got.value() - balance).abs() < 1e-9);
        prop_assert_eq!(store.stored_energy(), Joules::ZERO);
    }

    /// The energy-domain supercap tracks the voltage-domain store within
    /// rel 1e-12 over arbitrary deposit/withdraw/leak sequences — the
    /// divergence bound the vectorized fleet engine's contract leans on.
    #[test]
    fn energy_domain_supercap_tracks_voltage_domain(
        initial in 1.8..5.0f64,
        ops in proptest::collection::vec(0u32..3, 1..200),
        xs in proptest::collection::vec(0.0..0.05f64, 1..200),
    ) {
        let mut slow = Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8))
            .expect("valid supercap")
            .with_initial_voltage(Volts::new(initial));
        let mut fast = EnergyDomainSupercap::from_supercapacitor(&slow);
        for (&op, &x) in ops.iter().zip(&xs) {
            let (a, b) = match op {
                0 => (slow.deposit(Joules::new(x)), fast.deposit(Joules::new(x))),
                1 => (slow.withdraw(Joules::new(x)), fast.withdraw(Joules::new(x))),
                _ => {
                    // Scale the draw into leak hours.
                    slow.leak(Seconds::from_hours(x * 100.0));
                    fast.leak(Seconds::from_hours(x * 100.0));
                    (Joules::ZERO, Joules::ZERO)
                }
            };
            prop_assert!(rel_err(a.value(), b.value()) < 1e-12, "op result diverged");
            prop_assert!(
                rel_err(slow.stored_energy().value(), fast.stored_energy().value()) < 1e-12,
                "state diverged: {} vs {}",
                slow.stored_energy().value(),
                fast.stored_energy().value()
            );
            prop_assert!(rel_err(slow.voltage().value(), fast.voltage().value()) < 1e-12);
        }
        prop_assert!(
            (slow.state_of_charge().value() - fast.state_of_charge().value()).abs() < 1e-12
        );
    }

    /// The same bound holds from the campaign's worn-store deployment
    /// path: a derated capacitance `C_worn` re-deployed at the voltage
    /// that preserves the pre-wear stored energy,
    /// `v₀ = √(v_min² + 2E/C_worn)`.
    #[test]
    fn energy_domain_supercap_tracks_worn_store(
        stored in 0.0..2.0f64,
        derate in 0.5..1.0f64,
        ops in proptest::collection::vec(0u32..3, 1..100),
        xs in proptest::collection::vec(0.0..0.05f64, 1..100),
    ) {
        let c_worn = 0.22 * derate;
        let v0 = (1.8f64.powi(2) + 2.0 * stored / c_worn).sqrt();
        let mut slow = Supercapacitor::new(Farads::new(c_worn), Volts::new(5.0), Volts::new(1.8))
            .expect("valid supercap")
            .with_initial_voltage(Volts::new(v0));
        let mut fast = EnergyDomainSupercap::from_supercapacitor(&slow);
        prop_assert!(
            rel_err(slow.stored_energy().value(), fast.stored_energy().value()) < 1e-12
        );
        for (&op, &x) in ops.iter().zip(&xs) {
            match op {
                0 => {
                    slow.deposit(Joules::new(x));
                    fast.deposit(Joules::new(x));
                }
                1 => {
                    slow.withdraw(Joules::new(x));
                    fast.withdraw(Joules::new(x));
                }
                _ => {
                    slow.leak(Seconds::from_hours(x * 100.0));
                    fast.leak(Seconds::from_hours(x * 100.0));
                }
            }
            prop_assert!(
                rel_err(slow.stored_energy().value(), fast.stored_energy().value()) < 1e-12,
                "worn store diverged"
            );
        }
    }

    /// The prefix-sum [`eh_node::LoadEnergyProfile`] tracks the
    /// absolute-clock walk per step and cumulatively over random step
    /// sequences — the load half of the vectorized engine's
    /// bounded-divergence budget.
    #[test]
    fn energy_profile_tracks_clock_demand(
        dts in proptest::collection::vec(0.001..120.0f64, 1..500),
    ) {
        let load = DutyCycledLoad::typical_sensor_node().expect("valid load");
        let profile = load.energy_profile();
        let mut pos = 0.0f64;
        let mut t = 0.0f64;
        let (mut sum_clock, mut sum_profile) = (0.0f64, 0.0f64);
        for dt in dts {
            let clock = load.energy_demand(Seconds::new(t), Seconds::new(dt)).value();
            let step = profile.energy_over(&mut pos, Seconds::new(dt)).value();
            // Per-step error is a cancellation residue of the cycle
            // energy (~1e-19 J here), far under any step's demand.
            prop_assert!((clock - step).abs() < 1e-12,
                "per-step load divergence at t={t}: {clock} vs {step}");
            sum_clock += clock;
            sum_profile += step;
            t += dt;
        }
        prop_assert!(rel_err(sum_clock, sum_profile) < 1e-9,
            "cumulative load divergence: {sum_clock} vs {sum_profile}");
    }
}

/// The prefix-sum profile agrees with the absolute-clock walk over a
/// multi-year step count at the fleet's FOCV cadence — the long-horizon
/// guarantee `LoadEnergyProfile`'s docs promise.
#[test]
fn energy_profile_matches_clock_walk_over_two_years() {
    let load = DutyCycledLoad::typical_sensor_node().expect("valid load");
    let profile = load.energy_profile();
    let mut pos = 0.0f64;
    let mut t = 0.0f64;
    let (mut sum_clock, mut sum_profile) = (0.0f64, 0.0f64);
    let steps = 2 * 365 * 1440; // two years of 60 s steps
    for i in 0..steps {
        // Every third step is a 39 ms measurement dwell, like FOCV.
        let dt = Seconds::new(if i % 3 == 0 { 0.039 } else { 60.0 });
        sum_clock += load.energy_demand(Seconds::new(t), dt).value();
        sum_profile += profile.energy_over(&mut pos, dt).value();
        t += dt.value();
    }
    let rel = (sum_clock - sum_profile).abs() / sum_clock.abs();
    assert!(
        rel < 1e-9,
        "two-year load divergence: {sum_clock} vs {sum_profile} (rel {rel:e})"
    );
    let period = profile.period();
    assert!((0.0..period).contains(&pos), "position stays in cycle");
}
