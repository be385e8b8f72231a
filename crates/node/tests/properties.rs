//! Property-based tests on the closed-loop node engine.

use eh_core::baselines::{FocvSampleHold, Oracle};
use eh_env::profiles;
use eh_node::{DutyCycledLoad, EnergyStore, IdealStore, NodeSimulation, SimConfig, Supercapacitor};
use eh_pv::presets;
use eh_units::{Farads, Joules, Lux, Seconds, Volts};
use proptest::prelude::*;

/// Relative disagreement with a floor so near-empty stores compare on an
/// absolute scale (a drained voltage-domain store can carry a ~1e-17 J
/// rounding residue where the energy-domain clamp hits exactly zero; the
/// stores under test hold O(1) J, so a 1e-3 J floor keeps the comparison
/// relative everywhere that matters).
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-3)
}

/// A supercapacitor by its voltage-domain closed forms, the reference
/// the energy-domain [`Supercapacitor`] is pinned against: stored energy
/// `½CV²` between `v_min` and `v_max`, and a constant leakage current
/// that lowers the voltage by `I·t/C`.
struct VoltageDomain {
    c: f64,
    v_max: f64,
    v_min: f64,
    leakage: f64,
    v: f64,
}

impl VoltageDomain {
    /// The 2 µA-leakage reference at `v0`, clamped into the window.
    fn new(c: f64, v_max: f64, v_min: f64, v0: f64) -> Self {
        let v = v0.clamp(v_min, v_max);
        Self {
            c,
            v_max,
            v_min,
            leakage: 2e-6,
            v,
        }
    }

    fn energy_at(&self, v: f64) -> f64 {
        0.5 * self.c * v * v
    }

    fn set_energy(&mut self, e: f64) {
        self.v = (2.0 * e / self.c).max(0.0).sqrt();
    }

    fn deposit(&mut self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let now = self.energy_at(self.v);
        let absorbed = x.min(self.energy_at(self.v_max) - now);
        self.set_energy(now + absorbed);
        absorbed
    }

    fn withdraw(&mut self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let now = self.energy_at(self.v);
        let supplied = x.min((now - self.energy_at(self.v_min)).max(0.0));
        self.set_energy(now - supplied);
        supplied
    }

    fn leak(&mut self, t: f64) {
        self.v = (self.v - self.leakage * t / self.c).max(0.0);
    }

    fn stored_energy(&self) -> f64 {
        (self.energy_at(self.v) - self.energy_at(self.v_min)).max(0.0)
    }
}

/// Applies one op to both stores and checks the op result and the
/// state against the reference at rel 1e-12.
fn step_both(store: &mut Supercapacitor, reference: &mut VoltageDomain, op: u32, x: f64) {
    let (a, b) = match op {
        0 => (store.deposit(Joules::new(x)).value(), reference.deposit(x)),
        1 => (
            store.withdraw(Joules::new(x)).value(),
            reference.withdraw(x),
        ),
        _ => {
            // Scale the draw into leak hours.
            store.leak(Seconds::from_hours(x * 100.0));
            reference.leak(x * 100.0 * 3600.0);
            (0.0, 0.0)
        }
    };
    assert!(rel_err(a, b) < 1e-12, "op {op} result: {a} vs {b}");
    let (e, r) = (store.stored_energy().value(), reference.stored_energy());
    assert!(rel_err(e, r) < 1e-12, "state diverged: {e} vs {r}");
    assert!(rel_err(store.voltage().value(), reference.v) < 1e-12);
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

    /// The energy-domain supercap tracks the voltage-domain closed forms
    /// within rel 1e-12 over arbitrary deposit/withdraw/leak sequences.
    #[test]
    fn supercap_tracks_voltage_domain_closed_forms(
        initial in 1.8..5.0f64,
        ops in proptest::collection::vec(0u32..3, 1..200),
        xs in proptest::collection::vec(0.0..0.05f64, 1..200),
    ) {
        let mut store = Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8))
            .expect("valid supercap")
            .with_initial_voltage(Volts::new(initial));
        let mut reference = VoltageDomain::new(0.22, 5.0, 1.8, initial);
        for (&op, &x) in ops.iter().zip(&xs) {
            step_both(&mut store, &mut reference, op, x);
        }
        let usable = 0.5 * 0.22 * (25.0 - 1.8 * 1.8);
        let soc = (reference.stored_energy() / usable).clamp(0.0, 1.0);
        prop_assert!((store.state_of_charge().value() - soc).abs() < 1e-12);
    }

    /// The same bound holds from the campaign's worn-store deployment
    /// path: a derated capacitance `C_worn` re-deployed at the voltage
    /// that preserves the pre-wear stored energy,
    /// `v₀ = √(v_min² + 2E/C_worn)`.
    #[test]
    fn supercap_tracks_closed_forms_from_a_worn_deployment(
        stored in 0.0..2.0f64,
        derate in 0.5..1.0f64,
        ops in proptest::collection::vec(0u32..3, 1..100),
        xs in proptest::collection::vec(0.0..0.05f64, 1..100),
    ) {
        let c_worn = 0.22 * derate;
        let v0 = (1.8f64.powi(2) + 2.0 * stored / c_worn).sqrt();
        let mut store = Supercapacitor::new(Farads::new(c_worn), Volts::new(5.0), Volts::new(1.8))
            .expect("valid supercap")
            .with_initial_voltage(Volts::new(v0));
        let mut reference = VoltageDomain::new(c_worn, 5.0, 1.8, v0);
        prop_assert!(
            rel_err(store.stored_energy().value(), reference.stored_energy()) < 1e-12
        );
        for (&op, &x) in ops.iter().zip(&xs) {
            step_both(&mut store, &mut reference, op, x);
        }
    }

    /// The carried-position load draw tracks the absolute-clock walk
    /// per step and cumulatively over random step sequences.
    #[test]
    fn carried_position_draw_tracks_clock_demand(
        dts in proptest::collection::vec(0.001..120.0f64, 1..500),
    ) {
        let load = DutyCycledLoad::typical_sensor_node().expect("valid load");
        let mut pos = 0.0f64;
        let mut t = 0.0f64;
        let (mut sum_clock, mut sum_carried) = (0.0f64, 0.0f64);
        for dt in dts {
            let clock = load.energy_demand(Seconds::new(t), Seconds::new(dt)).value();
            let step = load.energy_over(&mut pos, Seconds::new(dt)).value();
            // Per-step error is a cancellation residue of the cycle
            // energy (~1e-19 J here), far under any step's demand.
            prop_assert!((clock - step).abs() < 1e-12,
                "per-step load divergence at t={t}: {clock} vs {step}");
            sum_clock += clock;
            sum_carried += step;
            t += dt;
        }
        prop_assert!(rel_err(sum_clock, sum_carried) < 1e-9,
            "cumulative load divergence: {sum_clock} vs {sum_carried}");
    }
}

/// The carried-position draw agrees in total with the absolute-clock
/// walk over a two-year step count at the fleet's FOCV cadence. Per
/// step the two drift apart by the clock's rounding of `t` (a phase
/// shift moves energy between neighbouring steps), so the total is the
/// quantity to compare.
#[test]
fn carried_position_draw_matches_clock_walk_over_two_years() {
    let load = DutyCycledLoad::typical_sensor_node().expect("valid load");
    let mut pos = 0.0f64;
    let mut t = 0.0f64;
    let (mut sum_clock, mut sum_carried) = (0.0f64, 0.0f64);
    let steps = 2 * 365 * 1440; // two years of 60 s steps
    for i in 0..steps {
        // Every third step is a 39 ms measurement dwell, like FOCV.
        let dt = Seconds::new(if i % 3 == 0 { 0.039 } else { 60.0 });
        sum_clock += load.energy_demand(Seconds::new(t), dt).value();
        sum_carried += load.energy_over(&mut pos, dt).value();
        t += dt.value();
    }
    let rel = (sum_clock - sum_carried).abs() / sum_clock.abs();
    assert!(
        rel < 1e-9,
        "two-year load divergence: {sum_clock} vs {sum_carried} (rel {rel:e})"
    );
    let period = load.period().value();
    assert!((0.0..period).contains(&pos), "position stays in cycle");
}
