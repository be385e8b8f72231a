//! Property-based tests on the analog substrate invariants.

use eh_analog::astable::{AstableConfig, AstableMultivibrator};
use eh_analog::components::Capacitor;
use eh_analog::rc;
use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
use eh_units::{Farads, Ohms, Seconds, Volts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact RC update never overshoots its target.
    #[test]
    fn relax_never_overshoots(v0 in -10.0..10.0f64, target in -10.0..10.0f64,
                              tau in 1e-6..100.0f64, dt in 0.0..1000.0f64) {
        let v = rc::relax(Volts::new(v0), Volts::new(target), Seconds::new(tau), Seconds::new(dt));
        let lo = v0.min(target) - 1e-12;
        let hi = v0.max(target) + 1e-12;
        prop_assert!(v.value() >= lo && v.value() <= hi, "v = {v}");
    }

    /// Composing two RC steps equals one combined step.
    #[test]
    fn relax_composes(v0 in -5.0..5.0f64, target in -5.0..5.0f64,
                      tau in 0.01..10.0f64, dt1 in 0.0..10.0f64, dt2 in 0.0..10.0f64) {
        let tau = Seconds::new(tau);
        let a = rc::relax(Volts::new(v0), Volts::new(target), tau, Seconds::new(dt1));
        let two = rc::relax(a, Volts::new(target), tau, Seconds::new(dt2));
        let one = rc::relax(Volts::new(v0), Volts::new(target), tau, Seconds::new(dt1 + dt2));
        prop_assert!((two.value() - one.value()).abs() < 1e-9);
    }

    /// time_to_reach inverts relax on reachable pairs.
    #[test]
    fn time_to_reach_inverts_relax(v0 in 0.0..3.0f64, tau in 0.01..10.0f64, dt in 0.001..5.0f64) {
        // Past ~20 τ the response is numerically at the asymptote and the
        // crossing time is no longer recoverable.
        prop_assume!(dt < 20.0 * tau);
        let target = Volts::new(5.0);
        let v1 = rc::relax(Volts::new(v0), target, Seconds::new(tau), Seconds::new(dt));
        let t = rc::time_to_reach(Volts::new(v0), v1, target, Seconds::new(tau)).unwrap();
        prop_assert!((t.value() - dt).abs() < 1e-6 * dt.max(1.0));
    }

    /// Astable duty cycle equals t_on/(t_on+t_off) for any valid periods.
    #[test]
    fn astable_duty_matches_config(t_on_ms in 1.0..1000.0f64, t_off_s in 0.1..200.0f64) {
        let config = AstableConfig::from_periods(
            Volts::new(3.3),
            Farads::from_micro(1.0),
            Ohms::from_mega(10.0),
            Seconds::from_milli(t_on_ms),
            Seconds::new(t_off_s),
        ).unwrap();
        let astable = AstableMultivibrator::new(config).unwrap();
        let expect = (t_on_ms * 1e-3) / (t_on_ms * 1e-3 + t_off_s);
        prop_assert!((astable.duty_cycle() - expect).abs() < 1e-6);
        let (t_on, t_off) = astable.analytic_periods();
        prop_assert!((t_on.as_milli() - t_on_ms).abs() < 1e-6 * t_on_ms.max(1.0));
        prop_assert!((t_off.value() - t_off_s).abs() < 1e-6 * t_off_s.max(1.0));
    }

    /// Stepping the astable in many small steps or one big step yields
    /// the same number of transitions.
    #[test]
    fn astable_step_size_invariance(chunks in 1usize..50) {
        let total = Seconds::new(2.5 * 69.04);
        let mut one = AstableMultivibrator::paper_configuration().unwrap();
        let big = one.step(total);
        let mut many = AstableMultivibrator::paper_configuration().unwrap();
        let mut transitions = 0;
        for _ in 0..chunks {
            transitions += many.step(total / chunks as f64).transitions;
        }
        prop_assert_eq!(big.transitions, transitions);
        prop_assert_eq!(big.output_high, many.output_high());
    }

    /// The sample-and-hold output approaches ratio·Vin for any Vin and
    /// any trim ratio, and the held value never exceeds the input.
    #[test]
    fn sample_hold_tracks_ratio(vin in 0.5..8.0f64, ratio in 0.1..0.6f64) {
        let mut sh = SampleHold::new(SampleHoldConfig::paper_configuration(ratio).unwrap()).unwrap();
        sh.step(Volts::new(vin), true, Seconds::from_milli(39.0));
        let held = sh.held_sample().value();
        prop_assert!((held - vin * ratio).abs() < 0.01 * vin.max(1.0), "held = {held}");
        prop_assert!(held <= vin);
    }

    /// Droop over a hold phase is monotone in the hold duration.
    #[test]
    fn droop_monotone_in_hold_time(hold1 in 1.0..60.0f64, extra in 1.0..60.0f64) {
        let build = || {
            let mut sh = SampleHold::new(SampleHoldConfig::paper_configuration(0.298).unwrap()).unwrap();
            sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
            sh
        };
        let mut short = build();
        short.step(Volts::ZERO, false, Seconds::new(hold1));
        let mut long = build();
        long.step(Volts::ZERO, false, Seconds::new(hold1 + extra));
        prop_assert!(long.hold_voltage() <= short.hold_voltage());
    }

    /// Capacitor energy is non-negative and scales with V².
    #[test]
    fn capacitor_energy_quadratic(v in 0.0..10.0f64) {
        let mut c = Capacitor::polyester(Farads::from_micro(1.0)).unwrap();
        c.set_voltage(Volts::new(v));
        let e1 = c.stored_energy().value();
        c.set_voltage(Volts::new(2.0 * v));
        let e2 = c.stored_energy().value();
        prop_assert!(e1 >= 0.0);
        prop_assert!((e2 - 4.0 * e1).abs() < 1e-12 + 1e-9 * e1);
    }
}
