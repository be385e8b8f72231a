//! Exact first-order RC updates.
//!
//! Every reactive path in the paper's circuit is first-order (one
//! capacitor charged or discharged through a resistance toward a source),
//! so instead of numerically integrating we advance each capacitor with
//! the exact exponential solution. This keeps the simulator stable for
//! the hugely disparate time scales involved (39 ms pulses vs 69 s hold
//! periods vs 24 h environment runs).

use eh_units::{Ohms, Seconds, Volts};

/// Advances a capacitor voltage `v0` relaxing toward `target` with time
/// constant `tau` for a step `dt`: the exact solution of
/// `dv/dt = (target − v)/τ`.
///
/// A non-positive `tau` snaps to the target (an ideal source).
///
/// # Examples
///
/// ```
/// use eh_analog::rc::relax;
/// use eh_units::{Seconds, Volts};
///
/// // After one time constant the step response covers ~63.2 %.
/// let v = relax(Volts::ZERO, Volts::new(1.0), Seconds::new(1.0), Seconds::new(1.0));
/// assert!((v.value() - 0.6321).abs() < 1e-4);
/// ```
pub fn relax(v0: Volts, target: Volts, tau: Seconds, dt: Seconds) -> Volts {
    if tau.value() <= 0.0 {
        return target;
    }
    if dt.value() <= 0.0 {
        return v0;
    }
    let alpha = (-dt.value() / tau.value()).exp();
    target + (v0 - target) * alpha
}

/// Time for a first-order response to travel from `v0` to `v1` while
/// relaxing toward `target`: `t = τ·ln((target−v0)/(target−v1))`.
///
/// Returns `None` if `v1` is not between `v0` and `target` (the response
/// never gets there).
///
/// # Examples
///
/// ```
/// use eh_analog::rc::time_to_reach;
/// use eh_units::{Seconds, Volts};
///
/// // Charging 0→2/3·Vdd from 1/3·Vdd toward Vdd takes τ·ln2.
/// let t = time_to_reach(
///     Volts::new(1.0),
///     Volts::new(2.0),
///     Volts::new(3.0),
///     Seconds::new(1.0),
/// ).expect("reachable");
/// assert!((t.value() - 2f64.ln()).abs() < 1e-12);
/// ```
pub fn time_to_reach(v0: Volts, v1: Volts, target: Volts, tau: Seconds) -> Option<Seconds> {
    if tau.value() <= 0.0 {
        return Some(Seconds::ZERO);
    }
    let a = (target - v0).value();
    let b = (target - v1).value();
    if a == 0.0 || b == 0.0 {
        return if (v1 - v0).value().abs() < f64::EPSILON {
            Some(Seconds::ZERO)
        } else {
            None
        };
    }
    let ratio = a / b;
    if ratio < 1.0 {
        return None; // v1 lies beyond the asymptote or on the wrong side
    }
    Some(Seconds::new(tau.value() * ratio.ln()))
}

/// Instantaneous current into a capacitor relaxing toward `target`
/// through resistance `r`: `(target − v)/r`.
pub fn charging_current(v: Volts, target: Volts, r: Ohms) -> eh_units::Amps {
    (target - v) / r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_converges_to_target() {
        let mut v = Volts::ZERO;
        let tau = Seconds::new(0.5);
        for _ in 0..100 {
            v = relax(v, Volts::new(3.3), tau, Seconds::new(0.1));
        }
        assert!((v.value() - 3.3).abs() < 1e-6);
    }

    #[test]
    fn relax_is_exact_not_stepped() {
        // One big step equals many small steps (exponential is exact).
        let tau = Seconds::new(2.0);
        let big = relax(Volts::ZERO, Volts::new(1.0), tau, Seconds::new(1.0));
        let mut small = Volts::ZERO;
        for _ in 0..1000 {
            small = relax(small, Volts::new(1.0), tau, Seconds::new(0.001));
        }
        assert!((big.value() - small.value()).abs() < 1e-9);
    }

    #[test]
    fn relax_zero_tau_snaps() {
        let v = relax(
            Volts::new(5.0),
            Volts::new(1.0),
            Seconds::ZERO,
            Seconds::new(0.1),
        );
        assert_eq!(v, Volts::new(1.0));
    }

    #[test]
    fn relax_zero_dt_is_identity() {
        let v = relax(
            Volts::new(2.0),
            Volts::new(5.0),
            Seconds::new(1.0),
            Seconds::ZERO,
        );
        assert_eq!(v, Volts::new(2.0));
    }

    #[test]
    fn discharge_direction() {
        let v = relax(
            Volts::new(3.0),
            Volts::ZERO,
            Seconds::new(1.0),
            Seconds::new(1.0),
        );
        assert!((v.value() - 3.0 * (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn time_to_reach_round_trip() {
        let v0 = Volts::new(0.5);
        let target = Volts::new(3.3);
        let tau = Seconds::new(0.7);
        let v1 = relax(v0, target, tau, Seconds::new(0.3));
        let t = time_to_reach(v0, v1, target, tau).unwrap();
        assert!((t.value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn time_to_reach_unreachable() {
        // Can't charge past the asymptote.
        assert!(time_to_reach(
            Volts::new(1.0),
            Volts::new(4.0),
            Volts::new(3.0),
            Seconds::new(1.0)
        )
        .is_none());
        // Wrong direction: discharging toward 0 never rises.
        assert!(time_to_reach(
            Volts::new(1.0),
            Volts::new(2.0),
            Volts::ZERO,
            Seconds::new(1.0)
        )
        .is_none());
    }

    #[test]
    fn charging_current_flows_toward_the_target() {
        let i = charging_current(Volts::new(1.0), Volts::new(3.3), Ohms::from_kilo(10.0));
        assert!((i.as_micro() - 230.0).abs() < 1e-9);
    }
}
