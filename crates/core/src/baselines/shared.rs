//! What the trackers share besides the sample-and-hold schedule: the
//! parameter checks, the digital trackers' target window and their
//! control-period tick.

use eh_units::{Error, Seconds, Volts, Watts};

/// `Ok` when `ok`, else the constructor's rejection of `name = value`.
#[inline]
pub(crate) fn ensure(ok: bool, name: &'static str, value: f64) -> Result<(), Error> {
    if ok {
        Ok(())
    } else {
        Err(Error::InvalidParameter { name, value })
    }
}

/// Checks a fraction strictly inside `(0, 1)`: an FOCV `k`, or the
/// fractional-Isc `k_i`.
pub(crate) fn check_fraction(name: &'static str, value: f64) -> Result<(), Error> {
    ensure(value.is_finite() && value > 0.0 && value < 1.0, name, value)
}

/// Checks a finite, strictly positive parameter.
pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<(), Error> {
    ensure(value.is_finite() && value > 0.0, name, value)
}

/// Checks a tracker's quiescent overhead: finite and non-negative.
pub(crate) fn check_overhead(overhead: Watts) -> Result<(), Error> {
    let w = overhead.value();
    ensure(w.is_finite() && w >= 0.0, "overhead", w)
}

/// Clamps a digital tracker's voltage target into the converter's
/// regulation window, [100 mV, 8 V].
#[inline]
pub(crate) fn clamp_target(target: Volts) -> Volts {
    target.clamp(Volts::from_milli(100.0), Volts::new(8.0))
}

/// The control-period tick of the hill climbers: a decision every
/// `period`, the first of which has nothing earlier to judge against.
#[derive(Debug, Clone)]
pub(crate) struct ControlTick {
    period: Seconds,
    since: Seconds,
    primed: bool,
}

impl ControlTick {
    /// A tick whose first decision falls one `period` after start.
    ///
    /// # Errors
    ///
    /// Rejects a `control_period` that is not finite and positive.
    pub(crate) fn new(period: Seconds) -> Result<Self, Error> {
        check_positive("control_period", period.value())?;
        Ok(Self {
            period,
            since: Seconds::ZERO,
            primed: false,
        })
    }

    /// Lets `dt` pass. At a control-period boundary it returns
    /// `Some(first)`, where `first` marks the tracker's first decision;
    /// between boundaries it returns `None`.
    #[inline]
    pub(crate) fn advance(&mut self, dt: Seconds) -> Option<bool> {
        self.since += dt;
        if self.since >= self.period {
            self.since = Seconds::ZERO;
            let first = !self.primed;
            self.primed = true;
            Some(first)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_decides_once_per_period_and_marks_the_first() {
        let mut tick = ControlTick::new(Seconds::new(0.375)).unwrap();
        let got: Vec<_> = (0..7).map(|_| tick.advance(Seconds::new(0.125))).collect();
        assert_eq!(got, [None, None, Some(true), None, None, Some(false), None]);
    }

    #[test]
    fn target_window_is_100_mv_to_8_v() {
        assert_eq!(clamp_target(Volts::ZERO), Volts::from_milli(100.0));
        assert_eq!(clamp_target(Volts::new(9.0)), Volts::new(8.0));
        assert_eq!(clamp_target(Volts::new(2.5)), Volts::new(2.5));
    }

    #[test]
    fn checks_name_the_rejected_parameter() {
        let rejected = |r: Result<(), Error>| match r {
            Err(Error::InvalidParameter { name, value }) => (name, value),
            other => panic!("expected a rejection, got {other:?}"),
        };
        assert_eq!(rejected(check_fraction("k_i", 1.0)), ("k_i", 1.0));
        assert_eq!(rejected(check_positive("slope", 0.0)), ("slope", 0.0));
        assert_eq!(
            rejected(check_overhead(Watts::new(-1.0))),
            ("overhead", -1.0)
        );
        assert_eq!(
            rejected(ControlTick::new(Seconds::ZERO).map(drop)),
            ("control_period", 0.0)
        );
        assert!(check_fraction("k", 0.596).is_ok());
        assert!(check_overhead(Watts::ZERO).is_ok());
    }
}
