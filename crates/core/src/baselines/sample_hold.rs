//! The periodic sample-and-hold schedule every sampling tracker shares.

use eh_units::{Error, Seconds, Volts};

use super::shared::ensure;
use crate::controller::TrackerCommand;

/// The paper's astable-timed sample-and-hold, as a schedule: every
/// `period` the tracker fires a PULSE (a measurement step), latches what
/// it measured on the step after, and holds that sample until the next
/// PULSE. The first PULSE fires on the first step (the power-up PULSE)
/// unless [`SampleHold::with_initial_phase`] staggers it.
///
/// The trackers built on it keep only their own policy: what they do
/// with the held sample, and whether the period adapts.
#[derive(Debug, Clone)]
pub(crate) struct SampleHold<T> {
    period: Seconds,
    held: Option<T>,
    since_sample: Seconds,
    measuring: bool,
}

impl<T: Copy> SampleHold<T> {
    /// A schedule with no sample yet, whose first step fires the PULSE.
    pub(crate) fn new(period: Seconds) -> Self {
        Self {
            period,
            held: None,
            since_sample: period,
            measuring: false,
        }
    }

    /// Starts a step. On the capture step (the one after a PULSE) it
    /// latches `sample`, if the engine delivered one, restarts the hold
    /// clock and returns `true`; on any other step it lets `dt` pass.
    #[inline]
    pub(crate) fn advance(&mut self, sample: Option<T>, dt: Seconds) -> bool {
        if self.measuring {
            if let Some(sample) = sample {
                self.held = Some(sample);
            }
            self.measuring = false;
            self.since_sample = Seconds::ZERO;
            true
        } else {
            self.since_sample += dt;
            false
        }
    }

    /// Ends a step: `None` when the step must measure — the hold period
    /// has run out, so the PULSE fires, or no sample exists yet (ACTIVE
    /// low, converter off) — and otherwise the held sample to track.
    #[inline]
    pub(crate) fn decide(&mut self) -> Option<T> {
        if self.since_sample >= self.period {
            self.measuring = true;
            return None;
        }
        self.held
    }

    /// The held sample, if one exists.
    pub(crate) fn held(&self) -> Option<T> {
        self.held
    }

    /// The hold period.
    pub(crate) fn period(&self) -> Seconds {
        self.period
    }

    /// Retimes the hold period from the next step on.
    pub(crate) fn set_period(&mut self, period: Seconds) {
        self.period = period;
    }
}

impl SampleHold<Volts> {
    /// Staggers the power-up PULSE by `offset` into the hold period: it
    /// fires after `offset` instead of immediately, and until then the
    /// schedule holds a 0 V sample, as a circuit with a discharged hold
    /// capacitor does (converter off).
    ///
    /// # Errors
    ///
    /// Rejects an offset outside `[0, period)`.
    pub(crate) fn with_initial_phase(mut self, offset: Seconds) -> Result<Self, Error> {
        let period = self.period;
        let s = offset.value();
        ensure(
            s.is_finite() && s >= 0.0 && offset < period,
            "initial_phase",
            s,
        )?;
        self.since_sample = period - offset;
        if s > 0.0 {
            self.held = Some(Volts::ZERO);
        }
        Ok(self)
    }

    /// Ends an FOCV step: the PULSE (or, before any sample, the
    /// converter off), else the module held at `k` times the held `Voc`.
    #[inline]
    pub(crate) fn focv_command(&mut self, k: f64) -> TrackerCommand {
        match self.decide() {
            Some(voc) => TrackerCommand::connect_at(voc * k),
            None => TrackerCommand::measure(),
        }
    }
}

/// Checks a PULSE schedule: a positive period and PULSE width, the
/// PULSE shorter than the period.
///
/// # Errors
///
/// `periods` (the smaller of the two) when either is not positive,
/// `pulse_width` when the PULSE is not shorter than the period.
pub(crate) fn check_pulse(period: Seconds, pulse_width: Seconds) -> Result<(), Error> {
    let (period, pulse) = (period.value(), pulse_width.value());
    ensure(period > 0.0 && pulse > 0.0, "periods", period.min(pulse))?;
    ensure(pulse < period, "pulse_width", pulse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(s: &mut SampleHold<Volts>, sample: Option<f64>, dt: f64) -> Option<Volts> {
        s.advance(sample.map(Volts::new), Seconds::new(dt));
        s.decide()
    }

    #[test]
    fn a_capture_without_a_sample_keeps_the_previous_one() {
        // An observation may carry no sample after a PULSE; the capture
        // still restarts the hold clock, and the hold keeps what it had.
        let mut s = SampleHold::new(Seconds::new(10.0));
        step(&mut s, None, 1.0);
        step(&mut s, Some(5.0), 1.0);
        step(&mut s, None, 10.0);
        assert_eq!(step(&mut s, None, 1.0), Some(Volts::new(5.0)));
    }

    #[test]
    fn pulse_checks_keep_their_names() {
        let err = |p: f64, w: f64| match check_pulse(Seconds::new(p), Seconds::new(w)) {
            Err(Error::InvalidParameter { name, value }) => (name, value),
            other => panic!("expected a rejection, got {other:?}"),
        };
        assert_eq!(err(0.0, 0.039), ("periods", 0.0));
        assert_eq!(err(69.0, -1.0), ("periods", -1.0));
        assert_eq!(err(1.0, 2.0), ("pulse_width", 2.0));
        assert!(check_pulse(Seconds::new(69.0), Seconds::from_milli(39.0)).is_ok());
    }
}
