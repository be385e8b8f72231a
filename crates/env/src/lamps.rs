//! Artificial-light schedules.

use eh_units::{Error, Lux, Seconds};

/// One on-interval of a lamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnInterval {
    /// Switch-on time (time of day).
    pub on: Seconds,
    /// Switch-off time.
    pub off: Seconds,
}

/// A lamp (or bank of luminaires) with an on/off schedule, a warm-up ramp
/// and its illuminance contribution at the sensor position.
///
/// ```
/// use eh_env::lamps::Lamp;
/// use eh_units::{Lux, Seconds};
///
/// let office = Lamp::new(Lux::new(400.0), Seconds::new(2.0))?
///     .with_interval(Seconds::from_hours(8.0), Seconds::from_hours(18.5))?;
/// assert!(office.illuminance(Seconds::from_hours(12.0)).value() > 399.0);
/// assert_eq!(office.illuminance(Seconds::from_hours(20.0)).value(), 0.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lamp {
    level: Lux,
    warmup: Seconds,
    intervals: Vec<OnInterval>,
}

impl Lamp {
    /// Creates a lamp contributing `level` lux when fully warm, reaching
    /// it with a first-order ramp of time constant `warmup`.
    ///
    /// # Errors
    ///
    /// Rejects negative level or warm-up.
    pub fn new(level: Lux, warmup: Seconds) -> Result<Self, Error> {
        if !(level.value().is_finite() && level.value() >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "level",
                value: level.value(),
            });
        }
        if !(warmup.value().is_finite() && warmup.value() >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "warmup",
                value: warmup.value(),
            });
        }
        Ok(Self {
            level,
            warmup,
            intervals: Vec::new(),
        })
    }

    /// Adds an on-interval (builder style).
    ///
    /// # Errors
    ///
    /// Rejects `off ≤ on`.
    pub fn with_interval(mut self, on: Seconds, off: Seconds) -> Result<Self, Error> {
        if off.value() <= on.value() {
            return Err(Error::InvalidParameter {
                name: "off",
                value: off.value(),
            });
        }
        self.intervals.push(OnInterval { on, off });
        Ok(self)
    }

    /// The scheduled intervals.
    pub fn intervals(&self) -> &[OnInterval] {
        &self.intervals
    }

    /// The fully warm contribution level.
    pub fn level(&self) -> Lux {
        self.level
    }

    /// The lamp's illuminance contribution at time-of-day `t`.
    pub fn illuminance(&self, t: Seconds) -> Lux {
        for iv in &self.intervals {
            if t.value() >= iv.on.value() && t.value() < iv.off.value() {
                if self.warmup.value() <= 0.0 {
                    return self.level;
                }
                let since_on = t.value() - iv.on.value();
                let ramp = 1.0 - (-since_on / self.warmup.value()).exp();
                return self.level * ramp;
            }
        }
        Lux::ZERO
    }

    /// Whether the lamp is scheduled on at time-of-day `t`.
    pub fn is_on(&self, t: Seconds) -> bool {
        self.intervals
            .iter()
            .any(|iv| t.value() >= iv.on.value() && t.value() < iv.off.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn office_lamp() -> Lamp {
        Lamp::new(Lux::new(400.0), Seconds::new(2.0))
            .unwrap()
            .with_interval(Seconds::from_hours(8.0), Seconds::from_hours(18.5))
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Lamp::new(Lux::new(-1.0), Seconds::ZERO).is_err());
        assert!(Lamp::new(Lux::new(100.0), Seconds::new(-1.0)).is_err());
        assert!(Lamp::new(Lux::new(100.0), Seconds::ZERO)
            .unwrap()
            .with_interval(Seconds::from_hours(9.0), Seconds::from_hours(9.0))
            .is_err());
    }

    #[test]
    fn off_outside_schedule() {
        let l = office_lamp();
        assert_eq!(l.illuminance(Seconds::from_hours(7.9)).value(), 0.0);
        assert_eq!(l.illuminance(Seconds::from_hours(18.5)).value(), 0.0);
        assert!(!l.is_on(Seconds::from_hours(20.0)));
        assert!(l.is_on(Seconds::from_hours(12.0)));
    }

    #[test]
    fn warmup_ramp() {
        let l = office_lamp();
        let just_on = l
            .illuminance(Seconds::from_hours(8.0) + Seconds::new(0.5))
            .value();
        let warm = l
            .illuminance(Seconds::from_hours(8.0) + Seconds::new(20.0))
            .value();
        assert!(just_on < warm);
        assert!((warm - 400.0).abs() < 0.1);
    }

    #[test]
    fn zero_warmup_is_instant() {
        let l = Lamp::new(Lux::new(250.0), Seconds::ZERO)
            .unwrap()
            .with_interval(Seconds::from_hours(1.0), Seconds::from_hours(2.0))
            .unwrap();
        assert_eq!(l.illuminance(Seconds::from_hours(1.0)).value(), 250.0);
    }

    #[test]
    fn multiple_intervals() {
        let l = Lamp::new(Lux::new(100.0), Seconds::ZERO)
            .unwrap()
            .with_interval(Seconds::from_hours(7.0), Seconds::from_hours(9.0))
            .unwrap()
            .with_interval(Seconds::from_hours(17.0), Seconds::from_hours(23.0))
            .unwrap();
        assert!(l.is_on(Seconds::from_hours(8.0)));
        assert!(!l.is_on(Seconds::from_hours(12.0)));
        assert!(l.is_on(Seconds::from_hours(22.0)));
        assert_eq!(l.intervals().len(), 2);
    }
}
