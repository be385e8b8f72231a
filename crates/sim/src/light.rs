//! Light profiles: the environment side of a scenario.

use eh_env::TimeSeries;
use eh_units::{Lux, Seconds};

/// An illuminance profile over a scenario's duration.
///
/// Unifies the two shapes every layer of the workspace used to
/// special-case: a constant level held for a fixed duration, and a
/// recorded/synthesised [`TimeSeries`]. A trace is borrowed, so the
/// many scenarios of a sweep share one day-long profile without cloning
/// it.
#[derive(Debug, Clone, PartialEq)]
pub enum Light<'a> {
    /// A constant illuminance held for `duration`.
    Constant {
        /// The held level.
        lux: Lux,
        /// How long the level is held.
        duration: Seconds,
    },
    /// A time-varying profile, sampled with linear interpolation.
    Trace(&'a TimeSeries),
}

impl Light<'_> {
    /// A constant level held for `duration`.
    pub fn constant(lux: Lux, duration: Seconds) -> Light<'static> {
        Light::Constant { lux, duration }
    }

    /// Borrows a time series as the profile.
    pub fn trace(series: &TimeSeries) -> Light<'_> {
        Light::Trace(series)
    }

    /// Total simulated duration of the profile.
    pub fn duration(&self) -> Seconds {
        match self {
            Light::Constant { duration, .. } => *duration,
            Light::Trace(series) => series.duration(),
        }
    }

    /// Illuminance at `rel` seconds after the profile's start.
    ///
    /// Trace lookups clamp negatives to zero and treat out-of-range
    /// times as dark, matching the prior per-layer loops.
    #[inline]
    pub fn lux_at(&self, rel: Seconds) -> Lux {
        match self {
            Light::Constant { lux, .. } => *lux,
            Light::Trace(series) => {
                let t = series.start_time() + rel;
                Lux::new(series.value_at(t).unwrap_or(0.0).max(0.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        TimeSeries::new(
            Seconds::new(10.0),
            Seconds::new(1.0),
            vec![0.0, 100.0, 200.0],
        )
        .unwrap()
    }

    #[test]
    fn constant_holds_its_level() {
        let light = Light::constant(Lux::new(500.0), Seconds::new(60.0));
        assert_eq!(light.duration().value(), 60.0);
        assert_eq!(light.lux_at(Seconds::new(59.9)).value(), 500.0);
    }

    #[test]
    fn trace_is_relative_to_its_start_time() {
        let series = ramp();
        let light = Light::trace(&series);
        assert_eq!(light.duration().value(), 2.0);
        assert_eq!(light.lux_at(Seconds::new(0.0)).value(), 0.0);
        assert_eq!(light.lux_at(Seconds::new(1.5)).value(), 150.0);
    }

    #[test]
    fn out_of_range_and_negative_samples_read_dark() {
        let series = TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), vec![-50.0, -50.0]).unwrap();
        let light = Light::trace(&series);
        assert_eq!(light.lux_at(Seconds::new(0.5)).value(), 0.0);
        assert_eq!(light.lux_at(Seconds::new(99.0)).value(), 0.0);
    }
}
