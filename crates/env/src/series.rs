//! Regularly sampled time series.

use eh_units::{Error, Seconds};

/// A regularly sampled time series (illuminance traces, Voc logs, ...).
///
/// Values are unit-agnostic `f64`s; the producing function documents the
/// unit (profiles produce lux, the Voc conversion in downstream crates
/// produces volts).
///
/// ```
/// use eh_env::TimeSeries;
/// use eh_units::Seconds;
///
/// let s = TimeSeries::from_fn(Seconds::ZERO, Seconds::new(1.0), 10, |t| t.value() * 2.0)?;
/// assert_eq!(s.len(), 10);
/// assert_eq!(s.value_at(Seconds::new(4.5)), Some(9.0)); // linear interpolation
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: Seconds,
    dt: Seconds,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from raw samples.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive sampling interval or an empty sample set.
    pub fn new(start: Seconds, dt: Seconds, values: Vec<f64>) -> Result<Self, Error> {
        if !(dt.value().is_finite() && dt.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "dt",
                value: dt.value(),
            });
        }
        if values.is_empty() {
            return Err(Error::SeriesTooShort { have: 0, need: 1 });
        }
        Ok(Self { start, dt, values })
    }

    /// Samples a generator function at `n` regular instants.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive interval or `n == 0`.
    pub fn from_fn(
        start: Seconds,
        dt: Seconds,
        n: usize,
        mut f: impl FnMut(Seconds) -> f64,
    ) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::SeriesTooShort { have: 0, need: 1 });
        }
        let values = (0..n).map(|i| f(start + dt * i as f64)).collect();
        Self::new(start, dt, values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty (never true for constructed series).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sampling interval.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Time of the first sample.
    pub fn start_time(&self) -> Seconds {
        self.start
    }

    /// Time of the last sample.
    pub fn end_time(&self) -> Seconds {
        self.start + self.dt * (self.values.len().saturating_sub(1)) as f64
    }

    /// Span from first to last sample.
    pub fn duration(&self) -> Seconds {
        self.end_time() - self.start
    }

    /// Raw sample access.
    pub fn sample(&self, i: usize) -> Option<f64> {
        self.values.get(i).copied()
    }

    /// The raw sample slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.start + self.dt * i as f64, v))
    }

    /// Linear interpolation at time `t`; `None` outside the series span.
    #[inline]
    pub fn value_at(&self, t: Seconds) -> Option<f64> {
        let rel = (t - self.start).value() / self.dt.value();
        if rel < 0.0 || rel > (self.values.len() - 1) as f64 {
            return None;
        }
        // `rel` is not negative here, so truncation is its floor, without
        // a libm call on targets lacking a rounding instruction.
        let i = rel as usize;
        if i + 1 >= self.values.len() {
            return Some(self.values[i]);
        }
        let f = rel - i as f64;
        Some(self.values[i] * (1.0 - f) + self.values[i + 1] * f)
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Applies a function to every sample, keeping the time base —
    /// how an illuminance trace becomes a Voc trace.
    #[must_use]
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Self {
        Self {
            start: self.start,
            dt: self.dt,
            values: self.values.iter().copied().map(f).collect(),
        }
    }

    /// Extracts the samples whose index falls in `[from, to)`, rebased to
    /// start at time zero — how a multi-day trace is split into days.
    ///
    /// # Errors
    ///
    /// Rejects an empty or out-of-range window.
    pub fn slice_samples(&self, from: usize, to: usize) -> Result<Self, Error> {
        if from >= to || to > self.values.len() {
            return Err(Error::InvalidParameter {
                name: "slice_range",
                value: to as f64,
            });
        }
        Self::new(Seconds::ZERO, self.dt, self.values[from..to].to_vec())
    }

    /// Appends another series sampled at the same interval, shifting its
    /// time base to follow this one — how multi-day scenarios are built.
    ///
    /// # Errors
    ///
    /// Rejects a mismatched sampling interval.
    pub fn concat(&self, next: &TimeSeries) -> Result<Self, Error> {
        if (next.dt.value() - self.dt.value()).abs() > 1e-12 {
            return Err(Error::InvalidParameter {
                name: "dt_mismatch",
                value: next.dt.value(),
            });
        }
        let mut values = self.values.clone();
        values.extend_from_slice(&next.values);
        Self::new(self.start, self.dt, values)
    }

    /// Downsamples by an integer factor (keeping every `factor`-th
    /// sample).
    ///
    /// # Errors
    ///
    /// Rejects `factor == 0`.
    pub fn decimate(&self, factor: usize) -> Result<Self, Error> {
        if factor == 0 {
            return Err(Error::InvalidParameter {
                name: "factor",
                value: 0.0,
            });
        }
        Self::new(
            self.start,
            self.dt * factor as f64,
            self.values.iter().step_by(factor).copied().collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> TimeSeries {
        TimeSeries::from_fn(Seconds::ZERO, Seconds::new(2.0), 11, |t| t.value()).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(TimeSeries::new(Seconds::ZERO, Seconds::ZERO, vec![1.0]).is_err());
        assert!(TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), vec![]).is_err());
        assert!(TimeSeries::from_fn(Seconds::ZERO, Seconds::new(1.0), 0, |_| 0.0).is_err());
    }

    #[test]
    fn timing_accessors() {
        let s = ramp();
        assert_eq!(s.len(), 11);
        assert_eq!(s.dt(), Seconds::new(2.0));
        assert_eq!(s.start_time(), Seconds::ZERO);
        assert_eq!(s.end_time(), Seconds::new(20.0));
        assert_eq!(s.duration(), Seconds::new(20.0));
    }

    #[test]
    fn interpolation() {
        let s = ramp();
        assert_eq!(s.value_at(Seconds::new(4.0)), Some(4.0));
        assert_eq!(s.value_at(Seconds::new(5.0)), Some(5.0)); // between samples
        assert_eq!(s.value_at(Seconds::new(20.0)), Some(20.0));
        assert_eq!(s.value_at(Seconds::new(-0.1)), None);
        assert_eq!(s.value_at(Seconds::new(20.1)), None);
    }

    #[test]
    fn statistics() {
        let s = ramp();
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 20.0);
        assert!((s.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn map_preserves_time_base() {
        let s = ramp().map(|v| v * 10.0);
        assert_eq!(s.dt(), Seconds::new(2.0));
        assert_eq!(s.sample(3), Some(60.0));
    }

    #[test]
    fn slice_samples_rebases() {
        let s = ramp();
        let mid = s.slice_samples(2, 5).unwrap();
        assert_eq!(mid.len(), 3);
        assert_eq!(mid.start_time(), Seconds::ZERO);
        assert_eq!(mid.sample(0), Some(4.0));
        assert_eq!(mid.sample(2), Some(8.0));
        assert!(s.slice_samples(5, 5).is_err());
        assert!(s.slice_samples(0, 99).is_err());
    }

    #[test]
    fn concat_extends() {
        let a = ramp();
        let b = ramp();
        let joined = a.concat(&b).unwrap();
        assert_eq!(joined.len(), 22);
        assert_eq!(joined.sample(11), Some(0.0)); // second ramp restarts
    }

    #[test]
    fn decimate() {
        let s = ramp().decimate(2).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.dt(), Seconds::new(4.0));
        assert_eq!(s.sample(1), Some(4.0));
        assert!(ramp().decimate(0).is_err());
    }

    #[test]
    fn iter_yields_time_value_pairs() {
        let s = ramp();
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs[2], (Seconds::new(4.0), 4.0));
        assert_eq!(pairs.len(), 11);
    }
}
