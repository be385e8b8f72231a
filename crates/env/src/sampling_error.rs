//! Eq. (2) of the paper: worst-case mean error of a sampled estimate.
//!
//! The paper asks: if the MPPT samples the open-circuit voltage only once
//! per period `p`, how wrong can the held estimate get between samples?
//! Eq. (2) answers with the mean over the whole log of the within-window
//! peak-to-peak excursion:
//!
//! ```text
//!        q−p
//!   Ē =   Σ   ( max{xₙ…xₙ₊ₚ₋₁} − min{xₙ…xₙ₊ₚ₋₁} ) / (q − p + 1)
//!        n=0
//! ```
//!
//! Applied to the 24-hour Voc logs this gave the paper 12.7 mV (desk) and
//! 24.1 mV (semi-mobile) for a 1-minute period — small enough that a
//! >60 s hold period costs under 1 % efficiency.

use std::collections::VecDeque;

use eh_units::{Error, Seconds};

use crate::series::TimeSeries;

/// Worst-case mean error (Eq. (2)) of sampling `series` once per `period`.
///
/// The window length in samples is `round(period / dt)`; the result is in
/// the series' own unit (volts for a Voc log).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a period below one sample
/// interval, or [`Error::SeriesTooShort`] if the series has fewer
/// samples than one window.
///
/// ```
/// use eh_env::{sampling_error, TimeSeries};
/// use eh_units::Seconds;
///
/// // A 0.1 Hz sine sampled at 1 Hz: a 5 s window sees about half the swing.
/// let s = TimeSeries::from_fn(Seconds::ZERO, Seconds::new(1.0), 600,
///     |t| (t.value() * 0.1 * std::f64::consts::TAU).sin())?;
/// let e = sampling_error::worst_case_mean_error(&s, Seconds::new(5.0))?;
/// assert!(e > 0.5 && e < 2.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
pub fn worst_case_mean_error(series: &TimeSeries, period: Seconds) -> Result<f64, Error> {
    let window = (period.value() / series.dt().value()).round() as usize;
    if window < 1 {
        return Err(Error::InvalidParameter {
            name: "period",
            value: period.value(),
        });
    }
    let n = series.len();
    if n < window {
        return Err(Error::SeriesTooShort {
            have: n,
            need: window,
        });
    }
    // Sliding-window max and min via monotonic deques: O(n) overall.
    let values = series.values();
    let mut max_dq: VecDeque<usize> = VecDeque::new();
    let mut min_dq: VecDeque<usize> = VecDeque::new();
    let mut sum = 0.0f64;
    let mut windows = 0usize;
    for i in 0..n {
        while max_dq.back().is_some_and(|&j| values[j] <= values[i]) {
            max_dq.pop_back();
        }
        max_dq.push_back(i);
        while min_dq.back().is_some_and(|&j| values[j] >= values[i]) {
            min_dq.pop_back();
        }
        min_dq.push_back(i);
        if i + 1 >= window {
            let left = i + 1 - window;
            while max_dq.front().is_some_and(|&j| j < left) {
                max_dq.pop_front();
            }
            while min_dq.front().is_some_and(|&j| j < left) {
                min_dq.pop_front();
            }
            sum += values[*max_dq.front().expect("window non-empty")]
                - values[*min_dq.front().expect("window non-empty")];
            windows += 1;
        }
    }
    Ok(sum / windows as f64)
}

/// One point of a period sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The sampling period evaluated.
    pub period: Seconds,
    /// The worst-case mean error Ē at that period.
    pub mean_error: f64,
}

/// Evaluates Eq. (2) across a set of candidate sampling periods — the
/// sweep a designer runs to pick the hold period.
///
/// # Errors
///
/// Propagates per-period errors from [`worst_case_mean_error`].
pub fn period_sweep(
    series: &TimeSeries,
    periods: impl IntoIterator<Item = Seconds>,
) -> Result<Vec<SweepPoint>, Error> {
    periods
        .into_iter()
        .map(|p| {
            Ok(SweepPoint {
                period: p,
                mean_error: worst_case_mean_error(series, p)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_of(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), values).unwrap()
    }

    #[test]
    fn constant_signal_has_zero_error() {
        let s = series_of(vec![5.0; 1000]);
        for p in [1.0, 10.0, 60.0] {
            assert_eq!(worst_case_mean_error(&s, Seconds::new(p)).unwrap(), 0.0);
        }
    }

    #[test]
    fn single_sample_window_is_zero() {
        let s = series_of((0..100).map(|i| i as f64).collect());
        // Window of one sample: max == min.
        assert_eq!(worst_case_mean_error(&s, Seconds::new(1.0)).unwrap(), 0.0);
    }

    #[test]
    fn ramp_error_scales_with_window() {
        // Unit-slope ramp: a window of w samples spans w−1 units.
        let s = series_of((0..1000).map(|i| i as f64).collect());
        let e10 = worst_case_mean_error(&s, Seconds::new(10.0)).unwrap();
        let e60 = worst_case_mean_error(&s, Seconds::new(60.0)).unwrap();
        assert!((e10 - 9.0).abs() < 1e-9, "e10 = {e10}");
        assert!((e60 - 59.0).abs() < 1e-9, "e60 = {e60}");
    }

    #[test]
    fn matches_naive_implementation() {
        // Pseudo-random-ish deterministic values.
        let values: Vec<f64> = (0..500)
            .map(|i| ((i * 7919 % 104729) as f64).sin() * 3.0 + (i as f64 * 0.01))
            .collect();
        let s = series_of(values.clone());
        for w in [2usize, 7, 33] {
            let fast = worst_case_mean_error(&s, Seconds::new(w as f64)).unwrap();
            let mut sum = 0.0;
            let mut count = 0;
            for n in 0..=(values.len() - w) {
                let win = &values[n..n + w];
                let mx = win.iter().cloned().fold(f64::MIN, f64::max);
                let mn = win.iter().cloned().fold(f64::MAX, f64::min);
                sum += mx - mn;
                count += 1;
            }
            let naive = sum / count as f64;
            assert!(
                (fast - naive).abs() < 1e-12,
                "window {w}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn error_monotone_in_period() {
        let values: Vec<f64> = (0..2000)
            .map(|i| (i as f64 * 0.05).sin() + 0.3 * (i as f64 * 0.013).cos())
            .collect();
        let s = series_of(values);
        let sweep = period_sweep(&s, [2.0, 5.0, 20.0, 100.0, 500.0].map(Seconds::new)).unwrap();
        for pair in sweep.windows(2) {
            assert!(
                pair[1].mean_error >= pair[0].mean_error - 1e-12,
                "Ē must not decrease with period: {pair:?}"
            );
        }
    }

    #[test]
    fn invalid_inputs() {
        let s = series_of(vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            worst_case_mean_error(&s, Seconds::new(0.2)),
            Err(Error::InvalidParameter { .. })
        ));
        assert!(matches!(
            worst_case_mean_error(&s, Seconds::new(10.0)),
            Err(Error::SeriesTooShort { .. })
        ));
    }
}
