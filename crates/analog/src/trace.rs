//! Waveform recording and measurement — the simulator's oscilloscope.

use eh_units::Seconds;

/// A recorded waveform: a named, time-ordered series of samples, with the
/// measurement helpers an engineer would use on a scope (edges, periods,
/// ripple, averages). Fig. 4 of the paper is two of these: `PULSE` and
/// `HELD_SAMPLE`.
///
/// ```
/// use eh_analog::Trace;
/// use eh_units::Seconds;
///
/// let mut t = Trace::new("PULSE");
/// for n in 0..100 {
///     let time = n as f64 * 0.01;
///     let v = if (0.2..0.3).contains(&time) { 3.3 } else { 0.0 };
///     t.record(Seconds::new(time), v);
/// }
/// let edges = t.rising_edges(1.65);
/// assert_eq!(edges.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new("")
    }
}

impl Trace {
    /// Creates an empty trace with a signal name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples must be recorded in non-decreasing time
    /// order; out-of-order samples are ignored (with debug assertion).
    pub fn record(&mut self, t: Seconds, value: f64) {
        if let Some(&last) = self.times.last() {
            debug_assert!(t.value() >= last, "trace samples must be time-ordered");
            if t.value() < last {
                return;
            }
        }
        self.times.push(t.value());
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The recorded samples as `(time_s, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, f64)> + '_ {
        self.times
            .iter()
            .zip(&self.values)
            .map(|(&t, &v)| (Seconds::new(t), v))
    }

    /// Time of the first sample, if any.
    pub fn start_time(&self) -> Option<Seconds> {
        self.times.first().map(|&t| Seconds::new(t))
    }

    /// Time of the last sample, if any.
    pub fn end_time(&self) -> Option<Seconds> {
        self.times.last().map(|&t| Seconds::new(t))
    }

    /// Zero-order-hold interpolation: the value of the most recent sample
    /// at or before `t`. Returns `None` before the first sample.
    pub fn value_at(&self, t: Seconds) -> Option<f64> {
        let idx = self.times.partition_point(|&x| x <= t.value());
        if idx == 0 {
            None
        } else {
            Some(self.values[idx - 1])
        }
    }

    /// Minimum value in the closed time window `[from, to]`.
    pub fn min_in(&self, from: Seconds, to: Seconds) -> Option<f64> {
        self.window(from, to)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum value in the closed time window `[from, to]`.
    pub fn max_in(&self, from: Seconds, to: Seconds) -> Option<f64> {
        self.window(from, to)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Time-weighted mean over the full trace (trapezoidal).
    pub fn mean(&self) -> Option<f64> {
        if self.times.len() < 2 {
            return self.values.first().copied();
        }
        let mut area = 0.0;
        for i in 1..self.times.len() {
            let dt = self.times[i] - self.times[i - 1];
            area += 0.5 * (self.values[i] + self.values[i - 1]) * dt;
        }
        let span = self.times.last().unwrap() - self.times.first().unwrap();
        if span <= 0.0 {
            return self.values.first().copied();
        }
        Some(area / span)
    }

    /// Times where the signal crosses `threshold` upward.
    pub fn rising_edges(&self, threshold: f64) -> Vec<Seconds> {
        self.edges(threshold, true)
    }

    /// Times where the signal crosses `threshold` downward.
    pub fn falling_edges(&self, threshold: f64) -> Vec<Seconds> {
        self.edges(threshold, false)
    }

    /// Durations for which the signal stayed above `threshold`
    /// (complete high phases only: a rising edge followed by a falling
    /// edge).
    pub fn high_durations(&self, threshold: f64) -> Vec<Seconds> {
        let rises = self.rising_edges(threshold);
        let falls = self.falling_edges(threshold);
        let mut out = Vec::new();
        let mut fi = 0;
        for r in rises {
            while fi < falls.len() && falls[fi] <= r {
                fi += 1;
            }
            if fi < falls.len() {
                out.push(falls[fi] - r);
                fi += 1;
            }
        }
        out
    }

    /// Fraction of total trace time the signal spent above `threshold`.
    pub fn duty_cycle(&self, threshold: f64) -> Option<f64> {
        if self.times.len() < 2 {
            return None;
        }
        let mut high = 0.0;
        for i in 1..self.times.len() {
            if self.values[i - 1] > threshold {
                high += self.times[i] - self.times[i - 1];
            }
        }
        let span = self.times.last().unwrap() - self.times.first().unwrap();
        (span > 0.0).then_some(high / span)
    }

    fn window(&self, from: Seconds, to: Seconds) -> impl Iterator<Item = f64> + '_ {
        let lo = self.times.partition_point(|&t| t < from.value());
        let hi = self.times.partition_point(|&t| t <= to.value());
        self.values[lo..hi].iter().copied()
    }

    fn edges(&self, threshold: f64, rising: bool) -> Vec<Seconds> {
        let mut out = Vec::new();
        for i in 1..self.values.len() {
            let (a, b) = (self.values[i - 1], self.values[i]);
            let crossed = if rising {
                a <= threshold && b > threshold
            } else {
                a >= threshold && b < threshold
            };
            if crossed {
                out.push(Seconds::new(self.times[i]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave() -> Trace {
        // 1 kHz-ish square wave: high 1 ms, low 3 ms, 5 periods.
        let mut t = Trace::new("sq");
        let mut time = 0.0;
        for _ in 0..5 {
            for step in 0..10 {
                t.record(Seconds::new(time + step as f64 * 1e-4), 3.3);
            }
            time += 1e-3;
            for step in 0..30 {
                t.record(Seconds::new(time + step as f64 * 1e-4), 0.0);
            }
            time += 3e-3;
        }
        t
    }

    #[test]
    fn edges_and_durations() {
        let t = square_wave();
        assert_eq!(t.rising_edges(1.65).len(), 4); // first high starts at t=0: no edge
        assert_eq!(t.falling_edges(1.65).len(), 5);
        let highs = t.high_durations(1.65);
        assert_eq!(highs.len(), 4);
        for d in highs {
            assert!((d.as_milli() - 1.0).abs() < 0.15, "duration {d}");
        }
    }

    #[test]
    fn duty_cycle_quarter() {
        let t = square_wave();
        let d = t.duty_cycle(1.65).unwrap();
        assert!((d - 0.25).abs() < 0.03, "duty = {d}");
    }

    #[test]
    fn value_at_zero_order_hold() {
        let mut t = Trace::new("s");
        t.record(Seconds::new(1.0), 10.0);
        t.record(Seconds::new(2.0), 20.0);
        assert_eq!(t.value_at(Seconds::new(0.5)), None);
        assert_eq!(t.value_at(Seconds::new(1.0)), Some(10.0));
        assert_eq!(t.value_at(Seconds::new(1.5)), Some(10.0));
        assert_eq!(t.value_at(Seconds::new(3.0)), Some(20.0));
    }

    #[test]
    fn window_statistics() {
        let mut t = Trace::new("w");
        for n in 0..10 {
            t.record(Seconds::new(n as f64), n as f64);
        }
        assert_eq!(t.min_in(Seconds::new(2.0), Seconds::new(5.0)), Some(2.0));
        assert_eq!(t.max_in(Seconds::new(2.0), Seconds::new(5.0)), Some(5.0));
        assert_eq!(t.min_in(Seconds::new(20.0), Seconds::new(30.0)), None);
    }

    #[test]
    fn mean_of_ramp() {
        let mut t = Trace::new("ramp");
        for n in 0..=10 {
            t.record(Seconds::new(n as f64), n as f64);
        }
        assert!((t.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample() {
        let t = Trace::new("e");
        assert!(t.is_empty());
        assert_eq!(t.mean(), None);
        assert_eq!(t.duty_cycle(0.5), None);
        let mut t2 = Trace::new("one");
        t2.record(Seconds::new(1.0), 7.0);
        assert_eq!(t2.mean(), Some(7.0));
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn start_end_times() {
        let t = square_wave();
        assert_eq!(t.start_time(), Some(Seconds::ZERO));
        assert!(t.end_time().unwrap().value() > 0.015);
    }
}
