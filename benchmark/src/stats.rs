//! Order statistics and the result line.

/// Nearest-rank percentile `p` (0–100) of an ascending sample; `NaN`
/// for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    // The epsilon keeps ranks such as 100·(n−10)/n · n/100 from rounding
    // up past the exact integer they denote.
    let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The highest percentile whose nearest-rank value still has at least
/// ten samples beyond it, or `None` when `n` is too small to have one.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > 10).then(|| 100.0 * (n - 10) as f64 / n as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (a layer or count a workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one attempted operation, and a failure with its reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            // Keep the log bounded when every operation fails alike.
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {reason}"));
            }
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values print with every digit (Rust's
    /// shortest round-trip form); a non-finite value becomes `null`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // Rank is ceil(p·n): p75 of 40 samples is the 30th.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 75.0), 30.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        for n in 11..500 {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let p = tail_percentile(n).unwrap();
            let at = percentile(&v, p);
            let beyond = v.iter().filter(|&&x| x > at).count();
            assert_eq!(beyond, 10, "n = {n}, p = {p}");
            // Any higher percentile leaves fewer than ten beyond it.
            let next = percentile(&v, p + 1e-6);
            assert!(v.iter().filter(|&&x| x > next).count() < 10);
        }
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "tracker.pilot-cell.self_share",
            "op_p50_ms",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "a\"b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("boom".into()));
        o.metrics.push(Metric::new("a_ms", 1.25, "ms"));
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let parsed = eh_serve::Json::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(|j| j.as_u64()), Some(2));
    }
}
