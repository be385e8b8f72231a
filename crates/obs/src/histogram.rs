//! Fixed-bucket histograms with explicit underflow/overflow bins.

use eh_units::Error;

/// A histogram over a fixed, strictly increasing set of bucket bounds.
///
/// For bounds `[b0, b1, …, bn]` the histogram keeps `n + 2` bins:
///
/// * bin 0 — the underflow bin, `(-∞, b0)`;
/// * bin `i` (1 ≤ i ≤ n) — `[b(i-1), b(i))`;
/// * bin `n + 1` — the overflow bin, `[bn, ∞)`.
///
/// Non-finite values are never binned; they increment a separate
/// `rejected` count so a NaN leaking into a hot path is visible instead
/// of silently skewing a bin (and so exports stay valid JSON).
///
/// ```
/// use eh_obs::Histogram;
///
/// let mut h = Histogram::new(&[1.0, 10.0])?;
/// assert!(h.record(0.5)); // underflow bin
/// assert!(h.record(1.0)); // [1, 10)
/// assert!(h.record(10.0)); // overflow bin
/// assert!(!h.record(f64::NAN));
/// assert_eq!(h.counts(), &[1, 1, 1]);
/// assert_eq!(h.rejected(), 1);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    rejected: u64,
}

impl Histogram {
    /// Creates a histogram over the given bucket bounds.
    ///
    /// # Errors
    ///
    /// Rejects empty bounds, non-finite bounds, and bounds that are not
    /// strictly increasing.
    pub fn new(bounds: &[f64]) -> Result<Self, Error> {
        if bounds.is_empty() {
            return Err(Error::InvalidParameter {
                name: "bounds",
                value: f64::NAN,
            });
        }
        for pair in bounds.windows(2) {
            // NaN pairs land here too (never strictly increasing), but
            // the finite check below names the offending bound.
            if pair[0] >= pair[1] || pair[0].is_nan() || pair[1].is_nan() {
                return Err(Error::InvalidParameter {
                    name: "bounds",
                    value: pair[1],
                });
            }
        }
        if let Some(&bad) = bounds.iter().find(|b| !b.is_finite()) {
            return Err(Error::InvalidParameter {
                name: "bounds",
                value: bad,
            });
        }
        Ok(Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            rejected: 0,
        })
    }

    /// Records one observation. Returns `false` (and counts the value as
    /// rejected) for non-finite input.
    pub fn record(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            self.rejected += 1;
            return false;
        }
        let idx = self.bounds.partition_point(|b| *b <= value);
        self.counts[idx] += 1;
        true
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The per-bin counts: `bounds().len() + 1` entries, underflow first
    /// and overflow last.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// How many non-finite observations were rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total binned observations (excluding rejected ones).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Absorbs another histogram. Matching bounds merge bin-by-bin;
    /// mismatched bounds fold every foreign observation (binned and
    /// rejected) into this histogram's rejected count, so a merge is
    /// total and deterministic but a schema clash stays visible.
    pub fn absorb(&mut self, other: Histogram) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
                *mine += theirs;
            }
            self.rejected += other.rejected;
        } else {
            self.rejected += other.total_count() + other.rejected;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_bounds_rejected() {
        assert!(Histogram::new(&[]).is_err());
        assert!(Histogram::new(&[1.0, 1.0]).is_err());
        assert!(Histogram::new(&[2.0, 1.0]).is_err());
        assert!(Histogram::new(&[0.0, f64::NAN]).is_err());
        assert!(Histogram::new(&[0.0, f64::INFINITY]).is_err());
        assert!(Histogram::new(&[-1.0, 0.5, 2.0]).is_ok());
    }

    #[test]
    fn bucket_edges_underflow_and_overflow() {
        let mut h = Histogram::new(&[0.0, 1.0, 2.0]).unwrap();
        // Strictly below the first bound → underflow.
        h.record(-0.001);
        // Exactly on a bound → the bin it opens.
        h.record(0.0);
        h.record(1.0);
        // Exactly on the last bound → overflow.
        h.record(2.0);
        h.record(1e300);
        assert_eq!(h.counts(), &[1, 1, 1, 2]);
        assert_eq!(h.total_count(), 5);
    }

    #[test]
    fn non_finite_values_are_rejected_not_binned() {
        let mut h = Histogram::new(&[1.0]).unwrap();
        assert!(!h.record(f64::NAN));
        assert!(!h.record(f64::INFINITY));
        assert!(!h.record(f64::NEG_INFINITY));
        assert_eq!(h.total_count(), 0);
        assert_eq!(h.rejected(), 3);
    }

    #[test]
    fn absorb_matching_bounds_adds_bins() {
        let mut a = Histogram::new(&[1.0, 2.0]).unwrap();
        let mut b = Histogram::new(&[1.0, 2.0]).unwrap();
        a.record(0.5);
        b.record(1.5);
        b.record(f64::NAN);
        a.absorb(b);
        assert_eq!(a.counts(), &[1, 1, 0]);
        assert_eq!(a.rejected(), 1);
    }

    #[test]
    fn absorb_mismatched_bounds_counts_as_rejected() {
        let mut a = Histogram::new(&[1.0]).unwrap();
        let mut b = Histogram::new(&[2.0]).unwrap();
        b.record(0.5);
        b.record(3.0);
        b.record(f64::NAN);
        a.absorb(b);
        assert_eq!(a.total_count(), 0);
        assert_eq!(a.rejected(), 3);
    }
}
