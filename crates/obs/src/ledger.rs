//! The per-run energy ledger and its conservation invariant.

use eh_units::{Error, Joules};

/// The consumption buckets the ledger attributes energy to, mirroring
/// the paper's circuit: the astable multivibrator that times the PULSE,
/// the sample-and-hold metrology chain, the switching converter's
/// conversion losses, the node load, and — for digital trackers — the
/// control-law compute energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyBucket {
    /// The astable multivibrator (PULSE timing) supply draw. At the node
    /// layer, where tracker overhead is a lump sum, harvesting-step
    /// overhead lands here (the astable runs between pulses).
    Astable,
    /// The sample-and-hold chain supply draw. At the node layer,
    /// measurement-dwell overhead lands here (the S&H is active during
    /// PULSE).
    SampleHold,
    /// Energy dissipated inside the switching converter (and the series
    /// power-path MOSFET at the core layer).
    ConverterSwitching,
    /// Energy actually delivered to the node load.
    Load,
    /// Control-law compute energy (ops per decision × energy per op) for
    /// digital trackers; analog trackers never charge it.
    Compute,
}

impl EnergyBucket {
    /// Every bucket, in the fixed order used for indexing and export.
    pub const ALL: [EnergyBucket; 5] = [
        EnergyBucket::Astable,
        EnergyBucket::SampleHold,
        EnergyBucket::ConverterSwitching,
        EnergyBucket::Load,
        EnergyBucket::Compute,
    ];

    /// Stable index of this bucket in [`EnergyBucket::ALL`].
    pub fn index(self) -> usize {
        match self {
            EnergyBucket::Astable => 0,
            EnergyBucket::SampleHold => 1,
            EnergyBucket::ConverterSwitching => 2,
            EnergyBucket::Load => 3,
            EnergyBucket::Compute => 4,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            EnergyBucket::Astable => "astable",
            EnergyBucket::SampleHold => "sample-and-hold",
            EnergyBucket::ConverterSwitching => "converter-switching",
            EnergyBucket::Load => "load",
            EnergyBucket::Compute => "compute",
        }
    }

    /// Snake-case key used in JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            EnergyBucket::Astable => "astable",
            EnergyBucket::SampleHold => "sample_hold",
            EnergyBucket::ConverterSwitching => "converter_switching",
            EnergyBucket::Load => "load",
            EnergyBucket::Compute => "compute",
        }
    }
}

/// A per-run split of consumed energy into the five
/// [`EnergyBucket`]s.
///
/// The ledger is an independent accounting path: instrumented code
/// charges buckets at the same sites the closed-loop accumulators run,
/// and [`EnergyLedger::check_conservation`] compares the two at the end
/// of a run. Because the additions happen in different groupings the
/// float rounding differs, so the check is a real invariant rather than
/// a tautology — it catches a bucket that was forgotten, double-charged,
/// or charged with the wrong sign.
///
/// ```
/// use eh_obs::{EnergyBucket, EnergyLedger};
/// use eh_units::Joules;
///
/// let mut ledger = EnergyLedger::new();
/// ledger.charge(EnergyBucket::Astable, Joules::new(2.0));
/// ledger.charge(EnergyBucket::Load, Joules::new(1.0));
/// assert_eq!(ledger.total(), Joules::new(3.0));
/// assert!(ledger.check_conservation(Joules::new(3.0), 1e-9).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    joules: [f64; 5],
}

impl EnergyLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds energy to a bucket; non-finite amounts are ignored so a NaN
    /// cannot poison the whole ledger.
    pub fn charge(&mut self, bucket: EnergyBucket, energy: Joules) {
        let j = energy.value();
        if j.is_finite() {
            self.joules[bucket.index()] += j;
        }
    }

    /// The energy accumulated in one bucket.
    pub fn energy(&self, bucket: EnergyBucket) -> Joules {
        Joules::new(self.joules[bucket.index()])
    }

    /// The bucket sum, folded in the fixed [`EnergyBucket::ALL`] order.
    pub fn total(&self) -> Joules {
        Joules::new(self.joules.iter().sum())
    }

    /// Whether anything was ever charged.
    pub fn is_empty(&self) -> bool {
        self.joules.iter().all(|&j| j == 0.0)
    }

    /// Absorbs another ledger bucket-by-bucket.
    pub fn absorb(&mut self, other: &EnergyLedger) {
        for (mine, theirs) in self.joules.iter_mut().zip(other.joules) {
            *mine += theirs;
        }
    }

    /// The symmetric relative error between the bucket sum and an
    /// independently accumulated closed-loop total: `|Δ| / max(|a|,
    /// |b|)`, and `0` when both are zero (a dark run consumed nothing,
    /// which conserves trivially).
    pub fn relative_error(&self, closed_loop_total: Joules) -> f64 {
        let a = self.total().value();
        let b = closed_loop_total.value();
        let denom = a.abs().max(b.abs());
        if denom == 0.0 {
            0.0
        } else {
            (a - b).abs() / denom
        }
    }

    /// Checks the conservation invariant against a closed-loop total,
    /// returning the achieved relative error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConservationViolation`] when the relative
    /// error exceeds `tolerance` (or is non-finite).
    pub fn check_conservation(
        &self,
        closed_loop_total: Joules,
        tolerance: f64,
    ) -> Result<f64, Error> {
        let rel = self.relative_error(closed_loop_total);
        if rel.is_finite() && rel <= tolerance {
            Ok(rel)
        } else {
            Err(Error::ConservationViolation {
                ledger_total_j: self.total().value(),
                closed_loop_total_j: closed_loop_total.value(),
                relative_error: rel,
                tolerance,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_independently() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyBucket::Astable, Joules::new(1.0));
        l.charge(EnergyBucket::SampleHold, Joules::new(2.0));
        l.charge(EnergyBucket::ConverterSwitching, Joules::new(4.0));
        l.charge(EnergyBucket::Load, Joules::new(8.0));
        l.charge(EnergyBucket::Load, Joules::new(8.0));
        l.charge(EnergyBucket::Compute, Joules::new(0.5));
        assert_eq!(l.energy(EnergyBucket::Astable), Joules::new(1.0));
        assert_eq!(l.energy(EnergyBucket::Load), Joules::new(16.0));
        assert_eq!(l.energy(EnergyBucket::Compute), Joules::new(0.5));
        assert_eq!(l.total(), Joules::new(23.5));
        assert!(!l.is_empty());
    }

    #[test]
    fn non_finite_charges_are_ignored() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyBucket::Load, Joules::new(f64::NAN));
        l.charge(EnergyBucket::Load, Joules::new(f64::INFINITY));
        assert!(l.is_empty());
        assert_eq!(l.total(), Joules::ZERO);
    }

    #[test]
    fn conservation_tolerates_rounding_but_not_loss() {
        let mut l = EnergyLedger::new();
        l.charge(EnergyBucket::Astable, Joules::new(0.1));
        l.charge(EnergyBucket::Load, Joules::new(0.2));
        // Same total accumulated differently: rounding-level difference.
        let closed = Joules::new(0.2 + 0.1);
        let rel = l.check_conservation(closed, 1e-12).unwrap();
        assert!(rel < 1e-15, "rounding error {rel:.3e}");
        // A genuinely missing bucket trips the check.
        let err = l.check_conservation(Joules::new(0.2), 1e-9);
        assert!(matches!(err, Err(Error::ConservationViolation { .. })));
    }

    #[test]
    fn empty_ledger_conserves_against_zero() {
        let l = EnergyLedger::new();
        assert_eq!(l.check_conservation(Joules::ZERO, 0.0).unwrap(), 0.0);
        assert!(l.check_conservation(Joules::new(1.0), 1e-9).is_err());
    }

    #[test]
    fn absorb_adds_bucketwise() {
        let mut a = EnergyLedger::new();
        a.charge(EnergyBucket::Astable, Joules::new(1.0));
        let mut b = EnergyLedger::new();
        b.charge(EnergyBucket::Astable, Joules::new(2.0));
        b.charge(EnergyBucket::Load, Joules::new(3.0));
        a.absorb(&b);
        assert_eq!(a.energy(EnergyBucket::Astable), Joules::new(3.0));
        assert_eq!(a.energy(EnergyBucket::Load), Joules::new(3.0));
    }
}
