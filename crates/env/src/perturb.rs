//! Per-node illuminance-trace perturbation.
//!
//! A fleet of sensor nodes in one building shares the weather and the
//! lighting schedule but not the photometric details: a node by the
//! window sees a constant skylight offset the interior desk never gets,
//! dust or partial shading derates another's aperture, and cell-to-cell
//! photocurrent tolerance is (to first order) one more optical gain in
//! front of the same junction stack. [`TracePerturbation`] captures all
//! of that as an affine transform of a shared base trace:
//!
//! ```text
//! lux'(t) = max(0, gain · lux(t) + offset)
//! ```
//!
//! Folding the PV optical tolerance into `gain` is what lets an entire
//! heterogeneous fleet share a single memoized `eh_pv::CachedPvSurface`
//! per `(model, temperature)` — the electrical model stays identical
//! across nodes while the light each node sees differs.
//!
//! The clamp at 0 lx is load-bearing, not cosmetic: a negative offset
//! (an interior desk darker than the logged reference) would otherwise
//! drive night-time samples below zero, and every PV query downstream
//! rejects negative illuminance. The regression tests in this module
//! fail against the naive `gain·lux + offset` transform.

use eh_units::Error;

use crate::series::TimeSeries;

/// A validated affine illuminance perturbation: `gain`, then `offset`,
/// then a clamp at 0 lx.
///
/// ```
/// use eh_env::{profiles, TracePerturbation};
/// use eh_units::{Lux, Seconds};
///
/// let base = profiles::constant(Lux::new(100.0), Seconds::new(10.0));
/// let shaded = TracePerturbation::new(0.7, -50.0)?.apply(&base);
/// assert_eq!(shaded.sample(0), Some(20.0)); // 0.7·100 − 50
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePerturbation {
    gain: f64,
    offset_lux: f64,
}

impl TracePerturbation {
    /// Creates a perturbation with the given multiplicative `gain`
    /// (optical tolerance × dust/shading derating) and additive
    /// `offset_lux` (placement offset; may be negative — the output is
    /// clamped at 0 lx).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or negative gain and a non-finite offset: a
    /// NaN factor would silently poison every downstream energy ledger,
    /// and a negative gain has no optical meaning.
    pub fn new(gain: f64, offset_lux: f64) -> Result<Self, Error> {
        if !(gain.is_finite() && gain >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "gain",
                value: gain,
            });
        }
        if !offset_lux.is_finite() {
            return Err(Error::InvalidParameter {
                name: "offset_lux",
                value: offset_lux,
            });
        }
        Ok(Self { gain, offset_lux })
    }

    /// The do-nothing perturbation (gain 1, offset 0).
    pub fn identity() -> Self {
        Self {
            gain: 1.0,
            offset_lux: 0.0,
        }
    }

    /// The multiplicative factor.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The additive offset in lux.
    pub fn offset_lux(&self) -> f64 {
        self.offset_lux
    }

    /// Applies the transform to every sample of `trace`, keeping the
    /// time base. Output samples are clamped at 0 lx so a negative
    /// offset can never produce an unphysical negative illuminance.
    #[must_use]
    pub fn apply(&self, trace: &TimeSeries) -> TimeSeries {
        trace.map(|lux| (self.gain * lux + self.offset_lux).max(0.0))
    }
}

impl Default for TracePerturbation {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use eh_units::{Lux, Seconds};

    #[test]
    fn identity_is_exact() {
        let base = profiles::office_desk_mixed(3).decimate(600).unwrap();
        let out = TracePerturbation::identity().apply(&base);
        assert_eq!(out, base);
    }

    /// Regression (fails pre-fix): the naive `gain·lux + offset`
    /// transform drives dark samples negative under a negative placement
    /// offset; the clamp must hold the floor at exactly 0 lx.
    #[test]
    fn negative_offset_clamps_at_zero_lux() {
        let night = profiles::constant(Lux::new(5.0), Seconds::new(60.0));
        let dark_corner = TracePerturbation::new(0.8, -200.0).unwrap();
        let out = dark_corner.apply(&night);
        assert!(
            out.values().iter().all(|&v| v == 0.0),
            "negative illuminance leaked through: min = {}",
            out.min()
        );
        // A zero-gain blackout clamps too.
        let blackout = TracePerturbation::new(0.0, -1.0).unwrap().apply(&night);
        assert_eq!(blackout.min(), 0.0);
        assert_eq!(blackout.max(), 0.0);
    }

    /// Regression (fails pre-fix): non-finite and negative factors must
    /// be rejected at construction, not propagated into the simulation.
    #[test]
    fn non_finite_and_negative_factors_are_rejected() {
        for bad_gain in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert!(
                TracePerturbation::new(bad_gain, 0.0).is_err(),
                "gain {bad_gain} accepted"
            );
        }
        for bad_offset in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                TracePerturbation::new(1.0, bad_offset).is_err(),
                "offset {bad_offset} accepted"
            );
        }
        // Boundary values stay valid.
        assert!(TracePerturbation::new(0.0, -1e6).is_ok());
    }

    #[test]
    fn gain_and_offset_compose_in_order() {
        let base = profiles::constant(Lux::new(100.0), Seconds::new(10.0));
        let p = TracePerturbation::new(1.5, 10.0).unwrap();
        let out = p.apply(&base);
        assert_eq!(out.sample(0), Some(160.0)); // 1.5·100 + 10, not 1.5·(100+10)
        assert_eq!(out.dt(), base.dt());
        assert_eq!(out.len(), base.len());
    }
}
