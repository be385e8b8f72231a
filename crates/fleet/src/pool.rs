//! The shared PV-surface pool.
//!
//! Per-node optical tolerance is folded into each node's illuminance
//! perturbation, so every node of a placement shares the *same*
//! electrical cell at that placement's temperature. The pool warms one
//! memoized [`eh_pv::CachedPvSurface`] per `(model, temperature)` up
//! front; the cells it hands to simulation jobs are clones, and clones
//! share the built table — a 10 000-node fleet pays for at most three
//! table builds, not 10 000.
//!
//! The pool is **capacity-bounded**: inserting past the bound evicts
//! the oldest warmed cell and counts the eviction, so a long-running
//! service that warms pools for a hostile stream of distinct specs can
//! neither grow one without bound nor lose track of how much table
//! churn the stream is causing. Evictions and occupancy are exported
//! into an [`eh_obs::Recorder`] via [`SurfacePool::record_into`].

use eh_obs::Recorder;
use eh_pv::PvCell;

use crate::error::FleetError;
use crate::spec::Placement;

/// One warmed cell per placement in use, indexed by
/// [`Placement::index`], bounded by a capacity with oldest-first
/// eviction.
#[derive(Debug, Clone)]
pub struct SurfacePool {
    /// Warmed cells in insertion order, oldest first.
    entries: Vec<(Placement, PvCell)>,
    capacity: usize,
    evictions: u64,
}

impl SurfacePool {
    /// Builds the pool for the placements that actually occur in a
    /// population, re-binding `base` to each placement's temperature.
    /// With `cache` set, each cell's surface is built eagerly here so
    /// worker threads only ever do lookups; without it every cell runs
    /// the exact solver. The node engine follows each cell's policy. The
    /// capacity covers every placement, so this constructor never evicts.
    ///
    /// # Errors
    ///
    /// Propagates surface-construction failures.
    pub fn warm(
        base: &PvCell,
        placements: impl IntoIterator<Item = Placement>,
        cache: bool,
    ) -> Result<Self, FleetError> {
        Self::warm_bounded(base, placements, cache, Placement::ALL.len())
    }

    /// [`SurfacePool::warm`] with an explicit capacity bound (clamped
    /// to at least 1). Warming more distinct placements than the bound
    /// evicts the oldest cell and counts it in
    /// [`SurfacePool::evictions`].
    ///
    /// # Errors
    ///
    /// Propagates surface-construction failures.
    pub fn warm_bounded(
        base: &PvCell,
        placements: impl IntoIterator<Item = Placement>,
        cache: bool,
        capacity: usize,
    ) -> Result<Self, FleetError> {
        let mut pool = Self {
            entries: Vec::new(),
            capacity: capacity.max(1),
            evictions: 0,
        };
        for p in placements {
            pool.warm_one(base, p, cache)?;
        }
        Ok(pool)
    }

    /// Warms (or re-warms after an eviction) the cell of one placement,
    /// evicting the oldest entry when the pool is at capacity. A
    /// placement that is already warmed is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates surface-construction failures.
    pub fn warm_one(&mut self, base: &PvCell, p: Placement, cache: bool) -> Result<(), FleetError> {
        if self.cell(p).is_some() {
            return Ok(());
        }
        let cell = base.clone().with_temperature(p.cell_temperature());
        let cell = if cache {
            cell.warmed()?
        } else {
            cell.with_cache(false)
        };
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.entries.push((p, cell));
        Ok(())
    }

    /// The pool's cell for a placement, if that placement is currently
    /// warmed (it may have been evicted by a later insert).
    pub fn cell(&self, p: Placement) -> Option<&PvCell> {
        self.entries
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, cell)| cell)
    }

    /// How many distinct `(model, temperature)` cells the pool holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The maximum number of warmed cells the pool will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many warmed cells were evicted to respect the capacity
    /// bound over the pool's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Exports the pool's accounting into a metric store: the
    /// `fleet.surface_pool.evictions` counter and the
    /// `fleet.surface_pool.entries` / `fleet.surface_pool.capacity`
    /// gauges. Call once per warmed pool (counters add).
    pub fn record_into<R: Recorder + ?Sized>(&self, r: &mut R) {
        r.add_counter("fleet.surface_pool.warmed", self.entries.len() as u64);
        r.add_counter("fleet.surface_pool.evictions", self.evictions);
        r.set_gauge("fleet.surface_pool.entries", self.entries.len() as f64);
        r.set_gauge("fleet.surface_pool.capacity", self.capacity as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_pv::{presets, CachedPvSurface};

    #[test]
    fn clones_share_the_warmed_surface() {
        let pool = SurfacePool::warm(
            &presets::sanyo_am1815(),
            [Placement::InteriorDesk, Placement::InteriorDesk],
            true,
        )
        .unwrap();
        assert_eq!(pool.len(), 1);
        let cell = pool.cell(Placement::InteriorDesk).unwrap();
        let a = cell.cached().unwrap() as *const CachedPvSurface;
        let b = cell.clone().cached().unwrap() as *const CachedPvSurface;
        assert_eq!(a, b, "job clone rebuilt the table");
        assert!(pool.cell(Placement::Outdoor).is_none());
    }

    #[test]
    fn placements_get_distinct_temperature_surfaces() {
        let pool = SurfacePool::warm(&presets::sanyo_am1815(), Placement::ALL, true).unwrap();
        assert_eq!(pool.len(), 3);
        let window = pool.cell(Placement::WindowDesk).unwrap();
        let interior = pool.cell(Placement::InteriorDesk).unwrap();
        assert_ne!(window.temperature(), interior.temperature());
        let a = window.cached().unwrap() as *const CachedPvSurface;
        let b = interior.cached().unwrap() as *const CachedPvSurface;
        assert_ne!(a, b, "different temperatures must not share one table");
    }

    #[test]
    fn uncached_pool_builds_no_surfaces() {
        let pool =
            SurfacePool::warm(&presets::sanyo_am1815(), [Placement::Outdoor], false).unwrap();
        assert!(!pool.is_empty());
        assert!(!pool.cell(Placement::Outdoor).unwrap().cache_enabled());
    }

    /// Regression (PR 8): the pool used to have no size accounting at
    /// all — a capacity bound must evict oldest-first and count it.
    #[test]
    fn bounded_pool_evicts_oldest_and_counts() {
        let base = presets::sanyo_am1815();
        let mut pool = SurfacePool::warm_bounded(
            &base,
            [Placement::WindowDesk, Placement::InteriorDesk],
            false,
            2,
        )
        .unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 0);
        // A third distinct placement exceeds the bound: the oldest
        // (window desk) is evicted and the eviction is counted.
        pool.warm_one(&base, Placement::Outdoor, false).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.evictions(), 1);
        assert!(pool.cell(Placement::WindowDesk).is_none());
        assert!(pool.cell(Placement::InteriorDesk).is_some());
        assert!(pool.cell(Placement::Outdoor).is_some());
        // Re-warming an already-warm placement is a no-op.
        pool.warm_one(&base, Placement::Outdoor, false).unwrap();
        assert_eq!(pool.evictions(), 1);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let pool =
            SurfacePool::warm_bounded(&presets::sanyo_am1815(), Placement::ALL, false, 0).unwrap();
        assert_eq!(pool.capacity(), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.evictions(), 2);
    }

    #[test]
    fn accounting_exports_into_a_recorder() {
        use eh_obs::Metrics;
        let pool =
            SurfacePool::warm_bounded(&presets::sanyo_am1815(), Placement::ALL, false, 2).unwrap();
        let mut m = Metrics::new();
        pool.record_into(&mut m);
        assert_eq!(m.counter("fleet.surface_pool.evictions"), 1);
        assert_eq!(m.counter("fleet.surface_pool.warmed"), 2);
        assert_eq!(m.gauge("fleet.surface_pool.entries"), Some(2.0));
        assert_eq!(m.gauge("fleet.surface_pool.capacity"), Some(2.0));
    }
}
