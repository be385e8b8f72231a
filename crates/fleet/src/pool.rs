//! The shared PV-surface pool.
//!
//! Per-node optical tolerance is folded into each node's illuminance
//! perturbation, so every node of a placement shares the *same*
//! electrical cell at that placement's temperature. The pool warms one
//! cell per placement in use up front; the cells it hands to simulation
//! jobs are clones, and clones share the warmed table. The table itself
//! comes from [`eh_pv::registry`], which builds one per
//! `(model, temperature)` per process and bounds how many it keeps, so
//! a 10 000-node fleet — or a service preparing a context per request —
//! pays for at most three table builds per process, not one per node or
//! per context; the registry's own counters account for them.

use eh_pv::PvCell;

use crate::spec::Placement;
use eh_units::Error;

/// One warmed cell per placement in use, in warm order.
#[derive(Debug, Clone)]
pub struct SurfacePool {
    entries: Vec<(Placement, PvCell)>,
}

impl SurfacePool {
    /// Builds the pool for the placements that actually occur in a
    /// population, re-binding `base` to each placement's temperature.
    /// With `cache` set, each cell's surface is taken eagerly here so
    /// worker threads only ever do lookups; without it every cell runs
    /// the exact solver. The node engine follows each cell's policy.
    ///
    /// # Errors
    ///
    /// Propagates surface-construction failures.
    pub fn warm(
        base: &PvCell,
        placements: impl IntoIterator<Item = Placement>,
        cache: bool,
    ) -> Result<Self, Error> {
        let mut entries: Vec<(Placement, PvCell)> = Vec::new();
        for p in placements {
            if entries.iter().any(|(q, _)| *q == p) {
                continue;
            }
            let cell = base.clone().with_temperature(p.cell_temperature());
            let cell = if cache {
                cell.warmed()?
            } else {
                cell.with_cache(false)
            };
            entries.push((p, cell));
        }
        Ok(Self { entries })
    }

    /// The pool's cell for a placement, if that placement was warmed.
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
}
