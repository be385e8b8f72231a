//! The process-wide registry of built PV surfaces.
//!
//! Every fleet, campaign and service context of a process uses the same
//! cell model at a handful of placement temperatures, so a
//! [`CachedPvSurface`] is built once per `(model, temperature)` per
//! process and shared from here: [`PvCell::cached`](crate::PvCell::cached)
//! takes its table from the registry. [`CachedPvSurface::build`] stays
//! the only builder, so a shared table has the bits a fresh build would
//! have, and sharing moves no simulation result.
//!
//! - A key is the bits of every model parameter, the model's name (a
//!   surface hands its model back) and the temperature's bits.
//! - The tables live in an [`eh_units::Memo`]: one caller builds a key
//!   while the other callers of that key wait for its table, and the
//!   lock is never held during a build.
//! - Past [`CAPACITY`] tables the least recently used is evicted. A
//!   cell that holds an evicted table keeps answering from it; the next
//!   lookup of that key builds it again.
//! - [`stats`] counts builds, hits, evictions and occupancy. The counts
//!   depend on what the process did before, so they belong in service
//!   metrics, never in a run's `eh_obs::Metrics`.

use std::sync::{Arc, LazyLock};

use eh_units::{Error, Kelvin, Memo};

use crate::cache::CachedPvSurface;
use crate::model::SingleDiodeModel;

/// How many tables the registry keeps: about 6 MB at about 0.5 MB per
/// table. One cell model at the three placement temperatures needs 3,
/// so this leaves room for a few other models or temperatures before
/// anything is evicted.
pub const CAPACITY: usize = 12;

/// A snapshot of the registry's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Tables built.
    pub builds: u64,
    /// Lookups answered with a table built before, waits for another
    /// caller's build included.
    pub hits: u64,
    /// Tables dropped to stay within [`CAPACITY`].
    pub evictions: u64,
    /// Tables held now.
    pub entries: usize,
    /// [`CAPACITY`].
    pub capacity: usize,
}

/// The process-wide registry's counters.
pub fn stats() -> Stats {
    REGISTRY.stats()
}

/// The process-wide table for `(model, temperature)`, built on first
/// use.
pub(crate) fn surface(
    model: &SingleDiodeModel,
    temperature: Kelvin,
) -> Result<Arc<CachedPvSurface>, Error> {
    REGISTRY.surface(model, temperature)
}

static REGISTRY: LazyLock<Registry> = LazyLock::new(Registry::new);

/// A table's identity, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    name: String,
    parameters: [u64; SingleDiodeModel::PARAMETERS],
    temperature: u64,
}

impl Key {
    fn new(model: &SingleDiodeModel, temperature: Kelvin) -> Self {
        Self {
            name: model.name().to_owned(),
            parameters: model.parameter_bits(),
            temperature: temperature.value().to_bits(),
        }
    }
}

#[derive(Debug)]
struct Registry(Memo<Key, Arc<CachedPvSurface>, Error>);

impl Registry {
    fn new() -> Self {
        Self(Memo::new(CAPACITY))
    }

    fn stats(&self) -> Stats {
        let memo = self.0.stats();
        Stats {
            builds: memo.computed,
            hits: memo.hits + memo.coalesced,
            evictions: memo.evictions,
            entries: memo.entries,
            capacity: CAPACITY,
        }
    }

    fn surface(
        &self,
        model: &SingleDiodeModel,
        temperature: Kelvin,
    ) -> Result<Arc<CachedPvSurface>, Error> {
        let build = || CachedPvSurface::build(model, temperature).map(Arc::new);
        self.0.get_or_compute(Key::new(model, temperature), build).0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use eh_units::Celsius;

    use super::*;
    use crate::presets;
    use crate::PvCell;

    #[test]
    fn registry_tables_are_bit_identical_to_a_fresh_build() {
        for cell in [presets::sanyo_am1815(), presets::crystalline_outdoor()] {
            for celsius in [25.0, 30.0, 35.0] {
                let cell = cell.clone().with_temperature(Celsius::new(celsius));
                let fresh = CachedPvSurface::build(cell.model(), cell.temperature()).unwrap();
                assert!(
                    cell.cached().unwrap().table_bits() == fresh.table_bits(),
                    "{} at {celsius} °C",
                    cell.name()
                );
            }
        }
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_build() {
        const THREADS: usize = 8;
        // A name no other test uses keeps the key private to this test.
        let model = presets::sanyo_am1815().model().clone();
        let cell = PvCell::new(model.renamed("registry test: one build per key"));
        // The process-wide registry, through clones of an unwarmed
        // cell: one table for all of them.
        let barrier = Barrier::new(THREADS);
        let tables: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (cell, barrier) = (cell.clone(), &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        std::ptr::from_ref(cell.cached().unwrap()) as usize
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(tables.iter().all(|&t| t == tables[0]), "{tables:?}");
        // The counts, on a registry no other test touches.
        let registry = Registry::new();
        let barrier = Barrier::new(THREADS);
        let tables: Vec<Arc<CachedPvSurface>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        registry.surface(cell.model(), cell.temperature()).unwrap()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(tables.iter().all(|t| Arc::ptr_eq(t, &tables[0])));
        let stats = registry.stats();
        assert_eq!((stats.builds, stats.hits, stats.entries), (1, 7, 1));
    }

    #[test]
    fn oldest_first_eviction_is_counted_exactly() {
        let registry = Registry::new();
        let model = |i: usize| {
            presets::sanyo_am1815()
                .model()
                .clone()
                .renamed(&format!("bound {i}"))
        };
        let first = registry.surface(&model(0), Kelvin::STC).unwrap();
        for i in 1..=CAPACITY {
            registry.surface(&model(i), Kelvin::STC).unwrap();
        }
        let stats = registry.stats();
        assert_eq!(
            (stats.builds, stats.hits, stats.evictions, stats.entries),
            (CAPACITY as u64 + 1, 0, 1, CAPACITY)
        );
        // Key 1 is still there; key 0, the oldest, was evicted. `first`
        // stands for a cell that still holds the evicted table: it
        // answers with the bits of the rebuilt one.
        registry.surface(&model(1), Kelvin::STC).unwrap();
        assert_eq!(registry.stats().hits, 1);
        let rebuilt = registry.surface(&model(0), Kelvin::STC).unwrap();
        assert_eq!(registry.stats().builds, CAPACITY as u64 + 2);
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert!(first.table_bits() == rebuilt.table_bits());
    }

    #[test]
    fn a_temperature_one_ulp_away_or_a_renamed_model_is_a_new_key() {
        let registry = Registry::new();
        let am1815 = presets::sanyo_am1815();
        let t = am1815.temperature();
        let next = Kelvin::new(f64::from_bits(t.value().to_bits() + 1));
        let renamed = am1815.model().clone().renamed("AM-1815, renamed");
        let base = registry.surface(am1815.model(), t).unwrap();
        for (model, temperature) in [(am1815.model(), next), (&renamed, t)] {
            let other = registry.surface(model, temperature).unwrap();
            assert!(!Arc::ptr_eq(&base, &other));
            assert_eq!(other.model().name(), model.name());
            assert_eq!(other.temperature(), temperature);
        }
        let same = registry.surface(am1815.model(), t).unwrap();
        assert!(Arc::ptr_eq(&base, &same));
        let stats = registry.stats();
        assert_eq!((stats.builds, stats.hits, stats.entries), (3, 1, 3));
    }
}
