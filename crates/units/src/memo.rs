//! A bounded, single-flight memo for deterministic computations.
//!
//! The workspace reuses results wherever a computation is a pure
//! function of its key: the PV crate's surface registry and the
//! service's response and context caches. Each needs the same thing,
//! so [`Memo`] is their one implementation:
//!
//! - A stored value is a hit, and the hit refreshes its recency.
//! - For a missing key, the first caller computes the value outside the
//!   lock. Callers of that key who arrive meanwhile wait, then get its
//!   result, errors included.
//! - A success is stored, and its computation ends, in one step under
//!   the lock, so no caller can miss both. A failure is not stored.
//! - Past capacity, the least recently used value is evicted. A
//!   capacity of 0 acts as 1.
//! - A computation that panics ends with no result, and its waiters
//!   then compute the key themselves.
//!
//! Because every computation is deterministic, a stored or shared
//! value is the value the caller would have computed: eviction moves
//! cost, never answers. Recency is a tick per value, and eviction scans
//! for the oldest tick, which is O(capacity) per stored value: the
//! right trade at these sizes (a dozen to a few hundred values).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// How [`Memo::get_or_compute`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The value was stored.
    Hit,
    /// Another caller was computing the key; this one waited for its
    /// result.
    Coalesced,
    /// This caller computed the key.
    Computed {
        /// Whether storing the value evicted the least recently used
        /// one.
        evicted: bool,
    },
}

/// A snapshot of a [`Memo`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Computations that returned, failures included.
    pub computed: u64,
    /// Lookups answered with a stored value.
    pub hits: u64,
    /// Lookups answered with another caller's result.
    pub coalesced: u64,
    /// Values dropped to stay within capacity.
    pub evictions: u64,
    /// Values held now.
    pub entries: usize,
}

/// One computation's result for its waiters: unset while it runs,
/// `None` if it panicked.
type Flight<V, E> = Arc<OnceLock<Option<Result<V, E>>>>;

#[derive(Debug)]
struct State<K, V, E> {
    /// Stored values, each with the tick of its last use.
    values: HashMap<K, (u64, V)>,
    /// Keys a caller is computing now.
    flights: HashMap<K, Flight<V, E>>,
    tick: u64,
    stats: MemoStats,
}

/// A bounded map from keys to the results of a deterministic
/// computation, computing each missing key once however many callers
/// ask for it at the same time.
///
/// # Examples
///
/// ```
/// use eh_units::{Lookup, Memo};
///
/// let memo: Memo<u32, u64, String> = Memo::new(2);
/// let (value, lookup) = memo.get_or_compute(3, || Ok(9));
/// assert_eq!((value, lookup), (Ok(9), Lookup::Computed { evicted: false }));
/// let (value, lookup) = memo.get_or_compute(3, || unreachable!("stored"));
/// assert_eq!((value, lookup), (Ok(9), Lookup::Hit));
/// ```
#[derive(Debug)]
pub struct Memo<K, V, E> {
    state: Mutex<State<K, V, E>>,
    /// Signalled whenever a computation ends.
    landed: Condvar,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone, E: Clone> Memo<K, V, E> {
    /// An empty memo holding at most `capacity` values (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                values: HashMap::new(),
                flights: HashMap::new(),
                tick: 0,
                stats: MemoStats::default(),
            }),
            landed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Every update under the lock leaves `State` valid (a computation
    /// runs outside it), so a guard poisoned by a panicking caller still
    /// holds valid data.
    fn lock(&self) -> MutexGuard<'_, State<K, V, E>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counters now.
    pub fn stats(&self) -> MemoStats {
        let state = self.lock();
        MemoStats {
            entries: state.values.len(),
            ..state.stats
        }
    }

    /// The value for `key`: stored, another caller's result for it, or
    /// `compute`'s, which runs outside the lock.
    pub fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> (Result<V, E>, Lookup) {
        let mut guard = self.lock();
        loop {
            let state = &mut *guard;
            if let Some((last_used, value)) = state.values.get_mut(&key) {
                state.tick += 1;
                *last_used = state.tick;
                state.stats.hits += 1;
                return (Ok(value.clone()), Lookup::Hit);
            }
            let Some(flight) = state.flights.get(&key).map(Arc::clone) else {
                break;
            };
            while flight.get().is_none() {
                guard = self
                    .landed
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if let Some(Some(result)) = flight.get() {
                guard.stats.coalesced += 1;
                return (result.clone(), Lookup::Coalesced);
            }
            // The computation panicked: look again.
        }
        let flight = Flight::default();
        guard.flights.insert(key.clone(), Arc::clone(&flight));
        drop(guard);
        let pending = Pending {
            memo: self,
            key,
            flight,
        };
        let result = compute();
        let evicted = pending.land(&result);
        (result, Lookup::Computed { evicted })
    }

    /// How many callers wait for `key`'s computation now, `None` when
    /// no caller computes it.
    #[cfg(test)]
    fn waiters(&self, key: &K) -> Option<usize> {
        // The table and the computing caller hold the other two.
        let state = self.lock();
        state.flights.get(key).map(|f| Arc::strong_count(f) - 2)
    }
}

/// A computation in progress. Dropping it before it lands (when the
/// computation panics) ends it with no result, so that its waiters
/// never wait for a computation that stopped.
struct Pending<'a, K: Eq + Hash + Clone, V: Clone, E: Clone> {
    memo: &'a Memo<K, V, E>,
    key: K,
    flight: Flight<V, E>,
}

impl<K: Eq + Hash + Clone, V: Clone, E: Clone> Pending<'_, K, V, E> {
    /// Stores a success, evicting the least recently used value past
    /// capacity, and hands `result` to the waiters, all under one lock.
    /// Returns whether a value was evicted.
    fn land(self, result: &Result<V, E>) -> bool {
        let mut guard = self.memo.lock();
        let state = &mut *guard;
        let mut evicted = false;
        if let Ok(value) = result {
            if state.values.len() >= self.memo.capacity {
                let oldest = state
                    .values
                    .iter()
                    .min_by_key(|(_, (last_used, _))| *last_used)
                    .map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    state.values.remove(&oldest);
                    state.stats.evictions += 1;
                    evicted = true;
                }
            }
            state.tick += 1;
            state
                .values
                .insert(self.key.clone(), (state.tick, value.clone()));
        }
        state.stats.computed += 1;
        self.end(state, Some(result.clone()));
        evicted
    }

    /// Ends the computation with `result` under the lock `state` is
    /// borrowed from, and wakes the waiters.
    fn end(&self, state: &mut State<K, V, E>, result: Option<Result<V, E>>) {
        state.flights.remove(&self.key);
        let _ = self.flight.set(result);
        self.memo.landed.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone, E: Clone> Drop for Pending<'_, K, V, E> {
    fn drop(&mut self) {
        if self.flight.get().is_none() {
            let mut guard = self.memo.lock();
            self.end(&mut guard, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use super::*;

    /// Returns once a caller computes `key` and `n` others wait for it.
    fn until_waiting(memo: &Memo<u32, u32, String>, key: u32, n: usize) {
        while memo.waiters(&key).is_none_or(|waiting| waiting < n) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn hits_refresh_recency_and_the_least_recent_value_is_evicted() {
        let memo: Memo<u32, u32, String> = Memo::new(2);
        let computed = Lookup::Computed { evicted: false };
        assert_eq!(memo.get_or_compute(1, || Ok(10)), (Ok(10), computed));
        assert_eq!(memo.get_or_compute(2, || Ok(20)), (Ok(20), computed));
        assert_eq!(memo.get_or_compute(1, || Ok(0)), (Ok(10), Lookup::Hit));
        // 1 was used last, so storing 3 evicts 2, and only 2.
        let evicting = Lookup::Computed { evicted: true };
        assert_eq!(memo.get_or_compute(3, || Ok(30)), (Ok(30), evicting));
        assert_eq!(memo.get_or_compute(1, || Ok(0)), (Ok(10), Lookup::Hit));
        assert_eq!(memo.get_or_compute(3, || Ok(0)), (Ok(30), Lookup::Hit));
        // 1 is now the least recently used.
        assert_eq!(memo.get_or_compute(2, || Ok(21)), (Ok(21), evicting));
        assert_eq!(memo.get_or_compute(1, || Ok(11)), (Ok(11), evicting));
        let stats = memo.stats();
        assert_eq!(
            stats,
            MemoStats {
                computed: 5,
                hits: 3,
                coalesced: 0,
                evictions: 3,
                entries: 2,
            }
        );
    }

    #[test]
    fn capacity_zero_acts_as_one() {
        let memo: Memo<u32, u32, String> = Memo::new(0);
        let computed = Lookup::Computed { evicted: false };
        assert_eq!(memo.get_or_compute(1, || Ok(1)), (Ok(1), computed));
        assert_eq!(memo.get_or_compute(1, || Ok(0)), (Ok(1), Lookup::Hit));
        let evicting = Lookup::Computed { evicted: true };
        assert_eq!(memo.get_or_compute(2, || Ok(2)), (Ok(2), evicting));
        assert_eq!(memo.get_or_compute(1, || Ok(3)), (Ok(3), evicting));
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn a_failure_reaches_its_waiters_and_is_not_stored() {
        let memo: Memo<u32, u32, String> = Memo::new(4);
        let (led, waited) = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                memo.get_or_compute(7, || {
                    until_waiting(&memo, 7, 1);
                    Err("no table".to_owned())
                })
            });
            until_waiting(&memo, 7, 0);
            let waiter = s.spawn(|| memo.get_or_compute(7, || unreachable!("computing")));
            (leader.join().unwrap(), waiter.join().unwrap())
        });
        let failure = Err("no table".to_owned());
        assert_eq!(led, (failure.clone(), Lookup::Computed { evicted: false }));
        assert_eq!(waited, (failure, Lookup::Coalesced));
        let stats = memo.stats();
        assert_eq!((stats.computed, stats.coalesced, stats.entries), (1, 1, 0));
        // Nothing was stored, so the next caller computes again.
        let (value, lookup) = memo.get_or_compute(7, || Ok(70));
        assert_eq!(
            (value, lookup),
            (Ok(70), Lookup::Computed { evicted: false })
        );
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_computation() {
        const THREADS: usize = 8;
        let memo: Memo<u32, u32, String> = Memo::new(16);
        let barrier = Barrier::new(THREADS);
        let lookups: Vec<Lookup> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (value, lookup) = memo.get_or_compute(1, || {
                            until_waiting(&memo, 1, THREADS - 1);
                            Ok(42)
                        });
                        assert_eq!(value, Ok(42));
                        lookup
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let coalesced = lookups.iter().filter(|&&l| l == Lookup::Coalesced).count();
        assert_eq!(coalesced, THREADS - 1, "{lookups:?}");
        // Distinct keys each compute.
        let lookups: Vec<Lookup> = std::thread::scope(|s| {
            let callers: Vec<_> = (10..14)
                .map(|k| {
                    let memo = &memo;
                    s.spawn(move || {
                        let (value, lookup) = memo.get_or_compute(k, || Ok(k * 10));
                        assert_eq!(value, Ok(k * 10));
                        lookup
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert!(lookups
            .iter()
            .all(|&l| l == Lookup::Computed { evicted: false }));
        let stats = memo.stats();
        assert_eq!(
            (stats.computed, stats.hits, stats.coalesced, stats.entries),
            (5, 0, 7, 5)
        );
    }

    #[test]
    fn a_waiter_computes_the_key_when_its_computation_panics() {
        let memo: Memo<u32, u32, String> = Memo::new(4);
        let (panicked, waited) = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    memo.get_or_compute(5, || {
                        until_waiting(&memo, 5, 1);
                        panic!("a computation that panics");
                    })
                }))
            });
            until_waiting(&memo, 5, 0);
            let waiter = s.spawn(|| memo.get_or_compute(5, || Ok(50)));
            (leader.join().unwrap(), waiter.join().unwrap())
        });
        assert!(panicked.is_err());
        assert_eq!(waited, (Ok(50), Lookup::Computed { evicted: false }));
        let stats = memo.stats();
        assert_eq!((stats.computed, stats.coalesced, stats.entries), (1, 0, 1));
        assert!(memo.lock().flights.is_empty());
    }
}
