//! Deterministic parallel sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use eh_units::Error;

use crate::merge::Mergeable;

/// Chunks `items` into `(first_global_index, shard_items)` pairs of at
/// most `shard_size` items each. `shard_size` must be non-zero (callers
/// validate).
fn chunk_shards<T>(items: Vec<T>, shard_size: usize) -> Vec<(usize, Vec<T>)> {
    debug_assert!(shard_size > 0, "shard_size validated by callers");
    let mut shards: Vec<(usize, Vec<T>)> = Vec::with_capacity(items.len().div_ceil(shard_size));
    for (i, item) in items.into_iter().enumerate() {
        match shards.last_mut() {
            Some((_, shard)) if shard.len() < shard_size => shard.push(item),
            _ => shards.push((i, {
                let mut shard = Vec::with_capacity(shard_size);
                shard.push(item);
                shard
            })),
        }
    }
    shards
}

/// Fans a batch of independent jobs across `std::thread::scope` workers.
///
/// Results are collected by input index, so the output order — and
/// therefore every downstream report — is bit-for-bit identical whether
/// the sweep runs on one worker or sixteen. Work is claimed from a
/// shared atomic cursor, so slow jobs never leave workers idle behind a
/// static partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with a fixed worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(thread::available_parallelism().map_or(1, usize::from))
    }

    /// The worker count this runner will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel, returning results in
    /// input order. `f` receives each item's input index alongside the
    /// item so labelling never depends on completion order.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers == 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= n {
                                break;
                            }
                            let item = jobs[idx]
                                .lock()
                                .expect("job mutex poisoned")
                                .take()
                                .expect("each job is claimed exactly once");
                            produced.push((idx, f(idx, item)));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(produced) => {
                        for (idx, result) in produced {
                            slots[idx] = Some(result);
                        }
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });

        slots
            .into_iter()
            .map(|r| r.expect("every claimed index produced a result"))
            .collect()
    }

    /// Hands every contiguous shard of at most `shard_size` items to `f`
    /// — `f(first_global_index, shard_items)` — in parallel, and folds
    /// the shard reports **in shard index order**, returning `Ok(None)`
    /// for empty input.
    ///
    /// The closure sees the whole shard at once, so it may hoist
    /// shard-wide setup out of its per-item loop. Shard boundaries and
    /// the fold order are fixed by the input, never by the scheduler,
    /// so the result is bit-for-bit identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `shard_size` is zero.
    /// A zero shard cannot make progress; it used to be silently clamped
    /// to 1, which hid the caller's bug *and* quietly changed the shard
    /// grouping that float-fold results (merged metrics) are identified
    /// by.
    pub fn run_shards<T, R, F>(
        &self,
        items: Vec<T>,
        shard_size: usize,
        f: F,
    ) -> Result<Option<R>, Error>
    where
        T: Send,
        R: Mergeable + Send,
        F: Fn(usize, Vec<T>) -> R + Sync,
    {
        if shard_size == 0 {
            return Err(Error::InvalidParameter {
                name: "shard_size",
                value: 0.0,
            });
        }
        if items.is_empty() {
            return Ok(None);
        }
        let shards = chunk_shards(items, shard_size);
        let shard_reports = self.run(shards, |_, (base, shard)| f(base, shard));
        Ok(shard_reports.into_iter().reduce(|mut acc, r| {
            acc.merge(r);
            acc
        }))
    }

    /// Maps `f` over every item in shards of `shard_size` and folds the
    /// per-item reports into one aggregate, returning `Ok(None)` for
    /// empty input.
    ///
    /// [`SweepRunner::run_shards`] with a per-item fold inside each
    /// shard: the result is bit-for-bit identical at any worker count
    /// and any shard size — the contract fleet-scale aggregation relies
    /// on.
    ///
    /// # Errors
    ///
    /// As [`SweepRunner::run_shards`]: zero `shard_size` is a typed
    /// error.
    pub fn run_merged<T, R, F>(
        &self,
        items: Vec<T>,
        shard_size: usize,
        f: F,
    ) -> Result<Option<R>, Error>
    where
        T: Send,
        R: Mergeable + Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_shards(items, shard_size, |base, shard| {
            let mut report: Option<R> = None;
            for (offset, item) in shard.into_iter().enumerate() {
                let r = f(base + offset, item);
                match report.as_mut() {
                    Some(acc) => acc.merge(r),
                    None => report = Some(r),
                }
            }
            report.expect("shards are non-empty by construction")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 7] {
            let out = SweepRunner::new(workers).run(items.clone(), |i, x| {
                assert_eq!(i, x);
                x * x
            });
            let expect: Vec<usize> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_is_clamped_and_empty_input_is_fine() {
        assert_eq!(SweepRunner::new(0).workers(), 1);
        assert!(SweepRunner::auto().workers() >= 1);
        let out: Vec<u8> = SweepRunner::new(4).run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn run_merged_is_shard_and_worker_invariant() {
        let items: Vec<u32> = (0..97).collect();
        let reference: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 5, 16] {
            for shard_size in [1, 7, 32, 1000] {
                let merged = SweepRunner::new(workers)
                    .run_merged(items.clone(), shard_size, |i, x| {
                        assert_eq!(i as u32, x);
                        vec![x * 3]
                    })
                    .expect("non-zero shard size")
                    .expect("non-empty input");
                assert_eq!(merged, reference, "workers={workers} shard={shard_size}");
            }
        }
    }

    #[test]
    fn shards_are_contiguous_with_correct_bases() {
        let shards = chunk_shards((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(
            shards,
            vec![
                (0, vec![0, 1, 2, 3]),
                (4, vec![4, 5, 6, 7]),
                (8, vec![8, 9]),
            ]
        );
    }

    #[test]
    fn run_shards_is_worker_and_shard_invariant() {
        let items: Vec<u32> = (0..97).collect();
        let reference: Vec<u32> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 5, 16] {
            for shard_size in [1, 7, 32, 257] {
                let merged = SweepRunner::new(workers)
                    .run_shards(items.clone(), shard_size, |base, shard| {
                        assert!(shard.len() <= shard_size);
                        shard
                            .into_iter()
                            .enumerate()
                            .map(|(offset, x)| {
                                assert_eq!((base + offset) as u32, x);
                                x * 3
                            })
                            .collect::<Vec<_>>()
                    })
                    .expect("non-zero shard size")
                    .expect("non-empty input");
                assert_eq!(merged, reference, "workers={workers} shard={shard_size}");
            }
        }
    }

    #[test]
    fn run_merged_empty_input_is_none() {
        let out: Option<Vec<u8>> = SweepRunner::new(4)
            .run_merged(Vec::<u8>::new(), 8, |_, x| vec![x])
            .expect("non-zero shard size");
        assert!(out.is_none());
        let out: Option<Vec<u8>> = SweepRunner::new(4)
            .run_shards(Vec::<u8>::new(), 8, |_, shard| shard)
            .expect("non-zero shard size");
        assert!(out.is_none());
    }

    /// Regression: a zero shard size used to be silently clamped to 1,
    /// degenerating the requested grouping without telling the caller.
    /// It is now a typed error, raised even for empty input.
    #[test]
    fn run_merged_zero_shard_size_is_a_typed_error() {
        let err = SweepRunner::new(4)
            .run_merged((0..10).collect::<Vec<u32>>(), 0, |_, x| vec![x])
            .unwrap_err();
        assert_eq!(
            err,
            Error::InvalidParameter {
                name: "shard_size",
                value: 0.0
            }
        );
        let err = SweepRunner::new(1)
            .run_merged(Vec::<u32>::new(), 0, |_, x| vec![x])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidParameter {
                name: "shard_size",
                ..
            }
        ));
        let err = SweepRunner::new(2)
            .run_shards((0..10).collect::<Vec<u32>>(), 0, |_, shard| shard)
            .unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidParameter {
                name: "shard_size",
                ..
            }
        ));
    }

    #[test]
    fn uneven_job_costs_still_collect_in_order() {
        let items: Vec<u64> = (0..32).collect();
        let out = SweepRunner::new(4).run(items, |_, x| {
            // Make early jobs the slow ones to stress out-of-order finish.
            let spin = (32 - x) * 10_000;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc & 1)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }
}
