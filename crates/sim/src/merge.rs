//! Order-independent report merging for sharded sweeps.
//!
//! Fleet-scale runs produce one report per node and fold them into a
//! single aggregate. For the aggregate to be bit-identical at any worker
//! count, the fold must not depend on completion order: workers reduce
//! their own shards locally, and the shard results are folded in shard
//! index order afterwards (see [`crate::SweepRunner::run_merged`]).

/// A report that can absorb another report of the same type.
///
/// Implementations should be associative in the sense that folding a
/// fixed sequence left-to-right gives one well-defined result; the
/// runner guarantees it always folds in input order, so a lawful `merge`
/// makes the aggregate independent of how the work was sharded across
/// workers.
pub trait Mergeable {
    /// Absorbs `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Errors short-circuit: the first error in input order wins, and later
/// successes are discarded — exactly what a sequential fold over
/// `Result`s would produce.
impl<R: Mergeable, E> Mergeable for Result<R, E> {
    fn merge(&mut self, other: Self) {
        match (self.is_ok(), other) {
            (true, Ok(o)) => {
                if let Ok(r) = self.as_mut() {
                    r.merge(o);
                }
            }
            (true, Err(e)) => *self = Err(e),
            // Already an error: keep the earliest one.
            (false, _) => {}
        }
    }
}

impl<T> Mergeable for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Metric stores merge by absorbing the later shard: counters, spans
/// and the energy ledger add; gauges take the later shard's value.
/// Because a store only ever holds simulated quantities, folding shard
/// stores in shard-index order yields the same aggregate at any worker
/// count.
impl Mergeable for eh_obs::Metrics {
    fn merge(&mut self, other: Self) {
        self.merge_from(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_merge_appends() {
        let mut a = vec![1, 2];
        a.merge(vec![3]);
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    fn result_merge_keeps_first_error() {
        let mut a: Result<Vec<u8>, &str> = Ok(vec![1]);
        a.merge(Ok(vec![2]));
        assert_eq!(a, Ok(vec![1, 2]));
        a.merge(Err("first"));
        a.merge(Ok(vec![3]));
        a.merge(Err("second"));
        assert_eq!(a, Err("first"));
    }
}
