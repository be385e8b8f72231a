//! The in-memory metric store.

use std::collections::BTreeMap;

use eh_units::{Joules, Seconds};

use crate::ledger::{EnergyBucket, EnergyLedger};

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// How many spans finished under this name.
    pub count: u64,
    sim_time: f64,
    energy: f64,
}

impl SpanStats {
    /// Total simulated time attributed to this span name.
    pub fn sim_time(&self) -> Seconds {
        Seconds::new(self.sim_time)
    }

    /// Total simulated energy attributed to this span name.
    pub fn energy(&self) -> Joules {
        Joules::new(self.energy)
    }
}

/// The deterministic metric store: counters, gauges, span stats and
/// the run's [`EnergyLedger`], all keyed by `&'static str` in ordered
/// maps.
///
/// A `Metrics` only ever holds **simulated** quantities, so two runs of
/// the same scenario produce equal stores regardless of worker count —
/// which is why it can ride inside reports that are compared
/// bit-for-bit, and why merging shard-level stores in shard index order
/// (via `eh_sim::Mergeable`) is deterministic too.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    spans: BTreeMap<&'static str, SpanStats>,
    ledger: EnergyLedger,
}

impl Metrics {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The aggregated stats of a span name, if any span finished.
    pub fn span_stats(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// The run's energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates span stats in name order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &SpanStats)> + '_ {
        self.spans.iter().map(|(k, v)| (*k, v))
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.ledger.is_empty()
    }

    /// Absorbs another store: counters, spans and the ledger add; gauges
    /// take the other store's value (last write wins, and in a merge
    /// fold the "other" is always the later shard).
    pub fn merge_from(&mut self, other: Metrics) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in other.gauges {
            self.gauges.insert(name, v);
        }
        for (name, s) in other.spans {
            let mine = self.spans.entry(name).or_default();
            mine.count += s.count;
            mine.sim_time += s.sim_time;
            mine.energy += s.energy;
        }
        self.ledger.absorb(&other.ledger);
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins; non-finite
    /// values are discarded).
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.gauges.insert(name, value);
        }
    }

    /// Adds energy to one bucket of the run's [`EnergyLedger`].
    pub fn charge(&mut self, bucket: EnergyBucket, energy: Joules) {
        self.ledger.charge(bucket, energy);
    }

    /// Folds `count` completions of span `name` totalling `sim_time`
    /// simulated seconds and `energy` joules into the per-name
    /// [`SpanStats`]. Hot loops accumulate in locals and call this once
    /// (e.g. once per simulated node); a one-off scope calls it with a
    /// count of 1. Non-finite totals add nothing. A zero `count`
    /// records nothing, not even the name: presence of a span name is
    /// part of store equality.
    pub fn record_span_stats(
        &mut self,
        name: &'static str,
        count: u64,
        sim_time: f64,
        energy: f64,
    ) {
        if count == 0 {
            return;
        }
        let stats = self.spans.entry(name).or_default();
        stats.count += count;
        if sim_time.is_finite() {
            stats.sim_time += sim_time;
        }
        if energy.is_finite() {
            stats.energy += energy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        let mut m = Metrics::new();
        m.add_counter("steps", 3);
        m.set_gauge("rail_v", 3.3);
        m.record_span_stats("pulse", 1, Seconds::from_milli(39.0).value(), 1e-6);
        m.charge(EnergyBucket::Astable, Joules::new(0.5));
        m
    }

    #[test]
    fn records_and_reads_back() {
        let m = sample();
        assert!(!m.is_empty());
        assert_eq!(m.counter("steps"), 3);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("rail_v"), Some(3.3));
        let s = m.span_stats("pulse").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.sim_time(), Seconds::from_milli(39.0));
        assert_eq!(m.ledger().total(), Joules::new(0.5));
    }

    #[test]
    fn non_finite_gauge_discarded() {
        let mut m = Metrics::new();
        m.set_gauge("g", f64::NAN);
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.0);
        m.set_gauge("g", f64::INFINITY);
        assert_eq!(m.gauge("g"), Some(1.0), "bad write must not clobber");
    }

    #[test]
    fn merge_adds_counters_spans_and_ledger() {
        let mut a = sample();
        let mut b = sample();
        b.set_gauge("rail_v", 2.2);
        a.merge_from(b);
        assert_eq!(a.counter("steps"), 6);
        assert_eq!(a.gauge("rail_v"), Some(2.2), "gauge: last shard wins");
        assert_eq!(a.span_stats("pulse").unwrap().count, 2);
        assert_eq!(a.ledger().total(), Joules::new(1.0));
    }

    #[test]
    fn merge_into_empty_equals_the_source() {
        let mut a = Metrics::new();
        a.merge_from(sample());
        assert_eq!(a, sample());
    }

    #[test]
    fn zero_count_span_stats_create_no_entry() {
        let mut m = Metrics::new();
        m.record_span_stats("never", 0, 0.0, 0.0);
        assert!(m.span_stats("never").is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn non_finite_span_totals_add_nothing() {
        let mut m = Metrics::new();
        m.record_span_stats("pulse", 1, 0.039, 1e-6);
        m.record_span_stats("pulse", 2, f64::NAN, f64::INFINITY);
        let s = m.span_stats("pulse").unwrap();
        assert_eq!(s.count, 3, "the completions still count");
        assert_eq!(s.sim_time(), Seconds::new(0.039));
        assert_eq!(s.energy(), Joules::new(1e-6));
    }
}
