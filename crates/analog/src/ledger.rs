//! Supply-current accounting — the simulator's electrometer.
//!
//! §IV-A of the paper measures the astable + sample-and-hold combination
//! at an average of 7.6 µA from a 3.3 V bench supply. The ledger
//! integrates each named consumer's instantaneous current over simulated
//! time so the same average (and its per-component breakdown) can be
//! reported.

use std::collections::BTreeMap;

use eh_units::{Amps, Coulombs, Joules, Seconds, Volts};

/// One consumer's integrated charge.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Consumer name (e.g. `"U1 astable comparator"`).
    pub name: String,
    /// Total charge drawn.
    pub charge: Coulombs,
}

/// Integrates named supply currents over time.
///
/// ```
/// use eh_analog::CurrentLedger;
/// use eh_units::{Amps, Seconds, Volts};
///
/// let mut ledger = CurrentLedger::new();
/// ledger.accumulate("comparator", Amps::from_micro(0.9), Seconds::new(10.0));
/// ledger.accumulate("buffer", Amps::from_micro(1.5), Seconds::new(10.0));
/// let avg = ledger.average_current(Seconds::new(10.0));
/// assert!((avg.as_micro() - 2.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CurrentLedger {
    charges: BTreeMap<String, f64>,
    elapsed: f64,
}

impl CurrentLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `current · dt` of charge to the named consumer.
    ///
    /// Negative currents are allowed (a consumer briefly sourcing charge
    /// back, e.g. charge injection), but negative `dt` is ignored.
    pub fn accumulate(&mut self, name: &str, current: Amps, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        *self.charges.entry(name.to_owned()).or_insert(0.0) += current.value() * dt.value();
    }

    /// Advances the ledger's notion of elapsed time (used by
    /// [`CurrentLedger::average_current_elapsed`]).
    pub fn advance(&mut self, dt: Seconds) {
        if dt.value() > 0.0 {
            self.elapsed += dt.value();
        }
    }

    /// Total elapsed time recorded via [`CurrentLedger::advance`].
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// Total charge drawn by all consumers.
    pub fn total_charge(&self) -> Coulombs {
        Coulombs::new(self.charges.values().sum())
    }

    /// Average current over an externally supplied window.
    pub fn average_current(&self, over: Seconds) -> Amps {
        if over.value() <= 0.0 {
            return Amps::ZERO;
        }
        self.total_charge() / over
    }

    /// Average current over the internally tracked elapsed time.
    pub fn average_current_elapsed(&self) -> Amps {
        self.average_current(self.elapsed())
    }

    /// Energy drawn from a fixed supply rail at voltage `vdd`.
    pub fn energy_from_supply(&self, vdd: Volts) -> Joules {
        self.total_charge() * vdd
    }

    /// Per-consumer breakdown, sorted by descending charge.
    pub fn breakdown(&self) -> Vec<LedgerEntry> {
        let mut entries: Vec<LedgerEntry> = self
            .charges
            .iter()
            .map(|(name, &q)| LedgerEntry {
                name: name.clone(),
                charge: Coulombs::new(q),
            })
            .collect();
        entries.sort_by(|a, b| b.charge.value().total_cmp(&a.charge.value()));
        entries
    }

    /// Removes all recorded charge and elapsed time.
    pub fn reset(&mut self) {
        self.charges.clear();
        self.elapsed = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_average() {
        let mut l = CurrentLedger::new();
        l.accumulate("a", Amps::from_micro(2.0), Seconds::new(5.0));
        l.accumulate("a", Amps::from_micro(2.0), Seconds::new(5.0));
        l.accumulate("b", Amps::from_micro(1.0), Seconds::new(10.0));
        assert!((l.total_charge().as_micro() - 30.0).abs() < 1e-9);
        assert!((l.average_current(Seconds::new(10.0)).as_micro() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn elapsed_tracking() {
        let mut l = CurrentLedger::new();
        l.accumulate("x", Amps::from_micro(7.6), Seconds::new(69.0));
        l.advance(Seconds::new(69.0));
        assert!((l.average_current_elapsed().as_micro() - 7.6).abs() < 1e-9);
        l.advance(Seconds::new(-5.0)); // ignored
        assert_eq!(l.elapsed(), Seconds::new(69.0));
    }

    #[test]
    fn breakdown_sorted_descending() {
        let mut l = CurrentLedger::new();
        l.accumulate("small", Amps::from_micro(1.0), Seconds::new(1.0));
        l.accumulate("large", Amps::from_micro(9.0), Seconds::new(1.0));
        let b = l.breakdown();
        assert_eq!(b[0].name, "large");
        assert_eq!(b[1].name, "small");
    }

    #[test]
    fn energy_from_supply() {
        let mut l = CurrentLedger::new();
        l.accumulate("x", Amps::from_micro(7.6), Seconds::new(3600.0));
        let e = l.energy_from_supply(Volts::new(3.3));
        // 7.6 µA · 3600 s · 3.3 V ≈ 90.3 mJ
        assert!((e.as_milli() - 90.288).abs() < 0.01, "e = {e}");
    }

    #[test]
    fn zero_window_average_is_zero() {
        let mut l = CurrentLedger::new();
        l.accumulate("x", Amps::new(1.0), Seconds::new(1.0));
        assert_eq!(l.average_current(Seconds::ZERO), Amps::ZERO);
    }

    #[test]
    fn negative_dt_ignored_reset_clears() {
        let mut l = CurrentLedger::new();
        l.accumulate("x", Amps::new(1.0), Seconds::new(-1.0));
        assert_eq!(l.total_charge(), Coulombs::ZERO);
        l.accumulate("x", Amps::new(1.0), Seconds::new(1.0));
        l.advance(Seconds::new(1.0));
        l.reset();
        assert_eq!(l.total_charge(), Coulombs::ZERO);
        assert_eq!(l.elapsed(), Seconds::ZERO);
    }
}
