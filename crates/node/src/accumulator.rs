//! The node stepper's energy ledger.

use eh_units::Joules;

/// Running energy totals the node stepper accrues while being driven;
/// a [`crate::NodeReport`] is a snapshot of one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Accumulator {
    /// Energy delivered by the harvester into storage.
    pub gross_energy: Joules,
    /// Energy burned by the tracker's own electronics.
    pub overhead_energy: Joules,
    /// Energy the load asked for.
    pub load_demand: Joules,
    /// Energy the load actually received.
    pub load_served: Joules,
    /// Energy dissipated in the conversion path (converter losses).
    pub loss_energy: Joules,
    /// Energy burned executing the tracker's control law (digital
    /// trackers only; zero for analog implementations).
    pub compute_energy: Joules,
    /// Number of open-circuit / short-circuit measurements taken.
    pub measurements: u64,
    /// Number of control decisions taken (tracker `step` calls).
    pub decisions: u64,
}

impl Accumulator {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Credits harvested energy.
    #[inline]
    pub fn add_harvest(&mut self, e: Joules) {
        self.gross_energy += e;
    }

    /// Debits tracker overhead.
    #[inline]
    pub fn add_overhead(&mut self, e: Joules) {
        self.overhead_energy += e;
    }

    /// Records a load request and how much of it was served.
    #[inline]
    pub fn add_load(&mut self, demand: Joules, served: Joules) {
        self.load_demand += demand;
        self.load_served += served;
    }

    /// Debits energy dissipated in the conversion path.
    #[inline]
    pub fn add_loss(&mut self, e: Joules) {
        self.loss_energy += e;
    }

    /// Counts one measurement interruption (Voc or Isc).
    #[inline]
    pub fn count_measurement(&mut self) {
        self.measurements += 1;
    }

    /// Debits control-law compute energy.
    #[inline]
    pub fn add_compute(&mut self, e: Joules) {
        self.compute_energy += e;
    }

    /// Counts one control decision.
    #[inline]
    pub fn count_decision(&mut self) {
        self.decisions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledgers_accumulate_independently() {
        let mut a = Accumulator::new();
        a.add_harvest(Joules::new(3.0));
        a.add_overhead(Joules::new(0.5));
        a.add_load(Joules::new(2.0), Joules::new(1.0));
        a.add_loss(Joules::new(0.25));
        a.add_compute(Joules::new(0.125));
        a.count_measurement();
        a.count_measurement();
        a.count_decision();
        assert_eq!(a.loss_energy, Joules::new(0.25));
        assert_eq!(a.compute_energy, Joules::new(0.125));
        assert_eq!(a.measurements, 2);
        assert_eq!(a.decisions, 1);
    }
}
