//! Harvest and tracking-accuracy metrics.

use eh_sim::SweepRunner;
use eh_units::{Error, Joules, Lux, Ratio, Seconds, Volts};

use crate::system::{FocvMpptSystem, SystemConfig};

/// One row of a Table I style tracking-accuracy report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingAccuracyRow {
    /// Test illuminance.
    pub illuminance: Lux,
    /// True open-circuit voltage of the module.
    pub open_circuit_voltage: Volts,
    /// The HELD_SAMPLE line value.
    pub held_sample: Volts,
    /// The implied FOCV factor `k = HELD/(α·Voc)`.
    pub k: Ratio,
}

/// Runs the Table I procedure: the complete system at each intensity
/// (averaged over `repeats` independent runs, as the paper repeats each
/// test three times) with a fully charged rail, reporting `Voc`,
/// `HELD_SAMPLE` and the implied `k`.
///
/// Intensities are simulated on a machine-sized [`SweepRunner`]; the
/// runner collects rows in input order, so the table is identical on any
/// worker count.
///
/// # Errors
///
/// Propagates system construction/run errors; rejects `repeats == 0`.
pub fn tracking_accuracy_table(
    base: &SystemConfig,
    intensities: &[Lux],
    repeats: usize,
) -> Result<Vec<TrackingAccuracyRow>, Error> {
    if repeats == 0 {
        return Err(Error::InvalidParameter {
            name: "repeats",
            value: 0.0,
        });
    }
    let results = SweepRunner::auto().run(intensities.to_vec(), |_, lux| {
        let mut voc_sum = 0.0;
        let mut held_sum = 0.0;
        let mut k_sum = 0.0;
        for _ in 0..repeats {
            let mut cfg = base.clone();
            cfg.cold_start.set_rail_voltage(Volts::new(3.3));
            let mut sys = FocvMpptSystem::new(cfg)?;
            let report = sys.run_constant(lux, Seconds::new(150.0), Seconds::new(0.02))?;
            voc_sum += report.final_voc.value();
            held_sum += report.final_held_sample.value();
            k_sum += report.measured_k.value();
        }
        let n = repeats as f64;
        Ok(TrackingAccuracyRow {
            illuminance: lux,
            open_circuit_voltage: Volts::new(voc_sum / n),
            held_sample: Volts::new(held_sum / n),
            k: Ratio::new(k_sum / n),
        })
    });
    results.into_iter().collect()
}

/// Summary of a tracker's day-scale harvest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestSummary {
    /// Energy delivered to storage before overhead.
    pub gross_energy: Joules,
    /// Energy the tracker itself consumed.
    pub overhead_energy: Joules,
    /// `gross − overhead` (may be negative: the tracker cost more than
    /// it gained — the indoor failure mode of outdoor MPPT circuits).
    pub net_energy: Joules,
    /// The oracle tracker's gross energy on the same run.
    pub oracle_energy: Joules,
}

impl HarvestSummary {
    /// Builds a summary, deriving the net energy.
    pub fn new(gross: Joules, overhead: Joules, oracle: Joules) -> Self {
        Self {
            gross_energy: gross,
            overhead_energy: overhead,
            net_energy: Joules::new(gross.value() - overhead.value()),
            oracle_energy: oracle,
        }
    }

    /// Net harvest normalised by the oracle's gross harvest. Clamped
    /// below at −10 (deeply net-negative trackers) for stable reporting.
    pub fn efficiency_vs_oracle(&self) -> Ratio {
        if self.oracle_energy.value() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new((self.net_energy.value() / self.oracle_energy.value()).max(-10.0))
    }

    /// Whether the tracker was a net gain at all.
    pub fn is_net_positive(&self) -> bool {
        self.net_energy.value() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_arithmetic() {
        let s = HarvestSummary::new(Joules::new(10.0), Joules::new(2.0), Joules::new(12.0));
        assert_eq!(s.net_energy, Joules::new(8.0));
        assert!((s.efficiency_vs_oracle().value() - 8.0 / 12.0).abs() < 1e-12);
        assert!(s.is_net_positive());
    }

    #[test]
    fn net_negative_tracker() {
        // 2 mW of MPPT electronics indoors out-eats a 100 µW harvest.
        let s = HarvestSummary::new(Joules::new(0.5), Joules::new(3.0), Joules::new(0.6));
        assert!(!s.is_net_positive());
        assert!(s.efficiency_vs_oracle().value() < 0.0);
    }

    #[test]
    fn zero_oracle_guard() {
        let s = HarvestSummary::new(Joules::ZERO, Joules::ZERO, Joules::ZERO);
        assert_eq!(s.efficiency_vs_oracle(), Ratio::ZERO);
    }

    #[test]
    fn clamp_on_pathological_ratio() {
        let s = HarvestSummary::new(Joules::ZERO, Joules::new(1e6), Joules::new(1e-9));
        assert!(s.efficiency_vs_oracle().value() >= -10.0);
    }

    #[test]
    fn tracking_table_produces_table1_band() {
        let base = SystemConfig::paper_prototype().unwrap();
        let rows = tracking_accuracy_table(&base, &[Lux::new(200.0), Lux::new(1000.0)], 1).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let k = row.k.as_percent();
            assert!((58.5..61.0).contains(&k), "k = {k}");
            assert!(row.held_sample < row.open_circuit_voltage);
        }
        assert!(rows[1].open_circuit_voltage > rows[0].open_circuit_voltage);
    }

    #[test]
    fn tracking_table_rejects_zero_repeats() {
        let base = SystemConfig::paper_prototype().unwrap();
        assert!(tracking_accuracy_table(&base, &[Lux::new(200.0)], 0).is_err());
    }
}
