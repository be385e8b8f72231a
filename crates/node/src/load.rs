//! Duty-cycled node loads.

use eh_units::{Joules, Seconds, Watts};

use crate::error::NodeError;

/// One phase of a node's duty cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPhase {
    /// Phase name (for reports).
    pub name: String,
    /// Power drawn during the phase.
    pub power: Watts,
    /// Phase duration.
    pub duration: Seconds,
}

impl LoadPhase {
    /// Creates a phase.
    ///
    /// # Errors
    ///
    /// Rejects negative power or non-positive duration.
    pub fn new(
        name: impl Into<String>,
        power: Watts,
        duration: Seconds,
    ) -> Result<Self, NodeError> {
        if !(power.value().is_finite() && power.value() >= 0.0) {
            return Err(NodeError::InvalidParameter {
                name: "power",
                value: power.value(),
            });
        }
        if !(duration.value().is_finite() && duration.value() > 0.0) {
            return Err(NodeError::InvalidParameter {
                name: "duration",
                value: duration.value(),
            });
        }
        Ok(Self {
            name: name.into(),
            power,
            duration,
        })
    }
}

/// A cyclic load: the node repeats its phase sequence forever
/// (sleep → sense → transmit → sleep → ...).
///
/// ```
/// use eh_node::DutyCycledLoad;
/// use eh_units::{Seconds, Watts};
///
/// let load = DutyCycledLoad::typical_sensor_node()?;
/// // Average power is micro-watt scale — harvestable indoors.
/// assert!(load.average_power().as_micro() < 100.0);
/// # Ok::<(), eh_node::NodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DutyCycledLoad {
    phases: Vec<LoadPhase>,
    period: Seconds,
    average: Watts,
    /// Energy of one whole cycle, in joules.
    cycle_energy: f64,
    /// Phase start offsets plus the period, ascending: `len = phases+1`.
    bounds: Vec<f64>,
    /// Cumulative energy at each bound: `cum[i] = F(bounds[i])`.
    cum: Vec<f64>,
}

impl DutyCycledLoad {
    /// Creates a load from a non-empty phase sequence.
    ///
    /// # Errors
    ///
    /// Rejects an empty sequence.
    pub fn new(phases: Vec<LoadPhase>) -> Result<Self, NodeError> {
        if phases.is_empty() {
            return Err(NodeError::InvalidParameter {
                name: "phases",
                value: 0.0,
            });
        }
        // The phase bounds and the cumulative energy at each: the prefix
        // sums behind `energy_over`, and the period and cycle energy.
        let mut bounds = vec![0.0];
        let mut cum = vec![0.0];
        let (mut b, mut e) = (0.0, 0.0);
        for p in &phases {
            b += p.duration.value();
            e += p.power.value() * p.duration.value();
            bounds.push(b);
            cum.push(e);
        }
        Ok(Self {
            phases,
            period: Seconds::new(b),
            average: Watts::new(e / b),
            cycle_energy: e,
            bounds,
            cum,
        })
    }

    /// A typical low-duty sensor node: 5 µW sleep for 30 s, 3 mW sensing
    /// for 50 ms, 60 mW radio burst for 5 ms.
    ///
    /// # Errors
    ///
    /// Never fails for these constants.
    pub fn typical_sensor_node() -> Result<Self, NodeError> {
        Self::new(vec![
            LoadPhase::new("sleep", Watts::from_micro(5.0), Seconds::new(30.0))?,
            LoadPhase::new("sense", Watts::from_milli(3.0), Seconds::from_milli(50.0))?,
            LoadPhase::new(
                "transmit",
                Watts::from_milli(60.0),
                Seconds::from_milli(5.0),
            )?,
        ])
    }

    /// A duty-cycled radio node: like [`typical_sensor_node`] but with a
    /// periodic listen window — 4 µW sleep for 60 s, 3 mW sense for
    /// 50 ms, 60 mW transmit for 8 ms, then a 15 mW receive window for
    /// 120 ms (beacon listen / ack). Still micro-watt-class on average,
    /// but with a deeper per-cycle energy bite than the paper's node.
    ///
    /// [`typical_sensor_node`]: Self::typical_sensor_node
    ///
    /// # Errors
    ///
    /// Never fails for these constants.
    pub fn duty_cycled_radio() -> Result<Self, NodeError> {
        Self::new(vec![
            LoadPhase::new("sleep", Watts::from_micro(4.0), Seconds::new(60.0))?,
            LoadPhase::new("sense", Watts::from_milli(3.0), Seconds::from_milli(50.0))?,
            LoadPhase::new(
                "transmit",
                Watts::from_milli(60.0),
                Seconds::from_milli(8.0),
            )?,
            LoadPhase::new(
                "receive",
                Watts::from_milli(15.0),
                Seconds::from_milli(120.0),
            )?,
        ])
    }

    /// An intermittent-motor load (PV water-pumping actuator class): a
    /// long 6 µW standby, then a 250 mW motor burst for 2 s every
    /// 10 minutes — milli-watt-class average demand, the heaviest load
    /// profile in the zoo and far beyond what a 0.22 F hold cap can ride
    /// through without a healthy store.
    ///
    /// # Errors
    ///
    /// Never fails for these constants.
    pub fn intermittent_motor() -> Result<Self, NodeError> {
        Self::new(vec![
            LoadPhase::new("standby", Watts::from_micro(6.0), Seconds::new(598.0))?,
            LoadPhase::new("motor", Watts::from_milli(250.0), Seconds::new(2.0))?,
        ])
    }

    /// The full cycle period.
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// The phases.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// Instantaneous power at absolute time `t` (cycle-folded).
    #[inline]
    pub fn power_at(&self, t: Seconds) -> Watts {
        let mut rem = t.value().rem_euclid(self.period.value());
        for p in &self.phases {
            if rem < p.duration.value() {
                return p.power;
            }
            rem -= p.duration.value();
        }
        self.phases.last().map(|p| p.power).unwrap_or(Watts::ZERO)
    }

    /// Time-averaged power over a full cycle (precomputed at
    /// construction).
    #[inline]
    pub fn average_power(&self) -> Watts {
        self.average
    }

    /// Energy demanded over the interval `[t, t+dt)` at absolute time
    /// `t` (exact phase-folded integration, walking the phases segment by
    /// segment): the reference [`energy_over`](Self::energy_over) is
    /// tested against.
    #[inline]
    pub fn energy_demand(&self, t: Seconds, dt: Seconds) -> Joules {
        if dt.value() <= 0.0 {
            return Joules::ZERO;
        }
        // Whole cycles plus a partial walk.
        let cycles = (dt.value() / self.period.value()).floor();
        let mut energy = cycles * self.average_power().value() * self.period.value();
        let mut rem = dt.value() - cycles * self.period.value();
        let mut pos = t.value().rem_euclid(self.period.value());
        while rem > 1e-15 {
            // Find the phase containing `pos`.
            let mut acc = 0.0;
            let mut advanced = false;
            for p in &self.phases {
                if pos < acc + p.duration.value() {
                    let span = (acc + p.duration.value() - pos).min(rem);
                    energy += p.power.value() * span;
                    pos = (pos + span) % self.period.value();
                    rem -= span;
                    advanced = true;
                    break;
                }
                acc += p.duration.value();
            }
            if !advanced {
                pos = 0.0;
            }
        }
        Joules::new(energy)
    }

    /// Cumulative energy from the cycle start to intra-period position
    /// `x` (clamped linear extrapolation beyond the last bound absorbs
    /// ulp-scale overshoot of a wrapped position).
    #[inline]
    fn cumulative(&self, x: f64) -> f64 {
        // Loads have a handful of phases; a linear scan beats a binary
        // search and stays branch-predictable (early phases are long).
        let n = self.phases.len();
        let mut i = n - 1;
        for k in 0..n - 1 {
            if x < self.bounds[k + 1] {
                i = k;
                break;
            }
        }
        self.cum[i] + self.phases[i].power.value() * (x - self.bounds[i])
    }

    /// Energy demanded over `[*pos, *pos + dt)`, advancing `pos` (an
    /// intra-period position in `[0, period)`, starting at `0.0` at the
    /// start of a run) by `dt` modulo the period: the node simulation's
    /// per-step load draw.
    ///
    /// Whole cycles contribute `average · period` as in
    /// [`energy_demand`](Self::energy_demand); the partial cycle is a
    /// difference of prefix sums, `F(pos + rem) − F(pos)`, instead of a
    /// walk over the phase segments. It differs from `energy_demand` at
    /// the same instant only by the cancellation of that difference, on
    /// the order of `ε·E_cycle` per step (property-tested per step and
    /// over a two-year walk in `tests/properties.rs`).
    #[inline(always)]
    pub fn energy_over(&self, pos: &mut f64, dt: Seconds) -> Joules {
        if dt.value() <= 0.0 {
            return Joules::ZERO;
        }
        let period = self.period.value();
        // The floor of a non-negative quotient, by integer truncation
        // (no libm call on baseline x86-64); from 2^53 up every double is
        // an integer already.
        let q = dt.value() / period;
        let cycles = if q < 9_007_199_254_740_992.0 {
            q as i64 as f64
        } else {
            q
        };
        let mut energy = cycles * self.average.value() * period;
        let rem = dt.value() - cycles * period;
        let p = *pos;
        let end = p + rem;
        if end < period {
            energy += self.cumulative(end) - self.cumulative(p);
            *pos = end;
        } else {
            let wrapped = end - period;
            energy += (self.cycle_energy - self.cumulative(p)) + self.cumulative(wrapped);
            *pos = wrapped;
        }
        Joules::new(energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load() -> DutyCycledLoad {
        DutyCycledLoad::typical_sensor_node().unwrap()
    }

    #[test]
    fn validation() {
        assert!(DutyCycledLoad::new(vec![]).is_err());
        assert!(LoadPhase::new("x", Watts::new(-1.0), Seconds::new(1.0)).is_err());
        assert!(LoadPhase::new("x", Watts::new(1.0), Seconds::ZERO).is_err());
    }

    #[test]
    fn period_is_sum_of_phases() {
        let l = load();
        assert!((l.period().value() - 30.055).abs() < 1e-9);
        assert_eq!(l.phases().len(), 3);
    }

    #[test]
    fn power_at_phase_boundaries() {
        let l = load();
        assert_eq!(l.power_at(Seconds::new(1.0)), Watts::from_micro(5.0));
        assert_eq!(l.power_at(Seconds::new(30.01)), Watts::from_milli(3.0));
        assert_eq!(l.power_at(Seconds::new(30.052)), Watts::from_milli(60.0));
        // Next cycle folds back to sleep.
        assert_eq!(l.power_at(Seconds::new(30.06)), Watts::from_micro(5.0));
    }

    #[test]
    fn average_power() {
        let l = load();
        let expect = (5e-6 * 30.0 + 3e-3 * 0.05 + 60e-3 * 0.005) / 30.055;
        assert!((l.average_power().value() - expect).abs() < 1e-12);
    }

    #[test]
    fn energy_demand_full_cycles() {
        let l = load();
        let one_cycle = l.energy_demand(Seconds::ZERO, l.period());
        let expect = l.average_power().value() * l.period().value();
        assert!((one_cycle.value() - expect).abs() < 1e-9);
        let ten = l.energy_demand(Seconds::ZERO, l.period() * 10.0);
        assert!((ten.value() - 10.0 * expect).abs() < 1e-8);
    }

    #[test]
    fn energy_demand_partial_phase() {
        let l = load();
        // 10 s of sleep only.
        let e = l.energy_demand(Seconds::new(5.0), Seconds::new(10.0));
        assert!((e.value() - 5e-6 * 10.0).abs() < 1e-12);
        // Window crossing sense + tx.
        let e = l.energy_demand(Seconds::new(29.9), Seconds::new(0.2));
        let expect = 5e-6 * 0.1 + 3e-3 * 0.05 + 60e-3 * 0.005 + 5e-6 * 0.045;
        assert!((e.value() - expect).abs() < 1e-9, "e = {}", e.value());
    }

    #[test]
    fn endurance_load_classes() {
        let radio = DutyCycledLoad::duty_cycled_radio().unwrap();
        let motor = DutyCycledLoad::intermittent_motor().unwrap();
        let sensor = load();
        // Radio listens cost more than the bare sensor node but stay
        // micro-watt class; the motor is milli-watt class.
        assert!(radio.average_power().value() > sensor.average_power().value());
        assert!(radio.average_power().as_micro() < 100.0);
        assert!(motor.average_power().as_milli() > 0.5);
        assert!((motor.period().value() - 600.0).abs() < 1e-9);
        // Exact phase-folded integration still holds for the new shapes.
        let e = motor.energy_demand(Seconds::ZERO, motor.period());
        let expect = motor.average_power().value() * motor.period().value();
        assert!((e.value() - expect).abs() < 1e-9);
    }

    #[test]
    fn zero_dt_demand() {
        assert_eq!(
            load().energy_demand(Seconds::new(3.0), Seconds::ZERO),
            Joules::ZERO
        );
    }
}
