//! Energy stores: supercapacitor, battery and an idealised accumulator.
//!
//! Each store has the same five inherent methods (`deposit`,
//! `withdraw`, `leak`, `stored_energy`, `state_of_charge`), and
//! [`ConcreteStore`]'s closed match is the one dispatch over them.

use eh_units::{Amps, Error, Farads, Joules, Ratio, Seconds, Volts};

/// A supercapacitor store: energy lives in `½CV²` between a minimum
/// usable voltage and a maximum rated voltage, with a constant leakage
/// current (the dominant supercap loss at these scales).
///
/// The state is carried as stored energy `E = ½CV²`, not as terminal
/// voltage, so deposits and withdrawals are adds and clamps with no
/// energy→voltage `sqrt` round trip. Only [`leak`](Self::leak) (a
/// constant current, so linear in voltage) and the
/// [`voltage`](Self::voltage) observation pay a `sqrt`, with `√(2/C)`
/// and `1/C` hoisted to construction. The property tests in
/// `tests/properties.rs` pin this arithmetic within rel 1e-12 of the
/// `½CV²` / `I·t/C` voltage-domain closed forms.
///
/// ```
/// use eh_node::Supercapacitor;
/// use eh_units::{Farads, Joules, Volts};
///
/// let mut sc = Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::new(1.8))?;
/// let absorbed = sc.deposit(Joules::new(0.5));
/// assert!(absorbed.value() > 0.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Supercapacitor {
    capacitance: Farads,
    v_max: Volts,
    v_min: Volts,
    leakage: Amps,
    /// Stored energy `½CV²`, in joules.
    energy: f64,
    /// `½C·v_max²`.
    e_max: f64,
    /// `½C·v_min²`.
    e_floor: f64,
    /// `√(2/C)`, so `V(E) = √(2/C)·√E` costs one `sqrt` and one
    /// multiply.
    sqrt_2_over_c: f64,
    /// `1/C`, hoisting the leak update's division.
    inv_c: f64,
}

impl Supercapacitor {
    /// Creates a supercapacitor, initially at its minimum usable voltage.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacitance or `v_min` not in `(0, v_max)`.
    pub fn new(capacitance: Farads, v_max: Volts, v_min: Volts) -> Result<Self, Error> {
        if !(capacitance.value().is_finite() && capacitance.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "capacitance",
                value: capacitance.value(),
            });
        }
        if !(v_min.value() > 0.0 && v_max > v_min) {
            return Err(Error::InvalidParameter {
                name: "voltage_window",
                value: v_min.value(),
            });
        }
        let c = capacitance.value();
        let e_floor = Self::energy_at(c, v_min);
        Ok(Self {
            capacitance,
            v_max,
            v_min,
            leakage: Amps::from_micro(2.0),
            energy: e_floor,
            e_max: Self::energy_at(c, v_max),
            e_floor,
            sqrt_2_over_c: (2.0 / c).sqrt(),
            inv_c: 1.0 / c,
        })
    }

    /// Overrides the leakage current (default 2 µA).
    #[must_use]
    pub fn with_leakage(mut self, leakage: Amps) -> Self {
        self.leakage = leakage.max(Amps::ZERO);
        self
    }

    /// Starts the capacitor at a given terminal voltage (clamped into the
    /// usable window) — e.g. a node deployed with a charged store.
    #[must_use]
    pub fn with_initial_voltage(mut self, v: Volts) -> Self {
        let v = v.clamp(self.v_min, self.v_max);
        self.energy = Self::energy_at(self.capacitance.value(), v);
        self
    }

    /// The terminal voltage.
    pub fn voltage(&self) -> Volts {
        Volts::new(self.sqrt_2_over_c * self.energy.max(0.0).sqrt())
    }

    /// The capacitance.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// The maximum rated voltage.
    pub fn v_max(&self) -> Volts {
        self.v_max
    }

    /// The minimum usable voltage.
    pub fn v_min(&self) -> Volts {
        self.v_min
    }

    /// The leakage current.
    pub fn leakage(&self) -> Amps {
        self.leakage
    }

    /// Usable capacity: `½C(v_max² − v_min²)`.
    pub fn usable_capacity(&self) -> Joules {
        Joules::new(self.e_max - self.e_floor)
    }

    #[inline]
    fn energy_at(c: f64, v: Volts) -> f64 {
        0.5 * c * v.value().powi(2)
    }

    /// Deposits energy; returns the amount actually absorbed (a full
    /// store absorbs less).
    #[inline]
    pub fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let absorbed = energy.value().min(self.e_max - self.energy);
        self.energy += absorbed;
        Joules::new(absorbed)
    }

    /// Withdraws up to `energy`, never below `v_min`; returns the
    /// amount actually supplied.
    #[inline]
    pub fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let supplied = energy.value().min((self.energy - self.e_floor).max(0.0));
        self.energy -= supplied;
        Joules::new(supplied)
    }

    /// Drains the leakage current over `dt`.
    #[inline]
    pub fn leak(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        // A constant leakage current is linear in voltage: step the
        // voltage down by `I·t/C` and square back into energy.
        let v = self.sqrt_2_over_c * self.energy.max(0.0).sqrt();
        let dv = self.leakage.value() * dt.value() * self.inv_c;
        let after = (v - dv).max(0.0);
        self.energy = 0.5 * self.capacitance.value() * after * after;
    }

    /// Usable energy currently stored, above `v_min`.
    #[inline]
    pub fn stored_energy(&self) -> Joules {
        Joules::new((self.energy - self.e_floor).max(0.0))
    }

    /// Fill level of the usable window, in `[0, 1]`.
    pub fn state_of_charge(&self) -> Ratio {
        let usable = self.usable_capacity().value();
        if usable <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new((self.stored_energy().value() / usable).clamp(0.0, 1.0))
    }
}

/// A small rechargeable battery (LIR-coin-cell / thin-film class):
/// fixed usable capacity, coulombic charge inefficiency and a slow
/// relative self-discharge.
///
/// ```
/// use eh_node::Battery;
/// use eh_units::Joules;
///
/// let mut b = Battery::new(Joules::new(100.0), 0.9, 0.05)?;
/// let absorbed = b.deposit(Joules::new(10.0));
/// assert!((absorbed.value() - 9.0).abs() < 1e-12); // 90 % coulombic
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity: Joules,
    charge_efficiency: f64,
    /// Fraction of the stored energy lost per month to self-discharge.
    self_discharge_per_month: f64,
    level: f64,
}

impl Battery {
    /// Creates an empty battery.
    ///
    /// # Errors
    ///
    /// Rejects non-positive capacity, charge efficiency outside `(0, 1]`
    /// or self-discharge outside `[0, 1)`.
    pub fn new(
        capacity: Joules,
        charge_efficiency: f64,
        self_discharge_per_month: f64,
    ) -> Result<Self, Error> {
        if !(capacity.value().is_finite() && capacity.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "capacity",
                value: capacity.value(),
            });
        }
        if !(charge_efficiency > 0.0 && charge_efficiency <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "charge_efficiency",
                value: charge_efficiency,
            });
        }
        if !(0.0..1.0).contains(&self_discharge_per_month) {
            return Err(Error::InvalidParameter {
                name: "self_discharge_per_month",
                value: self_discharge_per_month,
            });
        }
        Ok(Self {
            capacity,
            charge_efficiency,
            self_discharge_per_month,
            level: 0.0,
        })
    }

    /// Starts the battery at a given state of charge in `[0, 1]`.
    #[must_use]
    pub fn with_state_of_charge(mut self, soc: f64) -> Self {
        self.level = self.capacity.value() * soc.clamp(0.0, 1.0);
        self
    }

    /// The rated capacity.
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Deposits energy less the coulombic loss; returns the amount
    /// actually absorbed (a full battery absorbs less).
    #[inline]
    pub fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let absorbed =
            (energy.value() * self.charge_efficiency).min(self.capacity.value() - self.level);
        self.level += absorbed;
        Joules::new(absorbed)
    }

    /// Withdraws up to `energy`; returns the amount actually supplied.
    #[inline]
    pub fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let supplied = energy.value().min(self.level);
        self.level -= supplied;
        Joules::new(supplied)
    }

    /// Applies the monthly self-discharge, compounded over `dt`.
    #[inline]
    pub fn leak(&mut self, dt: Seconds) {
        if dt.value() <= 0.0 || self.self_discharge_per_month <= 0.0 {
            return;
        }
        const MONTH: f64 = 30.0 * 86_400.0;
        let keep = (1.0 - self.self_discharge_per_month).powf(dt.value() / MONTH);
        self.level *= keep;
    }

    /// Energy currently stored.
    pub fn stored_energy(&self) -> Joules {
        Joules::new(self.level)
    }

    /// Fill level of the capacity, in `[0, 1]`.
    pub fn state_of_charge(&self) -> Ratio {
        Ratio::new((self.level / self.capacity.value()).clamp(0.0, 1.0))
    }
}

/// An idealised store: infinite capacity, no leakage, never empty-limited
/// below zero. Used for pure tracker comparisons where storage artefacts
/// would muddy the metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdealStore {
    energy: f64,
}

impl IdealStore {
    /// Creates an empty ideal store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposits `energy` in full; returns it (zero for a non-positive
    /// amount).
    #[inline]
    pub fn deposit(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        self.energy += energy.value();
        energy
    }

    /// Withdraws up to `energy`; returns the amount actually supplied.
    #[inline]
    pub fn withdraw(&mut self, energy: Joules) -> Joules {
        if energy.value() <= 0.0 {
            return Joules::ZERO;
        }
        let supplied = energy.value().min(self.energy.max(0.0));
        self.energy -= supplied;
        Joules::new(supplied)
    }

    /// Does nothing: an ideal store does not leak.
    #[inline]
    pub fn leak(&mut self, _dt: Seconds) {}

    /// Energy currently stored.
    #[inline]
    pub fn stored_energy(&self) -> Joules {
        Joules::new(self.energy.max(0.0))
    }

    /// Always 1: an ideal store has no capacity to fill.
    pub fn state_of_charge(&self) -> Ratio {
        Ratio::ONE
    }
}

/// A declarative, `Copy` description of an energy store.
///
/// Specifications that stamp out one fresh store per simulated node (a
/// fleet) or per sweep job describe the store once and
/// [`StoreSpec::build`] a fresh instance wherever one is needed.
///
/// ```
/// use eh_node::StoreSpec;
///
/// let spec = StoreSpec::supercapacitor_022f_at(4.0);
/// let a = spec.build()?;
/// let b = spec.build()?;
/// assert_eq!(a.stored_energy(), b.stored_energy()); // independent, identical
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StoreSpec {
    /// An [`IdealStore`].
    Ideal,
    /// A [`Supercapacitor`].
    Supercapacitor {
        /// Capacitance in farads.
        capacitance: Farads,
        /// Maximum rated voltage.
        v_max: Volts,
        /// Minimum usable voltage.
        v_min: Volts,
        /// Deployment voltage.
        initial_voltage: Volts,
    },
    /// A [`Battery`].
    Battery {
        /// Rated capacity.
        capacity: Joules,
        /// Coulombic charge efficiency in `(0, 1]`.
        charge_efficiency: f64,
        /// Fraction of stored energy lost per month.
        self_discharge_per_month: f64,
        /// Deployment state of charge in `[0, 1]`.
        initial_soc: f64,
    },
}

impl StoreSpec {
    /// The week-endurance reference store: a 0.22 F / 5 V supercapacitor
    /// (1.8 V dropout) deployed charged to `initial_volts`.
    pub fn supercapacitor_022f_at(initial_volts: f64) -> Self {
        StoreSpec::Supercapacitor {
            capacitance: Farads::new(0.22),
            v_max: Volts::new(5.0),
            v_min: Volts::new(1.8),
            initial_voltage: Volts::new(initial_volts),
        }
    }

    /// Builds a fresh store from the description.
    ///
    /// # Errors
    ///
    /// Propagates the underlying constructors' parameter validation.
    pub fn build(&self) -> Result<ConcreteStore, Error> {
        Ok(match *self {
            StoreSpec::Ideal => ConcreteStore::Ideal(IdealStore::new()),
            StoreSpec::Supercapacitor {
                capacitance,
                v_max,
                v_min,
                initial_voltage,
            } => ConcreteStore::Supercapacitor(
                Supercapacitor::new(capacitance, v_max, v_min)?
                    .with_initial_voltage(initial_voltage),
            ),
            StoreSpec::Battery {
                capacity,
                charge_efficiency,
                self_discharge_per_month,
                initial_soc,
            } => ConcreteStore::Battery(
                Battery::new(capacity, charge_efficiency, self_discharge_per_month)?
                    .with_state_of_charge(initial_soc),
            ),
        })
    }
}

/// An energy store as a closed enum over the concrete store types: the
/// store a node simulation steps. It dispatches deposit / withdraw /
/// leak — several per simulated step — with a three-way match the
/// optimiser can inline, where a trait object would pay a virtual call
/// each.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConcreteStore {
    /// An [`IdealStore`].
    Ideal(IdealStore),
    /// A [`Supercapacitor`].
    Supercapacitor(Supercapacitor),
    /// A [`Battery`].
    Battery(Battery),
}

impl ConcreteStore {
    /// Deposits into the wrapped store; returns the amount absorbed.
    #[inline]
    pub fn deposit(&mut self, energy: Joules) -> Joules {
        match self {
            ConcreteStore::Ideal(s) => s.deposit(energy),
            ConcreteStore::Supercapacitor(s) => s.deposit(energy),
            ConcreteStore::Battery(s) => s.deposit(energy),
        }
    }

    /// Withdraws up to `energy` from the wrapped store; returns the
    /// amount supplied.
    #[inline]
    pub fn withdraw(&mut self, energy: Joules) -> Joules {
        match self {
            ConcreteStore::Ideal(s) => s.withdraw(energy),
            ConcreteStore::Supercapacitor(s) => s.withdraw(energy),
            ConcreteStore::Battery(s) => s.withdraw(energy),
        }
    }

    /// Applies the wrapped store's self-discharge over `dt`.
    #[inline]
    pub fn leak(&mut self, dt: Seconds) {
        match self {
            ConcreteStore::Ideal(s) => s.leak(dt),
            ConcreteStore::Supercapacitor(s) => s.leak(dt),
            ConcreteStore::Battery(s) => s.leak(dt),
        }
    }

    /// The wrapped store's usable energy.
    #[inline]
    pub fn stored_energy(&self) -> Joules {
        match self {
            ConcreteStore::Ideal(s) => s.stored_energy(),
            ConcreteStore::Supercapacitor(s) => s.stored_energy(),
            ConcreteStore::Battery(s) => s.stored_energy(),
        }
    }

    /// The wrapped store's fill level, in `[0, 1]`.
    #[inline]
    pub fn state_of_charge(&self) -> Ratio {
        match self {
            ConcreteStore::Ideal(s) => s.state_of_charge(),
            ConcreteStore::Supercapacitor(s) => s.state_of_charge(),
            ConcreteStore::Battery(s) => s.state_of_charge(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Supercapacitor {
        Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::new(1.8)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Supercapacitor::new(Farads::ZERO, Volts::new(5.0), Volts::new(1.8)).is_err());
        assert!(Supercapacitor::new(Farads::new(0.1), Volts::new(1.0), Volts::new(1.8)).is_err());
        assert!(Supercapacitor::new(Farads::new(0.1), Volts::new(5.0), Volts::ZERO).is_err());
    }

    #[test]
    fn deposit_withdraw_round_trip() {
        let mut s = sc();
        assert_eq!(s.stored_energy(), Joules::ZERO);
        let put = s.deposit(Joules::new(0.4));
        assert_eq!(put, Joules::new(0.4));
        let got = s.withdraw(Joules::new(0.4));
        assert!((got.value() - 0.4).abs() < 1e-12);
        assert!(s.stored_energy().value() < 1e-12);
    }

    #[test]
    fn clamps_at_full_and_empty() {
        let mut s = sc();
        let cap = s.usable_capacity();
        let absorbed = s.deposit(Joules::new(100.0));
        assert!((absorbed.value() - cap.value()).abs() < 1e-9);
        assert!((s.voltage().value() - 5.0).abs() < 1e-9);
        assert_eq!(s.state_of_charge(), Ratio::ONE);
        // Can't pull below v_min.
        let got = s.withdraw(Joules::new(1000.0));
        assert!((got.value() - cap.value()).abs() < 1e-9);
        assert!((s.voltage().value() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn leakage_drains() {
        let mut s = sc();
        s.deposit(Joules::new(0.5));
        let before = s.voltage();
        s.leak(Seconds::from_hours(1.0));
        // 2 µA for 1 h on 0.1 F: ΔV = 72 mV.
        let dv = (before - s.voltage()).value();
        assert!((dv - 0.072).abs() < 1e-6, "ΔV = {dv}");
    }

    #[test]
    fn usable_capacity_formula() {
        let s = sc();
        let expect = 0.5 * 0.1 * (25.0 - 3.24);
        assert!((s.usable_capacity().value() - expect).abs() < 1e-9);
    }

    #[test]
    fn ideal_store_semantics() {
        let mut s = IdealStore::new();
        s.deposit(Joules::new(2.0));
        assert_eq!(s.stored_energy(), Joules::new(2.0));
        let got = s.withdraw(Joules::new(5.0));
        assert_eq!(got, Joules::new(2.0));
        assert_eq!(s.stored_energy(), Joules::ZERO);
        s.leak(Seconds::from_hours(10.0));
        assert_eq!(s.state_of_charge(), Ratio::ONE);
    }

    #[test]
    fn negative_amounts_ignored() {
        let mut s = sc();
        assert_eq!(s.deposit(Joules::new(-1.0)), Joules::ZERO);
        assert_eq!(s.withdraw(Joules::new(-1.0)), Joules::ZERO);
    }

    #[test]
    fn battery_validation() {
        assert!(Battery::new(Joules::ZERO, 0.9, 0.05).is_err());
        assert!(Battery::new(Joules::new(10.0), 0.0, 0.05).is_err());
        assert!(Battery::new(Joules::new(10.0), 1.2, 0.05).is_err());
        assert!(Battery::new(Joules::new(10.0), 0.9, 1.0).is_err());
    }

    #[test]
    fn battery_coulombic_loss_and_capacity_clamp() {
        let mut b = Battery::new(Joules::new(10.0), 0.8, 0.0).unwrap();
        let absorbed = b.deposit(Joules::new(5.0));
        assert!((absorbed.value() - 4.0).abs() < 1e-12);
        // Fill it up; only the remaining 6 J of headroom can be absorbed.
        let absorbed = b.deposit(Joules::new(100.0));
        assert!((absorbed.value() - 6.0).abs() < 1e-12);
        assert_eq!(b.state_of_charge(), Ratio::ONE);
        // Discharge has no extra loss.
        assert_eq!(b.withdraw(Joules::new(4.0)), Joules::new(4.0));
    }

    #[test]
    fn battery_self_discharge_monthly() {
        let mut b = Battery::new(Joules::new(100.0), 1.0, 0.10)
            .unwrap()
            .with_state_of_charge(1.0);
        b.leak(Seconds::new(30.0 * 86_400.0));
        assert!((b.stored_energy().value() - 90.0).abs() < 1e-6);
        // Half a month loses about half the monthly fraction (compounded).
        let mut c = Battery::new(Joules::new(100.0), 1.0, 0.10)
            .unwrap()
            .with_state_of_charge(1.0);
        c.leak(Seconds::new(15.0 * 86_400.0));
        assert!(c.stored_energy().value() > 94.0 && c.stored_energy().value() < 96.0);
    }

    #[test]
    fn store_spec_builds_fresh_equivalent_stores() {
        let spec = StoreSpec::supercapacitor_022f_at(4.0);
        let mut a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert!(a.stored_energy().value() > 0.0);
        assert_eq!(a.stored_energy(), b.stored_energy());
        // Instances are independent: draining one leaves the other full.
        a.withdraw(Joules::new(1.0));
        assert!(a.stored_energy() < b.stored_energy());

        assert_eq!(
            StoreSpec::Ideal.build().unwrap().stored_energy(),
            Joules::ZERO
        );
        let bat = StoreSpec::Battery {
            capacity: Joules::new(200.0),
            charge_efficiency: 0.9,
            self_discharge_per_month: 0.03,
            initial_soc: 0.5,
        };
        assert_eq!(bat.build().unwrap().stored_energy(), Joules::new(100.0));
    }

    #[test]
    fn store_spec_propagates_validation() {
        let bad = StoreSpec::Battery {
            capacity: Joules::ZERO,
            charge_efficiency: 0.9,
            self_discharge_per_month: 0.03,
            initial_soc: 0.5,
        };
        assert!(bad.build().is_err());
    }

    #[test]
    fn battery_initial_soc_clamped() {
        let b = Battery::new(Joules::new(50.0), 1.0, 0.0)
            .unwrap()
            .with_state_of_charge(1.7);
        assert_eq!(b.stored_energy(), Joules::new(50.0));
        assert_eq!(b.capacity(), Joules::new(50.0));
    }
}
