//! Arrays of PV modules: series strings with bypass diodes and parallel
//! banks, including partial shading.
//!
//! The paper evaluates one small module, but its target applications
//! (body-worn and mobile sensors) routinely shade part of the collector.
//! A partially shaded series string with bypass diodes has a *multi-hump*
//! power curve, which is the classic failure mode of single-point
//! techniques: FOCV (and hill climbing) can lock onto a local maximum.
//! This module provides the substrate to quantify that.

use eh_units::{Amps, Error, Kelvin, Lux, Volts, Watts};

use crate::cell::PvCell;
use crate::mpp::MppPoint;

/// One module of a series string together with its local illuminance
/// scale (1.0 = full scene illuminance, 0.2 = 80 % shaded).
#[derive(Debug, Clone)]
pub struct StringElement {
    cell: PvCell,
    shade_factor: f64,
}

impl StringElement {
    /// Creates an element with a shading factor in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Rejects factors outside `(0, 1]`.
    pub fn new(cell: PvCell, shade_factor: f64) -> Result<Self, Error> {
        if !(shade_factor.is_finite() && shade_factor > 0.0 && shade_factor <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "shade_factor",
                value: shade_factor,
            });
        }
        Ok(Self { cell, shade_factor })
    }

    fn local_lux(&self, scene: Lux) -> Lux {
        scene * self.shade_factor
    }
}

/// A series string of PV modules, each with an ideal bypass diode.
///
/// With bypass diodes a module that cannot carry the string current is
/// clamped at `−V_bypass` instead of reverse-biasing, which creates the
/// characteristic staircase I-V curve under partial shading.
///
/// ```
/// use eh_pv::array::{SeriesString, StringElement};
/// use eh_pv::presets;
/// use eh_units::{Lux, Volts};
///
/// let string = SeriesString::new(vec![
///     StringElement::new(presets::sanyo_am1815(), 1.0)?,
///     StringElement::new(presets::sanyo_am1815(), 0.3)?, // shaded module
/// ], Volts::from_milli(350.0))?;
/// let i = string.current_at(Volts::new(5.0), Lux::new(1000.0))?;
/// assert!(i.value() > 0.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SeriesString {
    elements: Vec<StringElement>,
    bypass_drop: Volts,
}

impl SeriesString {
    /// Creates a string from its elements and the bypass diode forward
    /// drop.
    ///
    /// # Errors
    ///
    /// Rejects an empty string or a negative bypass drop.
    pub fn new(elements: Vec<StringElement>, bypass_drop: Volts) -> Result<Self, Error> {
        if elements.is_empty() {
            return Err(Error::InvalidParameter {
                name: "elements",
                value: 0.0,
            });
        }
        if !(bypass_drop.value().is_finite() && bypass_drop.value() >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "bypass_drop",
                value: bypass_drop.value(),
            });
        }
        Ok(Self {
            elements,
            bypass_drop,
        })
    }

    /// Number of series modules.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the string has no modules (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// String voltage at a given shared current: each module contributes
    /// its own voltage at that current, clamped at the bypass diode.
    ///
    /// # Errors
    ///
    /// Propagates cell solver errors.
    pub fn voltage_at_current(&self, i: Amps, scene: Lux) -> Result<Volts, Error> {
        let mut total = 0.0;
        for el in &self.elements {
            let lux = el.local_lux(scene);
            let v = Self::module_voltage_at_current(&el.cell, i, lux)?;
            // Bypass diode conducts when the module would go negative.
            total += v.value().max(-self.bypass_drop.value());
        }
        Ok(Volts::new(total))
    }

    /// Inverse of the module's I(V): the voltage at which the module
    /// carries current `i` (negative if it cannot) — a direct Newton
    /// solve on the diode equation.
    fn module_voltage_at_current(cell: &PvCell, i: Amps, lux: Lux) -> Result<Volts, Error> {
        if i.value() <= 0.0 {
            return cell.open_circuit_voltage(lux);
        }
        cell.voltage_at_current(i, lux)
    }

    /// String current at a terminal voltage, solving the implicit
    /// string equation by bisection on the shared current.
    ///
    /// # Errors
    ///
    /// Propagates cell solver errors; rejects negative voltage.
    pub fn current_at(&self, v: Volts, scene: Lux) -> Result<Amps, Error> {
        if v.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "string voltage",
                value: v.value(),
            });
        }
        // The maximum possible current is the best module's Isc.
        let mut i_max = 0.0f64;
        for el in &self.elements {
            let isc = el.cell.short_circuit_current(el.local_lux(scene))?;
            i_max = i_max.max(isc.value());
        }
        if i_max <= 0.0 {
            return Ok(Amps::ZERO);
        }
        // V(I) is strictly decreasing in I: bisect.
        let (mut lo, mut hi) = (0.0, i_max);
        if self.voltage_at_current(Amps::new(lo), scene)?.value() <= v.value() {
            return Ok(Amps::ZERO); // terminal voltage at or above string Voc
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let vm = self.voltage_at_current(Amps::new(mid), scene)?;
            if vm.value() > v.value() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Amps::new(0.5 * (lo + hi)))
    }

    /// String open-circuit voltage.
    ///
    /// # Errors
    ///
    /// Propagates cell solver errors.
    pub fn open_circuit_voltage(&self, scene: Lux) -> Result<Volts, Error> {
        self.voltage_at_current(Amps::ZERO, scene)
    }

    /// Global maximum power point, found by a fine scan plus golden
    /// refinement (the power curve may be multi-modal under partial
    /// shading, so a plain golden section is not sufficient).
    ///
    /// # Errors
    ///
    /// Propagates cell solver errors.
    pub fn global_mpp(&self, scene: Lux, _t: Kelvin) -> Result<MppPoint, Error> {
        let voc = self.open_circuit_voltage(scene)?;
        if voc.value() <= 0.0 {
            return Ok(MppPoint {
                voltage: Volts::ZERO,
                current: Amps::ZERO,
                power: Watts::ZERO,
                open_circuit_voltage: Volts::ZERO,
            });
        }
        const SCAN: usize = 160;
        let mut best_v = 0.0;
        let mut best_p = -1.0;
        for n in 0..=SCAN {
            let v = voc.value() * n as f64 / SCAN as f64;
            let i = self.current_at(Volts::new(v), scene)?;
            let p = v * i.value();
            if p > best_p {
                best_p = p;
                best_v = v;
            }
        }
        // Local refinement around the best scan point.
        let span = voc.value() / SCAN as f64;
        let (mut lo, mut hi) = ((best_v - span).max(0.0), (best_v + span).min(voc.value()));
        for _ in 0..40 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            let p1 = m1 * self.current_at(Volts::new(m1), scene)?.value();
            let p2 = m2 * self.current_at(Volts::new(m2), scene)?.value();
            if p1 < p2 {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        let v = Volts::new(0.5 * (lo + hi));
        let i = self.current_at(v, scene)?;
        Ok(MppPoint {
            voltage: v,
            current: i,
            power: v * i,
            open_circuit_voltage: voc,
        })
    }

    /// Power of the string when operated FOCV-style at `k · Voc` —
    /// to compare against [`SeriesString::global_mpp`] under shading.
    ///
    /// # Errors
    ///
    /// Propagates cell solver errors.
    pub fn power_at_focv(&self, k: f64, scene: Lux) -> Result<Watts, Error> {
        let voc = self.open_circuit_voltage(scene)?;
        let v = voc * k;
        let i = self.current_at(v, scene)?;
        Ok(v * i)
    }
}

/// A parallel bank of series strings: all strings share the terminal
/// voltage and their currents add — the other composition axis of a
/// larger collector (e.g. two AM-1815s side by side on a wearable).
#[derive(Debug, Clone)]
pub struct ParallelBank {
    strings: Vec<SeriesString>,
}

impl ParallelBank {
    /// Creates a bank from its strings.
    ///
    /// # Errors
    ///
    /// Rejects an empty bank.
    pub fn new(strings: Vec<SeriesString>) -> Result<Self, Error> {
        if strings.is_empty() {
            return Err(Error::InvalidParameter {
                name: "strings",
                value: 0.0,
            });
        }
        Ok(Self { strings })
    }

    /// Number of parallel strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the bank has no strings (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Bank current at a terminal voltage: the sum of string currents.
    ///
    /// # Errors
    ///
    /// Propagates string solver errors.
    pub fn current_at(&self, v: Volts, scene: Lux) -> Result<Amps, Error> {
        let mut total = 0.0;
        for s in &self.strings {
            total += s.current_at(v, scene)?.value();
        }
        Ok(Amps::new(total))
    }

    /// Bank open-circuit voltage: the highest string Voc (the brighter
    /// string back-feeds the dimmer one up to its own Voc; blocking
    /// diodes are assumed, so no reverse current flows).
    ///
    /// # Errors
    ///
    /// Propagates string solver errors.
    pub fn open_circuit_voltage(&self, scene: Lux) -> Result<Volts, Error> {
        let mut best = Volts::ZERO;
        for s in &self.strings {
            best = best.max(s.open_circuit_voltage(scene)?);
        }
        Ok(best)
    }

    /// Global maximum power point of the bank (scan + refinement, since
    /// mismatched strings can produce multi-modal curves).
    ///
    /// # Errors
    ///
    /// Propagates string solver errors.
    pub fn global_mpp(&self, scene: Lux, _t: Kelvin) -> Result<MppPoint, Error> {
        let voc = self.open_circuit_voltage(scene)?;
        if voc.value() <= 0.0 {
            return Ok(MppPoint {
                voltage: Volts::ZERO,
                current: Amps::ZERO,
                power: Watts::ZERO,
                open_circuit_voltage: Volts::ZERO,
            });
        }
        const SCAN: usize = 120;
        let mut best_v = 0.0;
        let mut best_p = -1.0;
        for n in 0..=SCAN {
            let v = voc.value() * n as f64 / SCAN as f64;
            let p = v * self.current_at(Volts::new(v), scene)?.value();
            if p > best_p {
                best_p = p;
                best_v = v;
            }
        }
        let span = voc.value() / SCAN as f64;
        let (mut lo, mut hi) = ((best_v - span).max(0.0), (best_v + span).min(voc.value()));
        for _ in 0..40 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            let p1 = m1 * self.current_at(Volts::new(m1), scene)?.value();
            let p2 = m2 * self.current_at(Volts::new(m2), scene)?.value();
            if p1 < p2 {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        let v = Volts::new(0.5 * (lo + hi));
        let i = self.current_at(v, scene)?;
        Ok(MppPoint {
            voltage: v,
            current: i,
            power: v * i,
            open_circuit_voltage: voc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn uniform_string(n: usize) -> SeriesString {
        SeriesString::new(
            (0..n)
                .map(|_| StringElement::new(presets::sanyo_am1815(), 1.0).unwrap())
                .collect(),
            Volts::from_milli(350.0),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(SeriesString::new(vec![], Volts::ZERO).is_err());
        assert!(StringElement::new(presets::sanyo_am1815(), 0.0).is_err());
        assert!(StringElement::new(presets::sanyo_am1815(), 1.5).is_err());
        assert!(SeriesString::new(
            vec![StringElement::new(presets::sanyo_am1815(), 1.0).unwrap()],
            Volts::new(-0.1)
        )
        .is_err());
    }

    #[test]
    fn uniform_string_voc_scales_with_length() {
        let lux = Lux::new(1000.0);
        let single = presets::sanyo_am1815().open_circuit_voltage(lux).unwrap();
        let s3 = uniform_string(3).open_circuit_voltage(lux).unwrap();
        assert!(
            (s3.value() - 3.0 * single.value()).abs() < 0.01,
            "3-string Voc {s3} vs 3×{single}"
        );
    }

    #[test]
    fn uniform_string_power_scales_with_length() {
        let lux = Lux::new(1000.0);
        let p1 = presets::sanyo_am1815().mpp(lux).unwrap().power;
        let p3 = uniform_string(3)
            .global_mpp(lux, Kelvin::STC)
            .unwrap()
            .power;
        let ratio = p3.value() / p1.value();
        assert!((ratio - 3.0).abs() < 0.1, "power ratio {ratio}");
    }

    #[test]
    fn current_monotone_in_voltage() {
        let s = uniform_string(2);
        let lux = Lux::new(800.0);
        let mut prev = f64::INFINITY;
        for n in 0..12 {
            let v = Volts::new(n as f64);
            let i = s.current_at(v, lux).unwrap().value();
            assert!(i <= prev + 1e-12);
            prev = i;
        }
    }

    #[test]
    fn shaded_string_loses_power() {
        let lux = Lux::new(1000.0);
        let clean = uniform_string(3)
            .global_mpp(lux, Kelvin::STC)
            .unwrap()
            .power;
        let shaded = SeriesString::new(
            vec![
                StringElement::new(presets::sanyo_am1815(), 1.0).unwrap(),
                StringElement::new(presets::sanyo_am1815(), 1.0).unwrap(),
                StringElement::new(presets::sanyo_am1815(), 0.25).unwrap(),
            ],
            Volts::from_milli(350.0),
        )
        .unwrap()
        .global_mpp(lux, Kelvin::STC)
        .unwrap()
        .power;
        assert!(shaded < clean);
        assert!(
            shaded.value() > 0.3 * clean.value(),
            "bypass keeps most power"
        );
    }

    #[test]
    fn focv_suffers_under_partial_shading() {
        // The known FOCV limitation: under heavy partial shading the
        // single k·Voc point can sit far from the global maximum.
        let lux = Lux::new(1000.0);
        let shaded = SeriesString::new(
            vec![
                StringElement::new(presets::sanyo_am1815(), 1.0).unwrap(),
                StringElement::new(presets::sanyo_am1815(), 0.15).unwrap(),
            ],
            Volts::from_milli(350.0),
        )
        .unwrap();
        let gmpp = shaded.global_mpp(lux, Kelvin::STC).unwrap().power;
        let focv = shaded.power_at_focv(0.596, lux).unwrap();
        let capture = focv.value() / gmpp.value();
        assert!(
            capture < 0.95,
            "shading must cost FOCV something: capture = {capture}"
        );
        // And on an unshaded string FOCV stays close to the global MPP.
        let clean = uniform_string(2);
        let clean_capture = clean.power_at_focv(0.596, lux).unwrap().value()
            / clean.global_mpp(lux, Kelvin::STC).unwrap().power.value();
        assert!(clean_capture > 0.9, "clean capture = {clean_capture}");
        assert!(clean_capture > capture);
    }

    #[test]
    fn dark_string_is_dead() {
        let s = uniform_string(2);
        assert_eq!(
            s.global_mpp(Lux::ZERO, Kelvin::STC).unwrap().power,
            Watts::ZERO
        );
    }

    #[test]
    fn parallel_bank_validation() {
        assert!(ParallelBank::new(vec![]).is_err());
        let bank = ParallelBank::new(vec![uniform_string(1)]).unwrap();
        assert_eq!(bank.len(), 1);
        assert!(!bank.is_empty());
    }

    #[test]
    fn parallel_currents_add() {
        let lux = Lux::new(1000.0);
        let single = uniform_string(1);
        let bank = ParallelBank::new(vec![uniform_string(1), uniform_string(1)]).unwrap();
        let v = Volts::new(3.0);
        let i1 = single.current_at(v, lux).unwrap();
        let i2 = bank.current_at(v, lux).unwrap();
        assert!((i2.value() - 2.0 * i1.value()).abs() < 1e-9);
    }

    #[test]
    fn parallel_bank_power_scales() {
        let lux = Lux::new(1000.0);
        let p1 = uniform_string(1)
            .global_mpp(lux, Kelvin::STC)
            .unwrap()
            .power;
        let bank = ParallelBank::new(vec![uniform_string(1), uniform_string(1)]).unwrap();
        let p2 = bank.global_mpp(lux, Kelvin::STC).unwrap().power;
        let ratio = p2.value() / p1.value();
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
        // Same Voc as one string.
        let voc1 = uniform_string(1).open_circuit_voltage(lux).unwrap();
        let voc2 = bank.open_circuit_voltage(lux).unwrap();
        assert!((voc1.value() - voc2.value()).abs() < 1e-6);
    }

    #[test]
    fn mismatched_bank_takes_the_higher_voc() {
        let lux = Lux::new(1000.0);
        let dim = SeriesString::new(
            vec![StringElement::new(presets::sanyo_am1815(), 0.2).unwrap()],
            Volts::from_milli(350.0),
        )
        .unwrap();
        let bright = uniform_string(1);
        let voc_bright = bright.open_circuit_voltage(lux).unwrap();
        let bank = ParallelBank::new(vec![dim, bright]).unwrap();
        let voc_bank = bank.open_circuit_voltage(lux).unwrap();
        assert!((voc_bank.value() - voc_bright.value()).abs() < 1e-9);
    }
}
