//! Single-diode equivalent-circuit model with an illumination-proportional
//! shunt ("photo-shunt"), the variant that fits amorphous-silicon cells.

use eh_units::{thermal_voltage, Amps, Kelvin, Lux, Ohms, Volts, K_OVER_Q};

use crate::cache::ConnectPoint;
use crate::error::PvError;

/// Single-diode PV model:
///
/// ```text
/// I = Iph(G,T) − I0(T)·(exp((V + I·Rs)/b(T)) − 1) − (V + I·Rs)/Rsh(G)
/// ```
///
/// where `b(T) = Ns·n·Vt(T)` is the composite thermal slope of the series
/// junction stack and `Rsh(G) = Rsh_ref·G_ref/G` is the photo-shunt: in
/// a-Si cells the dominant shunt mechanism is recombination of
/// photo-generated carriers, so the effective shunt conductance scales
/// with illumination. This term is what keeps the FOCV fraction
/// `k = Vmpp/Voc` approximately constant across light intensities —
/// the property Eq. (1) of the paper exploits — where a fixed ohmic shunt
/// would make `k` collapse toward the crystalline value at high light.
///
/// # Examples
///
/// ```
/// use eh_pv::SingleDiodeModel;
/// use eh_units::{Kelvin, Lux};
///
/// let m = SingleDiodeModel::builder("demo")
///     .junctions(8)
///     .ideality(1.66)
///     .saturation_current_amps(6.7e-12)
///     .photocurrent_per_lux_amps(4.19e-7)
///     .photo_shunt_ohms(75_092.0, 200.0)
///     .series_resistance_ohms(209.0)
///     .build()?;
/// let isc = m.short_circuit_current(Lux::new(200.0), Kelvin::STC)?;
/// assert!(isc.as_micro() > 40.0);
/// # Ok::<(), eh_pv::PvError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SingleDiodeModel {
    name: String,
    /// Number of series-connected junctions in the module.
    junctions: u32,
    /// Per-junction diode ideality factor.
    ideality: f64,
    /// Diode reverse saturation current at the reference temperature.
    saturation_current_ref: Amps,
    /// Photocurrent per lux at the reference temperature.
    photocurrent_per_lux: f64,
    /// Shunt resistance at `shunt_ref_illuminance`.
    photo_shunt_ref: Ohms,
    /// Illuminance at which `photo_shunt_ref` applies.
    shunt_ref_illuminance: Lux,
    /// Series resistance.
    series_resistance: Ohms,
    /// Bandgap in eV (a-Si ≈ 1.7), used for `I0(T)` scaling.
    bandgap_ev: f64,
    /// Relative photocurrent temperature coefficient, per kelvin.
    photocurrent_temp_coeff: f64,
    /// Reference temperature for all `_ref` parameters.
    reference_temperature: Kelvin,
    /// Active area in cm² (informational; used for efficiency reporting).
    area_cm2: f64,
}

/// Builder for [`SingleDiodeModel`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct SingleDiodeModelBuilder {
    name: String,
    junctions: u32,
    ideality: f64,
    saturation_current_ref: f64,
    photocurrent_per_lux: f64,
    photo_shunt_ref: f64,
    shunt_ref_illuminance: f64,
    series_resistance: f64,
    bandgap_ev: f64,
    photocurrent_temp_coeff: f64,
    reference_temperature: Kelvin,
    area_cm2: f64,
}

impl SingleDiodeModelBuilder {
    /// Sets the number of series junctions.
    pub fn junctions(mut self, n: u32) -> Self {
        self.junctions = n;
        self
    }

    /// Sets the per-junction ideality factor.
    pub fn ideality(mut self, n: f64) -> Self {
        self.ideality = n;
        self
    }

    /// Sets the reverse saturation current in amps at the reference
    /// temperature.
    pub fn saturation_current_amps(mut self, i0: f64) -> Self {
        self.saturation_current_ref = i0;
        self
    }

    /// Sets the photocurrent generated per lux of illuminance, in amps.
    pub fn photocurrent_per_lux_amps(mut self, c: f64) -> Self {
        self.photocurrent_per_lux = c;
        self
    }

    /// Sets the photo-shunt: `rsh` ohms at `at_lux` lux, scaling as
    /// `Rsh(G) = rsh · at_lux / G`.
    pub fn photo_shunt_ohms(mut self, rsh: f64, at_lux: f64) -> Self {
        self.photo_shunt_ref = rsh;
        self.shunt_ref_illuminance = at_lux;
        self
    }

    /// Sets the series resistance in ohms.
    pub fn series_resistance_ohms(mut self, rs: f64) -> Self {
        self.series_resistance = rs;
        self
    }

    /// Sets the bandgap in electron-volts (default 1.7, a-Si).
    pub fn bandgap_ev(mut self, eg: f64) -> Self {
        self.bandgap_ev = eg;
        self
    }

    /// Sets the relative photocurrent temperature coefficient per kelvin
    /// (default `9e-4`).
    pub fn photocurrent_temp_coeff(mut self, alpha: f64) -> Self {
        self.photocurrent_temp_coeff = alpha;
        self
    }

    /// Sets the reference temperature (default [`Kelvin::STC`]).
    pub fn reference_temperature(mut self, t: Kelvin) -> Self {
        self.reference_temperature = t;
        self
    }

    /// Sets the active area in cm² (informational).
    pub fn area_cm2(mut self, a: f64) -> Self {
        self.area_cm2 = a;
        self
    }

    /// Validates parameters and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if any parameter is
    /// non-positive or non-finite where a positive value is required.
    pub fn build(self) -> Result<SingleDiodeModel, PvError> {
        fn positive(name: &'static str, v: f64) -> Result<f64, PvError> {
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(PvError::InvalidParameter { name, value: v })
            }
        }
        fn non_negative(name: &'static str, v: f64) -> Result<f64, PvError> {
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err(PvError::InvalidParameter { name, value: v })
            }
        }
        if self.junctions == 0 {
            return Err(PvError::InvalidParameter {
                name: "junctions",
                value: 0.0,
            });
        }
        Ok(SingleDiodeModel {
            name: self.name,
            junctions: self.junctions,
            ideality: positive("ideality", self.ideality)?,
            saturation_current_ref: Amps::new(positive(
                "saturation_current",
                self.saturation_current_ref,
            )?),
            photocurrent_per_lux: positive("photocurrent_per_lux", self.photocurrent_per_lux)?,
            photo_shunt_ref: Ohms::new(positive("photo_shunt", self.photo_shunt_ref)?),
            shunt_ref_illuminance: Lux::new(positive(
                "shunt_ref_illuminance",
                self.shunt_ref_illuminance,
            )?),
            series_resistance: Ohms::new(non_negative(
                "series_resistance",
                self.series_resistance,
            )?),
            bandgap_ev: positive("bandgap_ev", self.bandgap_ev)?,
            photocurrent_temp_coeff: non_negative(
                "photocurrent_temp_coeff",
                self.photocurrent_temp_coeff,
            )?,
            reference_temperature: self.reference_temperature,
            area_cm2: positive("area_cm2", self.area_cm2)?,
        })
    }
}

impl SingleDiodeModel {
    /// Starts building a model with the given display name.
    pub fn builder(name: impl Into<String>) -> SingleDiodeModelBuilder {
        SingleDiodeModelBuilder {
            name: name.into(),
            junctions: 1,
            ideality: 1.5,
            saturation_current_ref: 1e-12,
            photocurrent_per_lux: 2e-7,
            photo_shunt_ref: 1e5,
            shunt_ref_illuminance: 200.0,
            series_resistance: 100.0,
            bandgap_ev: 1.7,
            photocurrent_temp_coeff: 9e-4,
            reference_temperature: Kelvin::STC,
            area_cm2: 25.0,
        }
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many numeric parameters [`SingleDiodeModel::parameter_bits`]
    /// returns.
    pub(crate) const PARAMETERS: usize = 11;

    /// The bits of every numeric parameter: with the name, the model's
    /// identity in the surface registry. The destructuring makes a new
    /// field a compile error here until it joins the key.
    pub(crate) fn parameter_bits(&self) -> [u64; Self::PARAMETERS] {
        let Self {
            name: _,
            junctions,
            ideality,
            saturation_current_ref,
            photocurrent_per_lux,
            photo_shunt_ref,
            shunt_ref_illuminance,
            series_resistance,
            bandgap_ev,
            photocurrent_temp_coeff,
            reference_temperature,
            area_cm2,
        } = self;
        [
            u64::from(*junctions),
            ideality.to_bits(),
            saturation_current_ref.value().to_bits(),
            photocurrent_per_lux.to_bits(),
            photo_shunt_ref.value().to_bits(),
            shunt_ref_illuminance.value().to_bits(),
            series_resistance.value().to_bits(),
            bandgap_ev.to_bits(),
            photocurrent_temp_coeff.to_bits(),
            reference_temperature.value().to_bits(),
            area_cm2.to_bits(),
        ]
    }

    /// The same model under another name.
    #[cfg(test)]
    pub(crate) fn renamed(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Active area in cm².
    pub fn area_cm2(&self) -> f64 {
        self.area_cm2
    }

    /// Series resistance.
    pub fn series_resistance(&self) -> Ohms {
        self.series_resistance
    }

    /// Composite thermal slope `b(T) = Ns·n·Vt(T)` of the junction stack.
    pub fn thermal_slope(&self, t: Kelvin) -> Volts {
        thermal_voltage(t) * (self.junctions as f64 * self.ideality)
    }

    /// Diode saturation current at temperature `t`, using the standard
    /// `I0(T) = I0_ref·(T/Tref)³·exp((Eg/(n·k/q))·(1/Tref − 1/T))` scaling.
    pub fn saturation_current(&self, t: Kelvin) -> Amps {
        let tref = self.reference_temperature.value();
        let tt = t.value();
        let ratio = tt / tref;
        let exp_arg = self.bandgap_ev / (self.ideality * K_OVER_Q) * (1.0 / tref - 1.0 / tt);
        self.saturation_current_ref * (ratio.powi(3) * exp_arg.exp())
    }

    /// Photocurrent at the given illuminance and temperature.
    pub fn photocurrent(&self, lux: Lux, t: Kelvin) -> Amps {
        let dt = t.value() - self.reference_temperature.value();
        Amps::new(
            self.photocurrent_per_lux * lux.value() * (1.0 + self.photocurrent_temp_coeff * dt),
        )
    }

    /// Effective shunt resistance at the given illuminance (photo-shunt).
    ///
    /// At zero illuminance the shunt is effectively open (capped at
    /// 10 GΩ) — the dark cell leaks only through the diode.
    pub fn shunt_resistance(&self, lux: Lux) -> Ohms {
        const RSH_DARK_CAP: f64 = 1e10;
        if lux.value() <= 0.0 {
            return Ohms::new(RSH_DARK_CAP);
        }
        let rsh = self.photo_shunt_ref.value() * self.shunt_ref_illuminance.value() / lux.value();
        Ohms::new(rsh.min(RSH_DARK_CAP))
    }

    /// Terminal current at terminal voltage `v`, solving the implicit
    /// single-diode equation by bisection (the residual is strictly
    /// monotone in `I`, so bisection is globally convergent). A dark
    /// cell at 0 V carries exactly 0 A, as a dark cell's
    /// [`SingleDiodeModel::open_circuit_voltage`] is exactly 0 V; in
    /// the dark at `v > 0` the diode's dark current is still solved.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::OutOfRange`] for negative `v` and
    /// [`PvError::SolveFailed`] if the root cannot be bracketed.
    pub fn current_at(&self, v: Volts, lux: Lux, t: Kelvin) -> Result<Amps, PvError> {
        if !v.is_finite() || v.value() < 0.0 {
            return Err(PvError::OutOfRange {
                what: "terminal voltage",
                value: v.value(),
            });
        }
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(PvError::OutOfRange {
                what: "illuminance",
                value: lux.value(),
            });
        }
        let iph = self.photocurrent(lux, t).value();
        let vv = v.value();
        if iph == 0.0 && vv == 0.0 {
            // A dark cell shorted carries exactly nothing: I = 0 solves
            // the equation, and bisection would stop short of it.
            return Ok(Amps::ZERO);
        }
        let i0 = self.saturation_current(t).value();
        let b = self.thermal_slope(t).value();
        let rs = self.series_resistance.value();
        let rsh = self.shunt_resistance(lux).value();

        let residual = |i: f64| -> f64 {
            let vj = vv + i * rs;
            iph - i0 * exp_m1_clamped(vj / b) - vj / rsh - i
        };

        // Bracket the root. residual() is strictly decreasing in i.
        let mut hi = iph * 1.5 + 1e-9;
        if residual(hi) > 0.0 {
            // Should not happen (residual(iph·1.5) ≤ −0.5·iph), but expand
            // defensively for tiny iph.
            for _ in 0..60 {
                hi *= 2.0;
                if residual(hi) <= 0.0 {
                    break;
                }
            }
        }
        let mut lo = -1e-6;
        let mut expand = 0;
        while residual(lo) < 0.0 {
            lo *= 2.0;
            expand += 1;
            if expand > 80 {
                return Err(PvError::SolveFailed { what: "current" });
            }
        }
        // Bisect.
        let mut flo = residual(lo);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            let fm = residual(mid);
            if flo * fm <= 0.0 {
                hi = mid;
            } else {
                lo = mid;
                flo = fm;
            }
        }
        Ok(Amps::new(0.5 * (lo + hi)))
    }

    /// Terminal voltage at which the cell carries current `i` — the
    /// inverse of [`SingleDiodeModel::current_at`], solved directly on
    /// the junction voltage `W = V + I·Rs` (the residual
    /// `I0·expm1(W/b) + W/Rsh − (Iph − I)` is strictly increasing in
    /// `W`, so safeguarded Newton converges in a handful of steps).
    ///
    /// For currents above the short-circuit current the cell cannot
    /// reach a non-negative voltage; the returned value is negative
    /// (clamped at −10 V), which array code interprets as "bypass".
    ///
    /// # Errors
    ///
    /// Returns [`PvError::OutOfRange`] for negative illuminance or a
    /// non-finite current.
    pub fn voltage_at_current(&self, i: Amps, lux: Lux, t: Kelvin) -> Result<Volts, PvError> {
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(PvError::OutOfRange {
                what: "illuminance",
                value: lux.value(),
            });
        }
        if !i.is_finite() {
            return Err(PvError::OutOfRange {
                what: "current",
                value: i.value(),
            });
        }
        let iph = self.photocurrent(lux, t).value();
        let i0 = self.saturation_current(t).value();
        let b = self.thermal_slope(t).value();
        let rs = self.series_resistance.value();
        let rsh = self.shunt_resistance(lux).value();
        let target = iph - i.value();

        const W_FLOOR: f64 = -10.0;
        let g = |w: f64| i0 * exp_m1_clamped(w / b) + w / rsh - target;
        let dg = |w: f64| i0 / b * exp_clamped(w / b) + 1.0 / rsh;

        // Bracket: g is increasing; find [lo, hi] with g(lo) ≤ 0 ≤ g(hi).
        let mut hi = if target > 0.0 {
            b * (target / i0 + 1.0).ln() + 0.5
        } else {
            0.5
        };
        let mut guard = 0;
        while g(hi) < 0.0 {
            hi += b;
            guard += 1;
            if guard > 200 {
                return Err(PvError::SolveFailed { what: "voltage" });
            }
        }
        let mut lo = W_FLOOR;
        if g(lo) > 0.0 {
            return Ok(Volts::new(W_FLOOR - i.value() * rs));
        }
        // Safeguarded Newton.
        let mut w = hi.min((target * rsh).clamp(W_FLOOR, hi));
        for _ in 0..60 {
            let gv = g(w);
            if gv > 0.0 {
                hi = w;
            } else {
                lo = w;
            }
            let mut next = w - gv / dg(w);
            if !(next > lo && next < hi) {
                next = 0.5 * (lo + hi);
            }
            if (next - w).abs() < 1e-13 {
                w = next;
                break;
            }
            w = next;
        }
        Ok(Volts::new(w - i.value() * rs))
    }

    /// Open-circuit voltage at the given illuminance and temperature.
    ///
    /// Solves `Iph = I0·expm1(Voc/b) + Voc/Rsh` (at `I = 0` the series
    /// resistance drops out) by safeguarded Newton iteration.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::OutOfRange`] for negative illuminance. At zero
    /// illuminance the open-circuit voltage is zero.
    pub fn open_circuit_voltage(&self, lux: Lux, t: Kelvin) -> Result<Volts, PvError> {
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(PvError::OutOfRange {
                what: "illuminance",
                value: lux.value(),
            });
        }
        let iph = self.photocurrent(lux, t).value();
        if iph <= 0.0 {
            return Ok(Volts::ZERO);
        }
        let i0 = self.saturation_current(t).value();
        let b = self.thermal_slope(t).value();
        let rsh = self.shunt_resistance(lux).value();

        let g = |v: f64| iph - i0 * exp_m1_clamped(v / b) - v / rsh;
        let dg = |v: f64| -i0 / b * exp_clamped(v / b) - 1.0 / rsh;

        // Bracket: g(0) = iph > 0; expand hi until g(hi) < 0.
        let mut hi = b * (iph / i0 + 1.0).ln() + 0.1;
        let mut guard = 0;
        while g(hi) > 0.0 {
            hi += b;
            guard += 1;
            if guard > 200 {
                return Err(PvError::SolveFailed { what: "voc" });
            }
        }
        let mut lo = 0.0;
        let mut v = hi * 0.9;
        for _ in 0..80 {
            let gv = g(v);
            if gv > 0.0 {
                lo = v;
            } else {
                hi = v;
            }
            let step = gv / dg(v);
            let mut next = v - step;
            if !(next > lo && next < hi) {
                next = 0.5 * (lo + hi);
            }
            if (next - v).abs() < 1e-12 {
                return Ok(Volts::new(next));
            }
            v = next;
        }
        Ok(Volts::new(v))
    }

    /// Short-circuit current.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from [`SingleDiodeModel::current_at`].
    pub fn short_circuit_current(&self, lux: Lux, t: Kelvin) -> Result<Amps, PvError> {
        self.current_at(Volts::ZERO, lux, t)
    }

    /// One connect step's operating point, solved exactly: `Voc(lux)`,
    /// the regulated voltage `min(target, Voc)`, and the current drawn
    /// there, which is `None` when the regulated voltage is not
    /// positive. The exact counterpart of
    /// [`crate::CachedPvSurface::connect_point`], which falls back to it
    /// outside its cached domain.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from
    /// [`SingleDiodeModel::open_circuit_voltage`] and
    /// [`SingleDiodeModel::current_at`].
    pub fn connect_point(
        &self,
        target: Volts,
        lux: Lux,
        t: Kelvin,
    ) -> Result<ConnectPoint, PvError> {
        let voc = self.open_circuit_voltage(lux, t)?;
        let v_op = target.min(voc);
        let current = if v_op.value() > 0.0 {
            Some(self.current_at(v_op, lux, t)?)
        } else {
            None
        };
        Ok(ConnectPoint { voc, v_op, current })
    }
}

/// `exp(x) − 1` with the argument clamped to avoid overflow.
#[inline]
fn exp_m1_clamped(x: f64) -> f64 {
    x.min(500.0).exp_m1()
}

/// `exp(x)` with the argument clamped to avoid overflow.
#[inline]
fn exp_clamped(x: f64) -> f64 {
    x.min(500.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn am1815_like() -> SingleDiodeModel {
        SingleDiodeModel::builder("test-cell")
            .junctions(8)
            .ideality(1.6614)
            .saturation_current_amps(6.737_13e-12)
            .photocurrent_per_lux_amps(4.187_2e-7)
            .photo_shunt_ohms(75_092.2, 200.0)
            .series_resistance_ohms(208.746)
            .area_cm2(25.0)
            .build()
            .expect("valid parameters")
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        let err = SingleDiodeModel::builder("bad")
            .ideality(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            PvError::InvalidParameter {
                name: "ideality",
                ..
            }
        ));
        let err = SingleDiodeModel::builder("bad")
            .saturation_current_amps(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            PvError::InvalidParameter {
                name: "saturation_current",
                ..
            }
        ));
        let err = SingleDiodeModel::builder("bad")
            .junctions(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            PvError::InvalidParameter {
                name: "junctions",
                ..
            }
        ));
        let err = SingleDiodeModel::builder("bad")
            .series_resistance_ohms(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            PvError::InvalidParameter {
                name: "series_resistance",
                ..
            }
        ));
    }

    #[test]
    fn zero_series_resistance_is_allowed() {
        let m = SingleDiodeModel::builder("ideal-ish")
            .series_resistance_ohms(0.0)
            .build()
            .unwrap();
        assert_eq!(m.series_resistance(), Ohms::ZERO);
        assert!(m
            .current_at(Volts::new(1.0), Lux::new(500.0), Kelvin::STC)
            .is_ok());
    }

    #[test]
    fn current_monotone_decreasing_in_voltage() {
        let m = am1815_like();
        let lux = Lux::new(500.0);
        let mut prev = f64::INFINITY;
        for step in 0..30 {
            let v = Volts::new(step as f64 * 0.2);
            let i = m.current_at(v, lux, Kelvin::STC).unwrap().value();
            assert!(i < prev, "I(V) must strictly decrease: {i} !< {prev}");
            prev = i;
        }
    }

    #[test]
    fn voc_is_current_zero_crossing() {
        let m = am1815_like();
        for lux in [200.0, 1000.0, 5000.0] {
            let lux = Lux::new(lux);
            let voc = m.open_circuit_voltage(lux, Kelvin::STC).unwrap();
            let i = m.current_at(voc, lux, Kelvin::STC).unwrap();
            assert!(
                i.value().abs() < 1e-9,
                "I(Voc) should be ~0, got {} at {lux}",
                i
            );
        }
    }

    #[test]
    fn voc_matches_table1_calibration() {
        let m = am1815_like();
        // (lux, Voc from Table I of the paper, tolerance)
        for (lux, voc_paper) in [
            (200.0, 4.978),
            (500.0, 5.242),
            (1000.0, 5.44),
            (2000.0, 5.64),
            (5000.0, 5.91),
        ] {
            let voc = m
                .open_circuit_voltage(Lux::new(lux), Kelvin::STC)
                .unwrap()
                .value();
            let rel = (voc - voc_paper).abs() / voc_paper;
            assert!(
                rel < 0.02,
                "Voc({lux} lx) = {voc:.3} vs paper {voc_paper} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn voc_grows_logarithmically() {
        let m = am1815_like();
        let v1 = m
            .open_circuit_voltage(Lux::new(200.0), Kelvin::STC)
            .unwrap();
        let v2 = m
            .open_circuit_voltage(Lux::new(2000.0), Kelvin::STC)
            .unwrap();
        let v3 = m
            .open_circuit_voltage(Lux::new(20_000.0), Kelvin::STC)
            .unwrap();
        let d12 = (v2 - v1).value();
        let d23 = (v3 - v2).value();
        // Per-decade increments should be similar (log law), within 40 %.
        assert!((d12 - d23).abs() / d12 < 0.4, "d12={d12}, d23={d23}");
    }

    #[test]
    fn isc_scales_linearly_with_lux() {
        let m = am1815_like();
        let i1 = m
            .short_circuit_current(Lux::new(100.0), Kelvin::STC)
            .unwrap();
        let i2 = m
            .short_circuit_current(Lux::new(200.0), Kelvin::STC)
            .unwrap();
        let ratio = i2.value() / i1.value();
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn dark_cell_produces_nothing() {
        let m = am1815_like();
        let voc = m.open_circuit_voltage(Lux::ZERO, Kelvin::STC).unwrap();
        assert_eq!(voc, Volts::ZERO);
        let isc = m.short_circuit_current(Lux::ZERO, Kelvin::STC).unwrap();
        assert_eq!(isc, Amps::ZERO);
        // Above 0 V the dark diode still conducts: a small reverse current.
        let dark = m
            .current_at(Volts::new(1.0), Lux::ZERO, Kelvin::STC)
            .unwrap();
        assert!(dark.value() < 0.0 && dark.value() > -1e-9, "{dark:?}");
    }

    /// The exact dark short-circuit current is zero, not the residue of
    /// a bisection (it was −3.76e-37 A), for every preset at every
    /// placement temperature. A current-steered tracker compares its
    /// operating current against a fraction of it.
    #[test]
    fn dark_short_circuit_current_is_exactly_zero() {
        for cell in [
            crate::presets::sanyo_am1815(),
            crate::presets::schott_asi_1116929(),
            crate::presets::crystalline_outdoor(),
        ] {
            for celsius in [25.0, 30.0, 35.0] {
                let t = Kelvin::from(eh_units::Celsius::new(celsius));
                let isc = cell.model().short_circuit_current(Lux::ZERO, t).unwrap();
                // Bits, so that −0 A would fail too.
                assert_eq!(isc.value().to_bits(), 0, "{} at {celsius} °C", cell.name());
            }
        }
    }

    #[test]
    fn negative_inputs_are_rejected() {
        let m = am1815_like();
        assert!(m
            .current_at(Volts::new(-0.1), Lux::new(100.0), Kelvin::STC)
            .is_err());
        assert!(m
            .current_at(Volts::new(1.0), Lux::new(-5.0), Kelvin::STC)
            .is_err());
        assert!(m.open_circuit_voltage(Lux::new(-1.0), Kelvin::STC).is_err());
    }

    #[test]
    fn warmer_cell_has_lower_voc() {
        let m = am1815_like();
        let cold = m
            .open_circuit_voltage(Lux::new(1000.0), Kelvin::new(283.15))
            .unwrap();
        let hot = m
            .open_circuit_voltage(Lux::new(1000.0), Kelvin::new(323.15))
            .unwrap();
        assert!(
            hot < cold,
            "Voc must fall with temperature: hot={hot}, cold={cold}"
        );
    }

    #[test]
    fn saturation_current_grows_with_temperature() {
        let m = am1815_like();
        let i_cold = m.saturation_current(Kelvin::new(288.15));
        let i_hot = m.saturation_current(Kelvin::new(308.15));
        assert!(i_hot.value() > i_cold.value() * 2.0);
    }

    #[test]
    fn photo_shunt_scales_inversely() {
        let m = am1815_like();
        let r200 = m.shunt_resistance(Lux::new(200.0));
        let r400 = m.shunt_resistance(Lux::new(400.0));
        assert!((r200.value() / r400.value() - 2.0).abs() < 1e-9);
        // Dark cap.
        assert!(m.shunt_resistance(Lux::ZERO).value() >= 1e9);
    }
}
