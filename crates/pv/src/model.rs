//! Single-diode equivalent-circuit model with an illumination-proportional
//! shunt ("photo-shunt"), the variant that fits amorphous-silicon cells.

use eh_units::{thermal_voltage, Amps, Error, Kelvin, Lux, Ohms, Volts, K_OVER_Q};

use crate::cache::ConnectPoint;

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
/// # Ok::<(), eh_units::Error>(())
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
    /// Returns [`Error::InvalidParameter`] if any parameter is
    /// non-positive or non-finite where a positive value is required.
    pub fn build(self) -> Result<SingleDiodeModel, Error> {
        fn positive(name: &'static str, v: f64) -> Result<f64, Error> {
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(Error::InvalidParameter { name, value: v })
            }
        }
        fn non_negative(name: &'static str, v: f64) -> Result<f64, Error> {
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err(Error::InvalidParameter { name, value: v })
            }
        }
        if self.junctions == 0 {
            return Err(Error::InvalidParameter {
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
    /// single-diode equation by Newton's method on `I`. The residual
    /// `Iph − I0·expm1((V + I·Rs)/b) − (V + I·Rs)/Rsh − I` is decreasing
    /// and concave in `I`, so Newton started right of the root falls
    /// monotonically onto it, with no bracket to keep.
    ///
    /// The start is `min(Iph, (W_s − V)/Rs)`, where `W_s` bounds the
    /// root's junction voltage `W = V + I·Rs` from above. At
    /// `W_max = b·ln(1 + Iph/I0)` the diode alone sinks all of `Iph`.
    /// Beyond it, the diode's current in excess of `Iph`,
    /// `(Iph + I0)·expm1((W − W_max)/b)`, must come in through the
    /// series resistor as reverse current, at most `(V − W_max)/Rs`, so
    /// `W_s = W_max + b·ln(1 + max(V − W_max, 0)/(Rs·(Iph + I0)))`. A
    /// start at `Iph` alone would cost about one step per thermal slope
    /// that `V + Iph·Rs` lies beyond the root: over 200 at 10⁶ lux. A
    /// cell without series resistance has its current in closed form. A
    /// dark cell at 0 V carries exactly 0 A, as a dark cell's
    /// [`SingleDiodeModel::open_circuit_voltage`] is exactly 0 V: the
    /// start is then the root itself.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for negative `v` and
    /// [`Error::SolveFailed`] if the iteration does not settle.
    pub fn current_at(&self, v: Volts, lux: Lux, t: Kelvin) -> Result<Amps, Error> {
        if !v.is_finite() || v.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "terminal voltage",
                value: v.value(),
            });
        }
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "illuminance",
                value: lux.value(),
            });
        }
        let iph = self.photocurrent(lux, t).value();
        let vv = v.value();
        let i0 = self.saturation_current(t).value();
        let b = self.thermal_slope(t).value();
        let rs = self.series_resistance.value();
        let rsh = self.shunt_resistance(lux).value();
        if rs == 0.0 {
            return Ok(Amps::new(iph - i0 * exp_m1_clamped(vv / b) - vv / rsh));
        }
        let w_max = b * (iph / i0).ln_1p();
        let w_s = w_max + b * ((vv - w_max).max(0.0) / (rs * (iph + i0))).ln_1p();
        let start = iph.min((w_s - vv) / rs);
        // Once `I·Rs` falls below the rounding of `V`, the residual
        // moves with `−I` alone while its slope keeps the diode's and
        // shunt's share, and the steps shrink geometrically without
        // improving anything: the stop lies where they pass below the
        // rounding of `Iph`.
        let i = newton_from_right(start, f64::EPSILON * iph, "current", |i| {
            let w = vv + i * rs;
            let e = exp_m1_clamped(w / b);
            let conductance = i0 / b * (e + 1.0) + 1.0 / rsh;
            (iph - i0 * e - w / rsh - i, -rs * conductance - 1.0)
        })?;
        Ok(Amps::new(i))
    }

    /// Terminal voltage at which the cell carries current `i` — the
    /// inverse of [`SingleDiodeModel::current_at`], solved by Newton's
    /// method on the junction voltage `W = V + I·Rs`. The residual
    /// `I0·expm1(W/b) + W/Rsh − (Iph − I)` is increasing and convex in
    /// `W`, so Newton started right of the root falls monotonically onto
    /// it, with no bracket to keep. A positive `Iph − I` is reached
    /// by the diode alone at `b·ln(1 + (Iph − I)/I0)` and by the shunt
    /// alone at `(Iph − I)·Rsh`, and the start is the nearer of the two;
    /// otherwise the root is at or below `W = 0`, where it starts.
    ///
    /// For currents above the short-circuit current the cell cannot
    /// reach a non-negative voltage; the returned value is negative
    /// (its junction voltage clamped at −10 V), which array code
    /// interprets as "bypass".
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for negative illuminance or a
    /// non-finite current, and [`Error::SolveFailed`] if the
    /// iteration does not settle.
    pub fn voltage_at_current(&self, i: Amps, lux: Lux, t: Kelvin) -> Result<Volts, Error> {
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "illuminance",
                value: lux.value(),
            });
        }
        if !i.is_finite() {
            return Err(Error::InvalidParameter {
                name: "current",
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
        let start = if target > 0.0 {
            (b * (target / i0).ln_1p()).min(target * rsh)
        } else {
            0.0
        };
        let w = newton_from_right(start, 0.0, "voltage", |w| {
            let e = exp_m1_clamped(w / b);
            (i0 * e + w / rsh - target, i0 / b * (e + 1.0) + 1.0 / rsh)
        })?;
        Ok(Volts::new(w.max(W_FLOOR) - i.value() * rs))
    }

    /// Open-circuit voltage at the given illuminance and temperature.
    ///
    /// Solves `Iph = I0·expm1(Voc/b) + Voc/Rsh` (at `I = 0` the series
    /// resistance drops out) by Newton's method. The residual
    /// `Iph − I0·expm1(V/b) − V/Rsh` is decreasing and concave in `V`,
    /// so Newton started right of the root falls monotonically onto it,
    /// with no bracket to keep. The start is the nearer of the voltages
    /// at which the diode alone, `b·ln(1 + Iph/I0)`, or the shunt alone,
    /// `Iph·Rsh`, would sink the photocurrent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for negative illuminance and
    /// [`Error::SolveFailed`] if the iteration does not settle. At
    /// zero illuminance the open-circuit voltage is zero.
    pub fn open_circuit_voltage(&self, lux: Lux, t: Kelvin) -> Result<Volts, Error> {
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "illuminance",
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

        let start = (b * (iph / i0).ln_1p()).min(iph * rsh);
        let voc = newton_from_right(start, 0.0, "voc", |v| {
            let e = exp_m1_clamped(v / b);
            (iph - i0 * e - v / rsh, -(i0 / b * (e + 1.0)) - 1.0 / rsh)
        })?;
        Ok(Volts::new(voc))
    }

    /// Short-circuit current.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from [`SingleDiodeModel::current_at`].
    pub fn short_circuit_current(&self, lux: Lux, t: Kelvin) -> Result<Amps, Error> {
        self.current_at(Volts::ZERO, lux, t)
    }

    /// One connect step's operating point, solved exactly: `Voc(lux)`,
    /// the regulated voltage `min(target, Voc)`, and the current drawn
    /// there, which is `None` when the regulated voltage is not
    /// positive. The exact counterpart of
    /// [`crate::CachedPvSurface::connect_point_lane`], which falls back
    /// to it outside its cached domain.
    ///
    /// # Errors
    ///
    /// Propagates solver errors from
    /// [`SingleDiodeModel::open_circuit_voltage`] and
    /// [`SingleDiodeModel::current_at`].
    pub fn connect_point(&self, target: Volts, lux: Lux, t: Kelvin) -> Result<ConnectPoint, Error> {
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

/// More Newton steps than any solve takes: over every preset from −20
/// to 85 °C, dark to 10⁶ lux and 0 V to 10⁵ V, none evaluates its
/// residual more than 12 times.
const NEWTON_STEP_CAP: usize = 64;

/// The root of a monotone residual by Newton's method, started at or
/// right of it. `residual(x)` returns the residual and its derivative.
///
/// Each caller's residual is either decreasing and concave or
/// increasing and convex, so its tangent at any point crosses zero
/// between that point and the root: from the root's right every step
/// moves left and none passes the root, and no bracket or bisection is
/// needed. (A start a rounding error left of the root stops at once,
/// as close to it as the start's own rounding.) The iteration stops at
/// the first step that moves left by no more than `floor`, which in
/// floating point is the root to the residual's rounding; a caller
/// whose residual stops resolving its unknown above some size passes
/// that size as `floor`.
///
/// # Errors
///
/// [`Error::SolveFailed`] for `what` if the iterates do not settle
/// within [`NEWTON_STEP_CAP`] steps or leave the finite numbers.
fn newton_from_right(
    start: f64,
    floor: f64,
    what: &'static str,
    residual: impl Fn(f64) -> (f64, f64),
) -> Result<f64, Error> {
    let mut x = start;
    for _ in 0..NEWTON_STEP_CAP {
        let (r, slope) = residual(x);
        let next = x - r / slope;
        if x - next <= floor && x.is_finite() {
            return Ok(next.min(x));
        }
        if next.is_nan() {
            break;
        }
        x = next;
    }
    Err(Error::SolveFailed { what })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use eh_units::Celsius;

    /// The bracketed bisection that `current_at` ran before the Newton
    /// iteration, copied verbatim (with `self` as `m`) as the test
    /// oracle: 100 halvings of a bracket on the current.
    pub(crate) fn bisection_current(
        m: &SingleDiodeModel,
        v: Volts,
        lux: Lux,
        t: Kelvin,
    ) -> Result<Amps, Error> {
        if !v.is_finite() || v.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "terminal voltage",
                value: v.value(),
            });
        }
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "illuminance",
                value: lux.value(),
            });
        }
        let iph = m.photocurrent(lux, t).value();
        let vv = v.value();
        if iph == 0.0 && vv == 0.0 {
            // A dark cell shorted carries exactly nothing: I = 0 solves
            // the equation, and bisection would stop short of it.
            return Ok(Amps::ZERO);
        }
        let i0 = m.saturation_current(t).value();
        let b = m.thermal_slope(t).value();
        let rs = m.series_resistance().value();
        let rsh = m.shunt_resistance(lux).value();

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
                return Err(Error::SolveFailed { what: "current" });
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

    /// The root of an increasing `f` on `[lo, hi]`, halved until the
    /// bracket's ends are adjacent doubles.
    fn bisect(mut lo: f64, mut hi: f64, f: impl Fn(f64) -> f64) -> f64 {
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                return mid;
            }
            if f(mid) > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    /// The swept conditions: every preset from −20 to 85 °C, in the dark
    /// and from 10⁻⁴ to 10⁶ lux in quarter decades.
    fn sweep() -> impl Iterator<Item = (crate::PvCell, Kelvin, Lux)> {
        let cells = [
            crate::presets::sanyo_am1815(),
            crate::presets::schott_asi_1116929(),
            crate::presets::crystalline_outdoor(),
        ];
        cells.into_iter().flat_map(|cell| {
            [-20.0, 0.0, 15.0, 25.0, 30.0, 35.0, 60.0, 85.0]
                .into_iter()
                .flat_map(move |celsius| {
                    let t = Celsius::new(celsius).to_kelvin();
                    let lit = (-16..=24).map(|q| Lux::new(10f64.powf(f64::from(q) / 4.0)));
                    std::iter::once(Lux::ZERO)
                        .chain(lit)
                        .map(move |lux| (t, lux))
                })
                .map(move |(t, lux)| (cell.clone(), t, lux))
        })
    }

    /// The Newton current stays within 1e-12 of `max(Iph, |I|)` of the
    /// bisection it replaced, from short circuit to 1.2·Voc and on to
    /// 10⁵ V of reverse current.
    #[test]
    fn current_matches_the_bisection_oracle() {
        for (cell, t, lux) in sweep() {
            let m = cell.model();
            let iph = m.photocurrent(lux, t).value();
            let voc = m.open_circuit_voltage(lux, t).unwrap().value();
            let near = (0..=96).map(|k| 1.2 * voc * f64::from(k) / 96.0);
            let far = [1.5, 3.0, 7.0, 12.0, 30.0, 100.0, 1e3, 1e4, 1e5];
            for v in near.chain(far) {
                let v = Volts::new(v);
                let newton = m
                    .current_at(v, lux, t)
                    .unwrap_or_else(|e| panic!("{} at {t:?}, {lux:?}, {v:?}: {e}", cell.name()))
                    .value();
                let oracle = bisection_current(m, v, lux, t).unwrap().value();
                assert!(
                    (newton - oracle).abs() <= 1e-12 * iph.max(oracle.abs()),
                    "{} at {t:?}, {lux:?}, {v:?}: {newton} against {oracle}",
                    cell.name()
                );
            }
        }
    }

    /// Voc and V(I) stay within 1e-12 V of a bisection on their own
    /// residuals.
    #[test]
    fn voltages_match_bisections_of_their_residuals() {
        for (cell, t, lux) in sweep() {
            let m = cell.model();
            let iph = m.photocurrent(lux, t).value();
            let i0 = m.saturation_current(t).value();
            let b = m.thermal_slope(t).value();
            let rs = m.series_resistance().value();
            let rsh = m.shunt_resistance(lux).value();
            let voc = m.open_circuit_voltage(lux, t).unwrap().value();
            if iph > 0.0 {
                let w_max = b * (iph / i0).ln_1p();
                let oracle = bisect(0.0, w_max, |v| i0 * exp_m1_clamped(v / b) + v / rsh - iph);
                assert!(
                    (voc - oracle).abs() <= 1e-12,
                    "{} Voc at {t:?}, {lux:?}: {voc} against {oracle}",
                    cell.name()
                );
            } else {
                assert_eq!(voc, 0.0);
            }
            let isc = m.short_circuit_current(lux, t).unwrap().value();
            let scale = isc.max(1e-9);
            for f in [-3.0, -0.5, 0.0, 0.25, 0.5, 0.9, 0.99, 1.0, 1.01, 1.5, 10.0] {
                let i = f * scale;
                let v = m.voltage_at_current(Amps::new(i), lux, t).unwrap().value();
                let target = iph - i;
                let g = |w: f64| i0 * exp_m1_clamped(w / b) + w / rsh - target;
                let hi = if target > 0.0 {
                    b * (target / i0).ln_1p()
                } else {
                    0.0
                };
                let w = if g(-10.0) > 0.0 {
                    -10.0
                } else {
                    bisect(-10.0, hi, g)
                };
                let oracle = w - i * rs;
                assert!(
                    (v - oracle).abs() <= 1e-12,
                    "{} V({i:e} A) at {t:?}, {lux:?}: {v} against {oracle}",
                    cell.name()
                );
            }
        }
    }

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
            Error::InvalidParameter {
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
            Error::InvalidParameter {
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
            Error::InvalidParameter {
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
            Error::InvalidParameter {
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
