//! The PV operating-point cache: a memoized interpolation table over a
//! cell's I-V surface that takes the implicit single-diode solver off
//! the simulation hot path.
//!
//! Every closed-loop step of the node and system engines resolves the
//! same smooth surface `I(V, lux)` at one `(model, temperature)` — and
//! the exact solver pays a Newton iteration (a few `exp_m1`s and
//! divisions) for each query. [`CachedPvSurface`] replaces those solves
//! with table lookups, and builds its table with the same exact solver,
//! [`SingleDiodeModel::current_at`]:
//!
//! * a 1-D table `Voc(lux)`, linear in log-lux (the Voc law *is*
//!   logarithmic, so the interpolant is nearly exact);
//! * a 1-D table `Isc(lux)`, linear in lux within each log-spaced cell
//!   (`Isc` is near-linear in illuminance);
//! * a 2-D shape table `s(lux, u) = I(u·Voc(lux), lux) / Isc(lux)` over
//!   a log-lux × normalized-voltage grid, interpolated bilinearly;
//! * a 1-D table `Vmpp(lux)`, linear in log-lux, derived from the shape
//!   rows at no extra solver cost: each row's sampled power `u·s(u)` is
//!   maximised over the voltage grid and the argmax refined by the
//!   vertex of the parabola through it and its two neighbours.
//!
//! Normalizing the voltage axis by `Voc(lux)` and the current by
//! `Isc(lux)` keeps the interpolated quantity slowly varying in both
//! directions, which is what buys the documented error bound with a
//! sub-megabyte table.
//!
//! # Error bound and domain
//!
//! Inside the cached domain — `lux ∈ [0.05, 2·10⁵]` and
//! `0 ≤ V ≤ Voc(lux)` — the cache guarantees
//! `|I_cached − I_exact| / Isc_exact(lux) <` [`CachedPvSurface::REL_CURRENT_ERROR_BOUND`]
//! and `|Voc_cached − Voc_exact| <` [`CachedPvSurface::VOC_ERROR_BOUND_VOLTS`];
//! both are validated against the exact solver by the property tests in
//! `crates/pv/tests/cache_surface.rs` and measurable at runtime via
//! [`CachedPvSurface::validate_against_exact`]. The cached MPP voltage
//! keeps `|Vmpp_cached − Vmpp_exact| <`
//! [`CachedPvSurface::VMPP_ERROR_BOUND_VOLTS`], and operating there
//! loses less than [`CachedPvSurface::MPP_REL_POWER_LOSS_BOUND`] of the
//! exact maximum power (the power curve is flat at its peak, so the
//! loss is quadratic in the voltage error); both are checked against
//! the exact golden-section solve by the same suite and measurable via
//! [`CachedPvSurface::validate_mpp_against_exact`]. Outside the domain
//! (dark, dimmer than 0.05 lux, brighter than 200 klux, or beyond Voc)
//! every query **falls back to the exact solver**, so out-of-domain
//! answers are bit-identical to the uncached path.

use eh_units::{Amps, Error, Kelvin, Lux, Volts, Watts};

use crate::model::SingleDiodeModel;
use crate::mpp::{solve_mpp, MppPoint};

/// Log-spaced illuminance grid lines.
const N_LUX: usize = 121;
/// Uniform normalized-voltage grid lines per illuminance.
const N_V: usize = 513;
/// Lower edge of the cached illuminance domain, in lux.
const LUX_MIN: f64 = 0.05;
/// Upper edge of the cached illuminance domain, in lux.
const LUX_MAX: f64 = 2.0e5;

#[inline]
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// A connect step's fused operating point, from
/// [`CachedPvSurface::connect_point_lane`] or, solved exactly,
/// [`SingleDiodeModel::connect_point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectPoint {
    /// Open-circuit voltage at the queried illuminance.
    pub voc: Volts,
    /// The regulated operating voltage, `min(target, voc)`.
    pub v_op: Volts,
    /// Terminal current at `v_op`, or `None` when `v_op` is not
    /// positive (nothing to harvest).
    pub current: Option<Amps>,
}

/// A per-run memo of the last resolved log-lux cell, for
/// [`CachedPvSurface::connect_point_lane`] and
/// [`CachedPvSurface::open_circuit_voltage_lane`] — the node
/// simulation's per-step surface reads.
///
/// The `ln` in [`CachedPvSurface`]'s cell index is the dearest op of
/// an uncursored surface read (DESIGN.md §14), yet
/// consecutive steps of one node almost always land in the *same*
/// log-lux cell (cells are ~13 % wide in lux; illuminance moves slowly
/// on the simulation grid). A cursor remembers the cell's `[lo, hi)`
/// edge illuminances; while the query stays inside, the fractional
/// position is recovered from `ln(l/lo)` via a short, cheap `atanh`
/// series instead of a full `ln`, and only a cell crossing pays the
/// real thing. Divergence vs the scalar path is bounded by the series
/// truncation — |Δtx| < 3e-11, orders of magnitude inside the cache's
/// own documented 1e-3 interpolation bound.
///
/// One cursor per (run, surface): pointing a cursor at a different
/// [`CachedPvSurface`] without resetting it reads the wrong cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct LuxCursor {
    /// `(j, lux_grid[j], lux_grid[j + 1], 1/(hi − lo))` of the last
    /// resolved cell — the inverse width feeds the linear-in-lux `Isc`
    /// interpolation without a per-step division.
    cell: Option<(usize, f64, f64, f64)>,
}

impl LuxCursor {
    /// A cursor with no remembered cell (first query pays the full
    /// `ln`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The normalized MPP voltage `u* = Vmpp/Voc` of one shape row: the
/// grid argmax of the sampled power `u·s(u)`, refined by the vertex of
/// the parabola through it and its two neighbours. The row's ends carry
/// zero power (`u = 0`, and `s = 0` at open circuit), so the argmax is
/// interior and the vertex stays within half a grid step of it.
fn mpp_fraction(row: &[f64]) -> f64 {
    let h = 1.0 / (N_V - 1) as f64;
    let p = |k: usize| k as f64 * h * row[k];
    let k = (1..N_V - 1)
        .max_by(|&a, &b| p(a).total_cmp(&p(b)))
        .expect("the voltage grid has interior points");
    let (left, mid, right) = (p(k - 1), p(k), p(k + 1));
    let curvature = left - 2.0 * mid + right;
    let offset = if curvature < 0.0 {
        0.5 * (left - right) / curvature
    } else {
        0.0
    };
    (k as f64 + offset) * h
}

/// A memoized bilinear interpolation table over one cell's I-V surface,
/// built per `(model, temperature)` and exposing the same
/// `current_at` / `open_circuit_voltage` / `short_circuit_current` /
/// `power_at` surface as the exact model (see the module docs for the
/// error bound and the exact-fallback domain).
///
/// ```
/// use eh_pv::{presets, CachedPvSurface};
/// use eh_units::{Lux, Volts};
///
/// let cell = presets::sanyo_am1815();
/// let surface = CachedPvSurface::build(cell.model(), cell.temperature())?;
/// let lux = Lux::new(1000.0);
/// let exact = cell.current_at(Volts::new(3.0), lux)?;
/// let cached = surface.current_at(Volts::new(3.0), lux)?;
/// let isc = cell.short_circuit_current(lux)?;
/// assert!((cached - exact).value().abs() / isc.value()
///     < CachedPvSurface::REL_CURRENT_ERROR_BOUND);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Clone)]
pub struct CachedPvSurface {
    model: SingleDiodeModel,
    temperature: Kelvin,
    ln_min: f64,
    ln_step: f64,
    /// `1/ln_step`, so the cursor fast path multiplies instead of
    /// divides when recovering the fractional cell position.
    inv_ln_step: f64,
    lux_grid: Vec<f64>,
    voc: Vec<f64>,
    isc: Vec<f64>,
    /// Row-major `N_LUX × N_V`: `I(u_k·Voc_j, lux_j) / Isc_j`.
    shape: Vec<f64>,
    /// `Vmpp(lux_j)` in volts, from each shape row's power peak.
    vmpp: Vec<f64>,
}

impl std::fmt::Debug for CachedPvSurface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedPvSurface")
            .field("model", &self.model.name())
            .field("temperature", &self.temperature)
            .field("lux_grid", &N_LUX)
            .field("voltage_grid", &N_V)
            .finish()
    }
}

impl CachedPvSurface {
    /// Documented bound on `|I_cached − I_exact| / Isc_exact(lux)` inside
    /// the cached domain (validated by the cache property tests).
    pub const REL_CURRENT_ERROR_BOUND: f64 = 1e-3;

    /// Documented bound on `|Voc_cached − Voc_exact|` in volts inside the
    /// cached illuminance domain.
    pub const VOC_ERROR_BOUND_VOLTS: f64 = 1e-3;

    /// Documented bound on `|Vmpp_cached − Vmpp_exact|` in volts inside
    /// the cached illuminance domain, against the exact golden-section
    /// solve (validated by the cache property tests over the presets at
    /// the fleet's placement temperatures).
    pub const VMPP_ERROR_BOUND_VOLTS: f64 = 3e-3;

    /// Documented bound on the relative power lost by operating at the
    /// cached MPP voltage, `1 − P_exact(Vmpp_cached) / P_exact(Vmpp_exact)`,
    /// inside the cached illuminance domain.
    pub const MPP_REL_POWER_LOSS_BOUND: f64 = 2e-6;

    /// Builds the table for one `(model, temperature)` pair.
    ///
    /// Construction performs `N_LUX` exact Voc and Isc solves plus
    /// `N_LUX × N_V` exact current solves, each a call to
    /// [`SingleDiodeModel::current_at`] — about 15 ms on one core of a
    /// 2-core x86-64 host, amortized over the millions of lookups of a
    /// closed-loop run. The `Vmpp` table is read off the shape rows
    /// without further solves.
    ///
    /// # Errors
    ///
    /// Propagates exact-solver failures, and reports
    /// [`Error::SolveFailed`] if a row's Voc or Isc is not positive.
    pub fn build(model: &SingleDiodeModel, temperature: Kelvin) -> Result<Self, Error> {
        let ln_min = LUX_MIN.ln();
        let ln_step = (LUX_MAX / LUX_MIN).ln() / (N_LUX - 1) as f64;
        let mut lux_grid = Vec::with_capacity(N_LUX);
        let mut voc = Vec::with_capacity(N_LUX);
        let mut isc = Vec::with_capacity(N_LUX);
        let mut vmpp = Vec::with_capacity(N_LUX);
        let mut shape = Vec::with_capacity(N_LUX * N_V);
        for j in 0..N_LUX {
            let lux = (ln_min + ln_step * j as f64).exp();
            let l = Lux::new(lux);
            let voc_j = model.open_circuit_voltage(l, temperature)?.value();
            let isc_j = model.short_circuit_current(l, temperature)?.value();
            if !(voc_j > 0.0 && isc_j > 0.0) {
                return Err(Error::SolveFailed {
                    what: "cache grid node",
                });
            }
            for k in 0..N_V {
                let v = Volts::new(k as f64 / (N_V - 1) as f64 * voc_j);
                shape.push(model.current_at(v, l, temperature)?.value() / isc_j);
            }
            lux_grid.push(lux);
            voc.push(voc_j);
            isc.push(isc_j);
            vmpp.push(mpp_fraction(&shape[j * N_V..]) * voc_j);
        }
        Ok(Self {
            model: model.clone(),
            temperature,
            ln_min,
            ln_step,
            inv_ln_step: 1.0 / ln_step,
            lux_grid,
            voc,
            isc,
            shape,
            vmpp,
        })
    }

    /// Every stored table value's bits, field by field.
    #[cfg(test)]
    pub(crate) fn table_bits(&self) -> Vec<u64> {
        let grids = [
            &self.lux_grid,
            &self.voc,
            &self.isc,
            &self.shape,
            &self.vmpp,
        ];
        [self.ln_min, self.ln_step, self.inv_ln_step]
            .into_iter()
            .chain(grids.into_iter().flatten().copied())
            .map(f64::to_bits)
            .collect()
    }

    /// The underlying electrical model.
    pub fn model(&self) -> &SingleDiodeModel {
        &self.model
    }

    /// The operating temperature the table was built for.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// The illuminance domain `[min, max]` covered by the table; queries
    /// outside it fall back to the exact solver.
    pub fn lux_domain() -> (Lux, Lux) {
        (Lux::new(LUX_MIN), Lux::new(LUX_MAX))
    }

    /// `(illuminance grid lines, voltage grid lines)` of the table.
    pub fn grid_size() -> (usize, usize) {
        (N_LUX, N_V)
    }

    /// Whether an illuminance lies inside the cached domain.
    fn in_domain(l: f64) -> bool {
        (LUX_MIN..=LUX_MAX).contains(&l)
    }

    /// Cell index and fractional position along the log-lux axis.
    #[inline]
    fn lux_cell(&self, l: f64) -> (usize, f64) {
        let fx = ((l.ln() - self.ln_min) / self.ln_step).clamp(0.0, (N_LUX - 1) as f64);
        let j = (fx as usize).min(N_LUX - 2);
        (j, fx - j as f64)
    }

    #[inline]
    fn voc_interp(&self, j: usize, tx: f64) -> f64 {
        lerp(self.voc[j], self.voc[j + 1], tx)
    }

    /// `Isc` interpolated linearly **in lux** (not log-lux) within the
    /// cell, which is exact for the dominant `Iph ∝ lux` term.
    #[inline]
    fn isc_interp(&self, j: usize, l: f64) -> f64 {
        let w = (l - self.lux_grid[j]) / (self.lux_grid[j + 1] - self.lux_grid[j]);
        lerp(self.isc[j], self.isc[j + 1], w)
    }

    fn validate_inputs(v: Volts, lux: Lux) -> Result<(), Error> {
        if !v.is_finite() || v.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "terminal voltage",
                value: v.value(),
            });
        }
        Self::validate_lux(lux)
    }

    fn validate_lux(lux: Lux) -> Result<(), Error> {
        if !lux.is_finite() || lux.value() < 0.0 {
            return Err(Error::InvalidParameter {
                name: "illuminance",
                value: lux.value(),
            });
        }
        Ok(())
    }

    /// Terminal current at terminal voltage `v` — the cached counterpart
    /// of [`SingleDiodeModel::current_at`], accurate to the documented
    /// bound inside the domain and exact (solver fallback) outside it.
    ///
    /// # Errors
    ///
    /// Rejects negative `v` and negative/non-finite `lux` with the same
    /// [`Error::InvalidParameter`] as the exact solver, and propagates
    /// fallback solver errors.
    pub fn current_at(&self, v: Volts, lux: Lux) -> Result<Amps, Error> {
        Self::validate_inputs(v, lux)?;
        let l = lux.value();
        if !Self::in_domain(l) {
            return self.model.current_at(v, lux, self.temperature);
        }
        let (j, tx) = self.lux_cell(l);
        let voc_q = self.voc_interp(j, tx);
        if v.value() > voc_q {
            // Beyond open circuit the current turns over exponentially —
            // off the harvesting path, so solve it exactly.
            return self.model.current_at(v, lux, self.temperature);
        }
        Ok(Amps::new(self.shape_current(v.value(), j, tx, voc_q, l)))
    }

    /// The bilinear shape-table read behind the in-domain current of
    /// [`CachedPvSurface::current_at`] and [`CachedPvSurface::mpp`].
    /// Requires `0 ≤ vv ≤ voc_q` and an in-domain `l` with `(j, tx)`
    /// from [`CachedPvSurface::lux_cell`].
    #[inline]
    fn shape_current(&self, vv: f64, j: usize, tx: f64, voc_q: f64, l: f64) -> f64 {
        self.shape_factor(vv, j, tx, voc_q) * self.isc_interp(j, l)
    }

    /// The normalised shape factor `I(v, lux)/Isc(lux)` of
    /// [`CachedPvSurface::shape_current`], split out so the cursored
    /// lane path can pair it with a division-free `Isc` interpolation.
    #[inline]
    fn shape_factor(&self, vv: f64, j: usize, tx: f64, voc_q: f64) -> f64 {
        let u = (vv / voc_q).clamp(0.0, 1.0);
        let fu = u * (N_V - 1) as f64;
        let k = (fu as usize).min(N_V - 2);
        let tu = fu - k as f64;
        let row0 = &self.shape[j * N_V..(j + 1) * N_V];
        let row1 = &self.shape[(j + 1) * N_V..(j + 2) * N_V];
        let s0 = lerp(row0[k], row0[k + 1], tu);
        let s1 = lerp(row1[k], row1[k + 1], tu);
        lerp(s0, s1, tx)
    }

    /// Cell index and fractional position along the log-lux axis,
    /// through a [`LuxCursor`]: a cursor hit recovers `tx` from
    /// `ln(l / lo)` with a 4-term `atanh` series (the cell is at most
    /// `ln_step ≈ 0.127` wide, so the series argument is ≤ 0.064 and
    /// the truncation error < 3e-11 in `tx`); a miss pays the full
    /// [`CachedPvSurface::lux_cell`] and re-arms the cursor. Requires an
    /// in-domain `l`.
    ///
    /// Returns `(j, tx, lo, 1/(hi − lo))` so callers can reuse the
    /// cell's lower edge and inverse width for division-free `Isc`
    /// interpolation. Always inlined: it sits on the node simulation's
    /// per-step path, and left to the heuristics it stays out of line.
    #[inline(always)]
    fn lux_cell_cursor(&self, cursor: &mut LuxCursor, l: f64) -> (usize, f64, f64, f64) {
        if let Some((j, lo, hi, inv_w)) = cursor.cell {
            if l >= lo && l < hi {
                // `(l/lo − 1)/(l/lo + 1) = (l − lo)/(l + lo)`: one
                // division instead of two for the series argument.
                let z = (l - lo) / (l + lo);
                let z2 = z * z;
                // 2·atanh(z) = ln(l/lo), truncated after z⁷.
                let ln_x = 2.0 * z * (1.0 + z2 * (1.0 / 3.0 + z2 * (0.2 + z2 / 7.0)));
                return (j, (ln_x * self.inv_ln_step).clamp(0.0, 1.0), lo, inv_w);
            }
        }
        let (j, tx) = self.lux_cell(l);
        let (lo, hi) = (self.lux_grid[j], self.lux_grid[j + 1]);
        let inv_w = 1.0 / (hi - lo);
        cursor.cell = Some((j, lo, hi, inv_w));
        (j, tx, lo, inv_w)
    }

    /// [`CachedPvSurface::open_circuit_voltage`] through a per-run
    /// [`LuxCursor`]. Out-of-domain and invalid illuminances invalidate
    /// the cursor and delegate to the scalar path, so those answers stay
    /// bit-identical to the uncached fallback; in-domain answers diverge
    /// from the scalar table read only by the cursor's < 3e-11 `tx`
    /// bound.
    ///
    /// # Errors
    ///
    /// Rejects negative/non-finite illuminance; propagates fallback
    /// solver errors outside the domain.
    #[inline(always)]
    pub fn open_circuit_voltage_lane(
        &self,
        cursor: &mut LuxCursor,
        lux: Lux,
    ) -> Result<Volts, Error> {
        let l = lux.value();
        if !(l.is_finite() && l >= 0.0 && Self::in_domain(l)) {
            cursor.cell = None;
            return self.open_circuit_voltage(lux);
        }
        let (j, tx, _, _) = self.lux_cell_cursor(cursor, l);
        Ok(Volts::new(self.voc_interp(j, tx)))
    }

    /// One connect step's operating point through a per-run
    /// [`LuxCursor`] — the node simulation's per-step surface read:
    /// `Voc(lux)`, the regulated voltage `min(target, Voc)`, and the
    /// current drawn there, from one log-lux cell lookup. `current` is
    /// `None` when the regulated voltage is not positive — a dark
    /// module or a zero hold-cap target — exactly the case where the
    /// engine skips the harvest.
    ///
    /// In the domain, the answers diverge from the two-call sequence
    /// [`CachedPvSurface::open_circuit_voltage`] then
    /// [`CachedPvSurface::current_at`] only by the cursor's < 3e-11
    /// bound on the fractional cell position. Any out-of-domain or
    /// invalid query resets the cursor and is solved exactly by
    /// [`SingleDiodeModel::connect_point`], which calls the same
    /// exact-solver methods in the same order as that sequence, so
    /// those answers are bit-identical to it.
    ///
    /// `target` must be finite; the engine only issues connect commands
    /// with positive finite targets.
    ///
    /// # Errors
    ///
    /// Rejects negative/non-finite illuminance; propagates fallback
    /// solver errors outside the domain.
    #[inline(always)]
    pub fn connect_point_lane(
        &self,
        cursor: &mut LuxCursor,
        target: Volts,
        lux: Lux,
    ) -> Result<ConnectPoint, Error> {
        let l = lux.value();
        if !(l.is_finite() && l >= 0.0 && Self::in_domain(l)) {
            cursor.cell = None;
            Self::validate_lux(lux)?;
            return self.model.connect_point(target, lux, self.temperature);
        }
        let (j, tx, lo, inv_w) = self.lux_cell_cursor(cursor, l);
        let voc_q = self.voc_interp(j, tx);
        let voc = Volts::new(voc_q);
        let v_op = target.min(voc);
        let current = if v_op.value() > 0.0 {
            // Same interpolation as `isc_interp` with the cell width's
            // reciprocal taken from the cursor: one fewer division.
            let isc = lerp(self.isc[j], self.isc[j + 1], (l - lo) * inv_w);
            Some(Amps::new(
                self.shape_factor(v_op.value(), j, tx, voc_q) * isc,
            ))
        } else {
            None
        };
        Ok(ConnectPoint { voc, v_op, current })
    }

    /// Output power at terminal voltage `v`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`CachedPvSurface::current_at`].
    pub fn power_at(&self, v: Volts, lux: Lux) -> Result<Watts, Error> {
        Ok(v * self.current_at(v, lux)?)
    }

    /// Open-circuit voltage from the 1-D `Voc(lux)` table (linear in
    /// log-lux; the exact law is logarithmic, so the interpolant is
    /// within [`CachedPvSurface::VOC_ERROR_BOUND_VOLTS`]).
    ///
    /// # Errors
    ///
    /// Rejects negative/non-finite illuminance; propagates fallback
    /// solver errors outside the domain.
    #[inline]
    pub fn open_circuit_voltage(&self, lux: Lux) -> Result<Volts, Error> {
        Self::validate_lux(lux)?;
        let l = lux.value();
        if !Self::in_domain(l) {
            return self.model.open_circuit_voltage(lux, self.temperature);
        }
        let (j, tx) = self.lux_cell(l);
        Ok(Volts::new(self.voc_interp(j, tx)))
    }

    /// Short-circuit current from the 1-D `Isc(lux)` table.
    ///
    /// # Errors
    ///
    /// Rejects negative/non-finite illuminance; propagates fallback
    /// solver errors outside the domain.
    pub fn short_circuit_current(&self, lux: Lux) -> Result<Amps, Error> {
        Self::validate_lux(lux)?;
        let l = lux.value();
        if !Self::in_domain(l) {
            return self.model.short_circuit_current(lux, self.temperature);
        }
        let (j, _) = self.lux_cell(l);
        Ok(Amps::new(self.isc_interp(j, l)))
    }

    /// The maximum power point from the 1-D `Vmpp(lux)` table (linear in
    /// log-lux, within [`CachedPvSurface::VMPP_ERROR_BOUND_VOLTS`]), with
    /// the current read off the shape table and `Voc` off its own table.
    /// Outside the cached domain — including dark and invalid
    /// illuminances — it is the exact golden-section solve, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates exact-solver errors outside the domain.
    pub fn mpp(&self, lux: Lux) -> Result<MppPoint, Error> {
        let l = lux.value();
        if !Self::in_domain(l) {
            return solve_mpp(&self.model, lux, self.temperature);
        }
        let (j, tx) = self.lux_cell(l);
        let voc_q = self.voc_interp(j, tx);
        // Both rows' Vmpp sit below their Voc, so the interpolated
        // voltage sits below the interpolated Voc: a shape-table read.
        let v = lerp(self.vmpp[j], self.vmpp[j + 1], tx);
        let voltage = Volts::new(v);
        let current = Amps::new(self.shape_current(v, j, tx, voc_q, l));
        Ok(MppPoint {
            voltage,
            current,
            power: voltage * current,
            open_circuit_voltage: Volts::new(voc_q),
        })
    }

    /// Probes the table against the exact solver on a grid of
    /// `lux_probes × v_probes` off-node points (log-spaced illuminances,
    /// uniform normalized voltages) and returns the worst observed
    /// `|I_cached − I_exact| / Isc_exact` — the measured counterpart of
    /// [`CachedPvSurface::REL_CURRENT_ERROR_BOUND`].
    ///
    /// # Errors
    ///
    /// Rejects zero probe counts as [`Error::InvalidParameter`];
    /// propagates exact-solver errors.
    pub fn validate_against_exact(&self, lux_probes: usize, v_probes: usize) -> Result<f64, Error> {
        if lux_probes == 0 || v_probes == 0 {
            return Err(Error::InvalidParameter {
                name: "probes",
                value: 0.0,
            });
        }
        let mut worst = 0.0_f64;
        for a in 0..lux_probes {
            // Offset by half a probe step so probes land between nodes.
            let frac = (a as f64 + 0.5) / lux_probes as f64;
            let lux = Lux::new((self.ln_min + (LUX_MAX / LUX_MIN).ln() * frac).exp());
            let isc_exact = self
                .model
                .short_circuit_current(lux, self.temperature)?
                .value();
            if isc_exact <= 0.0 {
                continue;
            }
            let voc_q = self.open_circuit_voltage(lux)?.value();
            for bi in 0..v_probes {
                let u = (bi as f64 + 0.5) / v_probes as f64;
                let v = Volts::new(u * voc_q);
                let cached = self.current_at(v, lux)?.value();
                let exact = self.model.current_at(v, lux, self.temperature)?.value();
                worst = worst.max((cached - exact).abs() / isc_exact);
            }
        }
        Ok(worst)
    }

    /// Probes the `Vmpp` table against the exact golden-section solve at
    /// `lux_probes` log-spaced illuminances across the cached domain and
    /// returns `(worst |ΔVmpp| in volts, worst relative power loss)` —
    /// the measured counterparts of
    /// [`CachedPvSurface::VMPP_ERROR_BOUND_VOLTS`] and
    /// [`CachedPvSurface::MPP_REL_POWER_LOSS_BOUND`]. The loss is
    /// `1 − P(Vmpp_cached) / P(Vmpp_exact)` with both powers from the
    /// exact model.
    ///
    /// # Errors
    ///
    /// Rejects a zero probe count as [`Error::InvalidParameter`];
    /// propagates exact-solver errors.
    pub fn validate_mpp_against_exact(&self, lux_probes: usize) -> Result<(f64, f64), Error> {
        if lux_probes == 0 {
            return Err(Error::InvalidParameter {
                name: "probes",
                value: 0.0,
            });
        }
        let (mut worst_dv, mut worst_loss) = (0.0_f64, 0.0_f64);
        for a in 0..lux_probes {
            let frac = (a as f64 + 0.5) / lux_probes as f64;
            let lux = Lux::new((self.ln_min + (LUX_MAX / LUX_MIN).ln() * frac).exp());
            let exact = solve_mpp(&self.model, lux, self.temperature)?;
            let cached = self.mpp(lux)?.voltage;
            let p_cached = cached * self.model.current_at(cached, lux, self.temperature)?;
            worst_dv = worst_dv.max((cached - exact.voltage).value().abs());
            worst_loss = worst_loss.max(1.0 - p_cached / exact.power);
        }
        Ok((worst_dv, worst_loss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::bisection_current;
    use crate::{presets, PvCell};
    use eh_units::Celsius;

    /// Both presets at the placement temperatures, as the fleet builds
    /// them.
    fn placement_tables() -> impl Iterator<Item = (PvCell, f64, CachedPvSurface)> {
        [presets::sanyo_am1815(), presets::crystalline_outdoor()]
            .into_iter()
            .flat_map(|cell| {
                [25.0, 30.0, 35.0].map(|celsius| {
                    let t = Celsius::new(celsius).to_kelvin();
                    let table = CachedPvSurface::build(cell.model(), t).unwrap();
                    (cell.clone(), celsius, table)
                })
            })
    }

    #[test]
    fn build_matches_its_recorded_digest() {
        // FNV-1a over the tables' bytes, recorded from the build that
        // solves every node with `SingleDiodeModel::current_at`.
        const DIGEST: u64 = 0x74a6_3209_b526_eb10;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for (_, _, table) in placement_tables() {
            for byte in table.table_bits().iter().flat_map(|x| x.to_le_bytes()) {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, DIGEST, "the table bits moved");
    }

    /// Every shape node is the bisection oracle's `I/Isc` to 1e-13.
    #[test]
    fn shape_nodes_match_the_bisection_oracle() {
        for (cell, celsius, table) in placement_tables() {
            let t = table.temperature;
            for (j, &lux) in table.lux_grid.iter().enumerate() {
                let l = Lux::new(lux);
                let isc = bisection_current(cell.model(), Volts::ZERO, l, t)
                    .unwrap()
                    .value();
                let row = &table.shape[j * N_V..(j + 1) * N_V];
                for (k, &s) in row.iter().enumerate() {
                    let v = Volts::new(k as f64 / (N_V - 1) as f64 * table.voc[j]);
                    let oracle = bisection_current(cell.model(), v, l, t).unwrap().value() / isc;
                    assert!(
                        (s - oracle).abs() <= 1e-13,
                        "{} at {celsius} °C, node ({j}, {k}): {s} against {oracle}",
                        cell.name()
                    );
                }
            }
        }
    }
}
