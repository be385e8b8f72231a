//! A PV cell bound to an operating temperature.

use std::fmt;
use std::sync::{Arc, OnceLock};

use eh_units::{Amps, Error, Kelvin, Lux, Volts, Watts};

use crate::cache::CachedPvSurface;
use crate::curve::IvCurve;
use crate::model::SingleDiodeModel;
use crate::mpp::{solve_mpp, MppPoint};
use crate::registry;

/// A photovoltaic cell: a [`SingleDiodeModel`] at a specific operating
/// temperature, exposing the quantities the MPPT system interacts with.
///
/// ```
/// use eh_pv::presets;
/// use eh_units::{Celsius, Lux, Volts};
///
/// let cell = presets::sanyo_am1815().with_temperature(Celsius::new(21.0));
/// let i = cell.current_at(Volts::new(3.0), Lux::new(200.0))?;
/// assert!(i.as_micro() > 30.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
///
/// # Operating-point cache
///
/// With [`PvCell::with_cache`] the hot-path queries — `current_at`,
/// `power_at`, `open_circuit_voltage`, `short_circuit_current` and
/// `mpp` — are answered from a lazily built [`CachedPvSurface`] instead
/// of the implicit solver, accurate to
/// [`CachedPvSurface::REL_CURRENT_ERROR_BOUND`] (and, for `mpp`,
/// [`CachedPvSurface::VMPP_ERROR_BOUND_VOLTS`]) and falling back to the
/// exact solver outside the cached domain. The table comes from the
/// process-wide [`registry`](crate::registry), which builds it once per
/// `(model, temperature)` per process; a cell takes it on first use and
/// **shares it across clones**, so sweep jobs that clone a warmed cell
/// pay no lookup either.
/// `voltage_at_current` and `iv_curve` always use the exact solver (the
/// cache stores no inverse).
pub struct PvCell {
    model: SingleDiodeModel,
    temperature: Kelvin,
    cache_enabled: bool,
    surface: OnceLock<Arc<CachedPvSurface>>,
}

impl Clone for PvCell {
    fn clone(&self) -> Self {
        let surface = OnceLock::new();
        if let Some(s) = self.surface.get() {
            // Share the already-built table; clones must not rebuild.
            let _ = surface.set(Arc::clone(s));
        }
        Self {
            model: self.model.clone(),
            temperature: self.temperature,
            cache_enabled: self.cache_enabled,
            surface,
        }
    }
}

impl PartialEq for PvCell {
    fn eq(&self, other: &Self) -> bool {
        // The memoized surface is derived state; equality is defined by
        // the model, temperature, and caching policy alone.
        self.model == other.model
            && self.temperature == other.temperature
            && self.cache_enabled == other.cache_enabled
    }
}

impl fmt::Debug for PvCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PvCell")
            .field("model", &self.model)
            .field("temperature", &self.temperature)
            .field("cache_enabled", &self.cache_enabled)
            .field("cache_built", &self.surface.get().is_some())
            .finish()
    }
}

impl PvCell {
    /// Creates a cell at the standard 25 °C reference temperature.
    pub fn new(model: SingleDiodeModel) -> Self {
        Self {
            model,
            temperature: Kelvin::STC,
            cache_enabled: false,
            surface: OnceLock::new(),
        }
    }

    /// Returns a copy of this cell at a different operating temperature.
    ///
    /// Any memoized surface is dropped — the cache is per
    /// `(model, temperature)` — and taken again lazily if caching is
    /// enabled.
    #[must_use]
    pub fn with_temperature(mut self, t: impl Into<Kelvin>) -> Self {
        self.temperature = t.into();
        self.surface = OnceLock::new();
        self
    }

    /// Enables or disables the operating-point cache for the hot-path
    /// queries (see the type-level docs for semantics and error bound).
    #[must_use]
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Whether hot-path queries are answered from the cache.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Enables the cache and takes the surface eagerly, returning the
    /// warmed cell: the one-call handoff for fan-out code that clones
    /// one cell into many jobs, so that no job waits on the registry.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures from
    /// [`CachedPvSurface::build`].
    pub fn warmed(self) -> Result<Self, Error> {
        let cell = self.with_cache(true);
        cell.cached()?;
        Ok(cell)
    }

    /// The memoized I-V surface for this `(model, temperature)`, taken
    /// on first call from the process-wide [`registry`](crate::registry),
    /// which builds it if no cell of the process has (about 15 ms of
    /// solves; see [`CachedPvSurface::build`]). Useful to warm the table
    /// before cloning the cell into sweep jobs, or to probe the cache
    /// directly regardless of [`PvCell::cache_enabled`].
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures from
    /// [`CachedPvSurface::build`].
    pub fn cached(&self) -> Result<&CachedPvSurface, Error> {
        if let Some(surface) = self.surface.get() {
            return Ok(surface);
        }
        let shared = registry::surface(&self.model, self.temperature)?;
        Ok(self.surface.get_or_init(|| shared))
    }

    /// The underlying electrical model.
    pub fn model(&self) -> &SingleDiodeModel {
        &self.model
    }

    /// The cell's display name.
    pub fn name(&self) -> &str {
        self.model.name()
    }

    /// The operating temperature.
    pub fn temperature(&self) -> Kelvin {
        self.temperature
    }

    /// Terminal current at terminal voltage `v` under `lux` illuminance.
    ///
    /// # Errors
    ///
    /// Returns an error for negative `v` or `lux`, or if the implicit
    /// solve fails.
    pub fn current_at(&self, v: Volts, lux: Lux) -> Result<Amps, Error> {
        if self.cache_enabled {
            self.cached()?.current_at(v, lux)
        } else {
            self.model.current_at(v, lux, self.temperature)
        }
    }

    /// Output power at terminal voltage `v`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`PvCell::current_at`].
    pub fn power_at(&self, v: Volts, lux: Lux) -> Result<Watts, Error> {
        Ok(v * self.current_at(v, lux)?)
    }

    /// Terminal voltage at which the cell carries current `i` (inverse
    /// of [`PvCell::current_at`]; negative result means the cell cannot
    /// support the current). Always solved exactly.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn voltage_at_current(&self, i: Amps, lux: Lux) -> Result<Volts, Error> {
        self.model.voltage_at_current(i, lux, self.temperature)
    }

    /// Open-circuit voltage (the quantity the paper's PULSE samples).
    ///
    /// # Errors
    ///
    /// Returns an error for negative illuminance.
    pub fn open_circuit_voltage(&self, lux: Lux) -> Result<Volts, Error> {
        if self.cache_enabled {
            self.cached()?.open_circuit_voltage(lux)
        } else {
            self.model.open_circuit_voltage(lux, self.temperature)
        }
    }

    /// Short-circuit current.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn short_circuit_current(&self, lux: Lux) -> Result<Amps, Error> {
        if self.cache_enabled {
            self.cached()?.short_circuit_current(lux)
        } else {
            self.model.short_circuit_current(lux, self.temperature)
        }
    }

    /// The maximum power point at the given illuminance. With the cache
    /// enabled it is read from the surface's `Vmpp` table
    /// ([`CachedPvSurface::mpp`]); with the cache off, or outside the
    /// cached domain, it is the exact golden-section solve.
    ///
    /// # Errors
    ///
    /// Propagates solver errors and table-construction failures.
    pub fn mpp(&self, lux: Lux) -> Result<MppPoint, Error> {
        if self.cache_enabled {
            self.cached()?.mpp(lux)
        } else {
            solve_mpp(&self.model, lux, self.temperature)
        }
    }

    /// Samples the I-V curve with `points` equally spaced voltage steps
    /// from 0 to `Voc` (this is what Fig. 1 of the paper plots).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `points < 2`, otherwise
    /// propagates solver errors.
    pub fn iv_curve(&self, lux: Lux, points: usize) -> Result<IvCurve, Error> {
        IvCurve::sample(self, lux, points)
    }
}

impl From<SingleDiodeModel> for PvCell {
    fn from(model: SingleDiodeModel) -> Self {
        Self::new(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use eh_units::Celsius;

    #[test]
    fn temperature_is_configurable() {
        let cell = presets::sanyo_am1815();
        assert_eq!(cell.temperature(), Kelvin::STC);
        let warm = cell.clone().with_temperature(Celsius::new(40.0));
        assert!((warm.temperature().value() - 313.15).abs() < 1e-9);
        // Warmer cell, lower Voc.
        let voc_cold = cell.open_circuit_voltage(Lux::new(1000.0)).unwrap();
        let voc_warm = warm.open_circuit_voltage(Lux::new(1000.0)).unwrap();
        assert!(voc_warm < voc_cold);
    }

    #[test]
    fn power_is_v_times_i() {
        let cell = presets::sanyo_am1815();
        let v = Volts::new(2.5);
        let lux = Lux::new(700.0);
        let p = cell.power_at(v, lux).unwrap();
        let i = cell.current_at(v, lux).unwrap();
        assert!((p.value() - v.value() * i.value()).abs() < 1e-15);
    }

    #[test]
    fn from_model_conversion() {
        let cell: PvCell = presets::sanyo_am1815().model().clone().into();
        assert_eq!(cell.name(), "SANYO Amorton AM-1815");
    }

    #[test]
    fn paper_mpp_operating_point_at_200_lux() {
        // §IV-A: "the AM-1815 cell's MPP current and voltage of 42 µA and
        // 3.0 V" (under 200 lux).
        let cell = presets::sanyo_am1815();
        let mpp = cell.mpp(Lux::new(200.0)).unwrap();
        assert!(
            (mpp.current.as_micro() - 42.0).abs() < 2.0,
            "Impp = {}",
            mpp.current
        );
        assert!(
            (mpp.voltage.value() - 3.0).abs() < 0.2,
            "Vmpp = {}",
            mpp.voltage
        );
    }

    #[test]
    fn cached_cell_dispatches_to_surface() {
        let exact = presets::sanyo_am1815();
        let cached = exact.clone().with_cache(true);
        assert!(cached.cache_enabled());
        let lux = Lux::new(430.0);
        let v = Volts::new(2.8);
        // Dispatch must hit the surface: bit-identical to a direct probe.
        let via_cell = cached.current_at(v, lux).unwrap();
        let via_surface = cached.cached().unwrap().current_at(v, lux).unwrap();
        assert_eq!(via_cell, via_surface);
        // …and close to the exact solver.
        let truth = exact.current_at(v, lux).unwrap();
        let isc = exact.short_circuit_current(lux).unwrap();
        assert!((via_cell - truth).value().abs() / isc.value() < 1e-3);
    }

    #[test]
    fn mpp_dispatches_on_the_cache_policy() {
        let exact = presets::sanyo_am1815();
        let cached = exact.clone().with_cache(true);
        let lux = Lux::new(430.0);
        // Cache off: the exact golden-section solve.
        let solved = solve_mpp(exact.model(), lux, exact.temperature()).unwrap();
        assert_eq!(exact.mpp(lux).unwrap(), solved);
        // Cache on: the surface's table read, within its bound.
        let via_cell = cached.mpp(lux).unwrap();
        assert_eq!(via_cell, cached.cached().unwrap().mpp(lux).unwrap());
        let dv = (via_cell.voltage - solved.voltage).value().abs();
        assert!(
            dv < CachedPvSurface::VMPP_ERROR_BOUND_VOLTS,
            "dV = {dv:.2e}"
        );
    }

    #[test]
    fn warmed_builds_once_and_clones_share() {
        let warm = presets::sanyo_am1815().warmed().unwrap();
        assert!(warm.cache_enabled());
        let a = warm.cached().unwrap() as *const CachedPvSurface;
        let b = warm.clone().cached().unwrap() as *const CachedPvSurface;
        assert_eq!(a, b, "warmed clone rebuilt the table");
    }

    #[test]
    fn clones_share_the_built_surface() {
        let cell = presets::sanyo_am1815().with_cache(true);
        let surface = cell.cached().unwrap() as *const CachedPvSurface;
        let clone = cell.clone();
        let shared = clone.cached().unwrap() as *const CachedPvSurface;
        assert_eq!(surface, shared, "clone rebuilt the table");
    }

    #[test]
    fn temperature_change_invalidates_surface() {
        let cell = presets::sanyo_am1815().with_cache(true);
        let before = cell.cached().unwrap() as *const CachedPvSurface;
        let warm = cell.clone().with_temperature(Celsius::new(40.0));
        let after = warm.cached().unwrap() as *const CachedPvSurface;
        assert_ne!(before, after, "stale surface survived a temperature change");
        assert!((warm.cached().unwrap().temperature().value() - 313.15).abs() < 1e-9);
    }

    #[test]
    fn equality_ignores_memoized_surface() {
        let a = presets::sanyo_am1815().with_cache(true);
        let b = presets::sanyo_am1815().with_cache(true);
        a.cached().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, presets::sanyo_am1815());
    }
}
