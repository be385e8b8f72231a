//! Sampled I-V / P-V curves (the data behind Fig. 1 of the paper).

use eh_units::{Amps, Error, Lux, Volts, Watts};

use crate::cell::PvCell;

/// One sampled point of an I-V curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Terminal voltage.
    pub voltage: Volts,
    /// Terminal current.
    pub current: Amps,
    /// Output power (`voltage · current`).
    pub power: Watts,
}

/// A sampled I-V curve of a PV cell at one illuminance, with helpers to
/// interpolate and locate the sampled maximum-power point.
///
/// ```
/// use eh_pv::presets;
/// use eh_units::Lux;
///
/// let cell = presets::schott_asi_1116929();
/// let curve = cell.iv_curve(Lux::new(1000.0), 200)?;
/// let mpp = curve.max_power_point();
/// assert!(mpp.power.value() > 0.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IvCurve {
    illuminance: Lux,
    points: Vec<CurvePoint>,
}

impl IvCurve {
    /// Samples `points` equally spaced voltages in `[0, Voc]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `points < 2`, otherwise
    /// propagates solver errors.
    pub fn sample(cell: &PvCell, lux: Lux, points: usize) -> Result<Self, Error> {
        if points < 2 {
            return Err(Error::InvalidParameter {
                name: "points",
                value: points as f64,
            });
        }
        let voc = cell.open_circuit_voltage(lux)?;
        let mut out = Vec::with_capacity(points);
        for n in 0..points {
            let v = voc * (n as f64 / (points - 1) as f64);
            let i = cell.current_at(v, lux)?;
            out.push(CurvePoint {
                voltage: v,
                current: i,
                power: v * i,
            });
        }
        Ok(Self {
            illuminance: lux,
            points: out,
        })
    }

    /// The illuminance this curve was sampled at.
    pub fn illuminance(&self) -> Lux {
        self.illuminance
    }

    /// The sampled points, in ascending voltage order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Iterates over the sampled points.
    pub fn iter(&self) -> std::slice::Iter<'_, CurvePoint> {
        self.points.iter()
    }

    /// Number of sampled points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points (never true for constructed curves).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sampled point with the highest power.
    ///
    /// # Panics
    ///
    /// Never panics for curves produced by [`IvCurve::sample`], which
    /// guarantees at least two points.
    pub fn max_power_point(&self) -> CurvePoint {
        *self
            .points
            .iter()
            .max_by(|a, b| a.power.value().total_cmp(&b.power.value()))
            .expect("sampled curve is non-empty")
    }

    /// The open-circuit voltage (last sampled point's voltage).
    pub fn open_circuit_voltage(&self) -> Volts {
        self.points.last().map(|p| p.voltage).unwrap_or(Volts::ZERO)
    }

    /// The short-circuit current (first sampled point's current).
    pub fn short_circuit_current(&self) -> Amps {
        self.points.first().map(|p| p.current).unwrap_or(Amps::ZERO)
    }

    /// Linearly interpolates the current at an arbitrary voltage within
    /// the sampled range. Returns `None` outside `[0, Voc]`.
    pub fn current_at(&self, v: Volts) -> Option<Amps> {
        let vv = v.value();
        if vv < 0.0 || vv > self.open_circuit_voltage().value() {
            return None;
        }
        let idx = self
            .points
            .partition_point(|p| p.voltage.value() <= vv)
            .saturating_sub(1);
        if idx + 1 >= self.points.len() {
            return Some(self.points[idx].current);
        }
        let (a, b) = (&self.points[idx], &self.points[idx + 1]);
        let span = (b.voltage - a.voltage).value();
        if span <= 0.0 {
            return Some(a.current);
        }
        let f = (vv - a.voltage.value()) / span;
        Some(a.current + (b.current - a.current) * f)
    }

    /// Linearly interpolates the power at an arbitrary voltage within the
    /// sampled range. Returns `None` outside `[0, Voc]`.
    pub fn power_at(&self, v: Volts) -> Option<Watts> {
        self.current_at(v).map(|i| v * i)
    }
}

impl<'a> IntoIterator for &'a IvCurve {
    type Item = &'a CurvePoint;
    type IntoIter = std::slice::Iter<'a, CurvePoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn curve() -> IvCurve {
        presets::sanyo_am1815()
            .iv_curve(Lux::new(1000.0), 101)
            .unwrap()
    }

    #[test]
    fn sample_count_and_ordering() {
        let c = curve();
        assert_eq!(c.len(), 101);
        assert!(!c.is_empty());
        for w in c.points().windows(2) {
            assert!(w[0].voltage < w[1].voltage);
            assert!(w[0].current > w[1].current);
        }
    }

    #[test]
    fn endpoints_are_isc_and_voc() {
        let c = curve();
        let cell = presets::sanyo_am1815();
        let isc = cell.short_circuit_current(Lux::new(1000.0)).unwrap();
        let voc = cell.open_circuit_voltage(Lux::new(1000.0)).unwrap();
        assert!((c.short_circuit_current().value() - isc.value()).abs() < 1e-12);
        assert!((c.open_circuit_voltage().value() - voc.value()).abs() < 1e-9);
        // Power at both endpoints is ~zero; MPP is interior.
        let mpp = c.max_power_point();
        assert!(mpp.voltage > Volts::ZERO);
        assert!(mpp.voltage < c.open_circuit_voltage());
    }

    #[test]
    fn interpolation_matches_samples() {
        let c = curve();
        let p = c.points()[50];
        let i = c.current_at(p.voltage).unwrap();
        assert!((i.value() - p.current.value()).abs() < 1e-12);
        // Midway between two samples lies between their currents.
        let a = c.points()[10];
        let b = c.points()[11];
        let mid = Volts::new(0.5 * (a.voltage.value() + b.voltage.value()));
        let im = c.current_at(mid).unwrap();
        assert!(im < a.current && im > b.current);
    }

    #[test]
    fn interpolation_rejects_out_of_range() {
        let c = curve();
        assert!(c.current_at(Volts::new(-0.1)).is_none());
        assert!(c
            .current_at(c.open_circuit_voltage() + Volts::new(0.1))
            .is_none());
        assert!(c.power_at(Volts::new(1.0)).is_some());
    }

    #[test]
    fn too_few_points_rejected() {
        let cell = presets::sanyo_am1815();
        assert!(matches!(
            cell.iv_curve(Lux::new(1000.0), 1),
            Err(Error::InvalidParameter { name: "points", .. })
        ));
    }

    #[test]
    fn curve_iterates() {
        let c = curve();
        assert_eq!(c.iter().count(), 101);
        assert_eq!((&c).into_iter().count(), 101);
    }

    #[test]
    fn sampled_mpp_close_to_solved_mpp() {
        let cell = presets::sanyo_am1815();
        let c = cell.iv_curve(Lux::new(1000.0), 500).unwrap();
        let sampled = c.max_power_point();
        let solved = cell.mpp(Lux::new(1000.0)).unwrap();
        assert!((sampled.power.value() - solved.power.value()).abs() / solved.power.value() < 1e-3);
    }
}
