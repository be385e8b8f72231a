//! Maximum power point solving.

use eh_units::{Amps, Error, Kelvin, Lux, Ratio, Volts, Watts};

use crate::model::SingleDiodeModel;

/// A solved maximum power point of a cell at one operating condition.
///
/// ```
/// use eh_pv::presets;
/// use eh_units::Lux;
///
/// let cell = presets::sanyo_am1815();
/// let mpp = cell.mpp(Lux::new(200.0))?;
/// // The paper quotes the AM-1815 MPP as 42 µA at 3.0 V at 200 lux.
/// assert!((mpp.current.as_micro() - 42.0).abs() < 2.0);
/// assert!((mpp.voltage.value() - 3.0).abs() < 0.2);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MppPoint {
    /// Terminal voltage at the MPP.
    pub voltage: Volts,
    /// Terminal current at the MPP.
    pub current: Amps,
    /// Output power at the MPP.
    pub power: Watts,
    /// Open-circuit voltage at the same operating condition.
    pub open_circuit_voltage: Volts,
}

impl MppPoint {
    /// The fractional-open-circuit-voltage factor `k = Vmpp / Voc`
    /// (Eq. (1) of the paper).
    pub fn focv_factor(&self) -> Ratio {
        if self.open_circuit_voltage.value() <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new(self.voltage / self.open_circuit_voltage)
    }

    /// The fill factor `FF = Pmpp / (Voc · Isc)` given the cell's
    /// short-circuit current — the standard squareness metric of an I-V
    /// curve. Heavily photo-shunted a-Si cells sit near 0.3–0.45;
    /// crystalline cells near 0.7–0.8.
    pub fn fill_factor(&self, isc: Amps) -> Ratio {
        let denom = self.open_circuit_voltage.value() * isc.value();
        if denom <= 0.0 {
            return Ratio::ZERO;
        }
        Ratio::new((self.power.value() / denom).clamp(0.0, 1.0))
    }
}

/// Solves the MPP of `model` at the given conditions by golden-section
/// search over `P(V) = V · I(V)` on `[0, Voc]`.
///
/// The single-diode power curve is unimodal on that interval, so
/// golden-section search converges to the global maximum.
///
/// # Errors
///
/// Propagates solver failures from the underlying model.
pub(crate) fn solve_mpp(model: &SingleDiodeModel, lux: Lux, t: Kelvin) -> Result<MppPoint, Error> {
    let voc = model.open_circuit_voltage(lux, t)?;
    if voc.value() <= 0.0 {
        return Ok(MppPoint {
            voltage: Volts::ZERO,
            current: Amps::ZERO,
            power: Watts::ZERO,
            open_circuit_voltage: Volts::ZERO,
        });
    }
    let power_at = |v: f64| -> Result<f64, Error> {
        let i = model.current_at(Volts::new(v), lux, t)?;
        Ok(v * i.value())
    };

    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (0.0, voc.value());
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = power_at(c)?;
    let mut fd = power_at(d)?;
    for _ in 0..90 {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = power_at(c)?;
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = power_at(d)?;
        }
    }
    let v = Volts::new(0.5 * (a + b));
    let i = model.current_at(v, lux, t)?;
    Ok(MppPoint {
        voltage: v,
        current: i,
        power: v * i,
        open_circuit_voltage: voc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn mpp_power_beats_neighbours() {
        let cell = presets::sanyo_am1815();
        let lux = Lux::new(1000.0);
        let mpp = cell.mpp(lux).unwrap();
        for dv in [-0.2, -0.05, 0.05, 0.2] {
            let v = Volts::new(mpp.voltage.value() + dv);
            let p = cell.power_at(v, lux).unwrap();
            assert!(
                p <= mpp.power,
                "P({v}) = {p} exceeds MPP power {}",
                mpp.power
            );
        }
    }

    #[test]
    fn mpp_within_open_circuit_bounds() {
        let cell = presets::sanyo_am1815();
        for lux in [200.0, 500.0, 1000.0, 5000.0, 50_000.0] {
            let mpp = cell.mpp(Lux::new(lux)).unwrap();
            assert!(mpp.voltage > Volts::ZERO);
            assert!(mpp.voltage < mpp.open_circuit_voltage);
            assert!(mpp.power.value() > 0.0);
        }
    }

    #[test]
    fn focv_factor_in_amorphous_band() {
        // The paper: k typically between 0.6 and 0.8 for non-crystalline
        // cells, and weakly dependent on intensity. Our fitted AM-1815
        // sits at the low end of that band.
        let cell = presets::sanyo_am1815();
        for lux in [200.0, 1000.0, 5000.0] {
            let k = cell.mpp(Lux::new(lux)).unwrap().focv_factor();
            assert!(
                (0.5..=0.8).contains(&k.value()),
                "k({lux} lx) = {k} outside a-Si band"
            );
        }
    }

    #[test]
    fn dark_mpp_is_zero() {
        let cell = presets::sanyo_am1815();
        let mpp = cell.mpp(Lux::ZERO).unwrap();
        assert_eq!(mpp.power, Watts::ZERO);
        assert_eq!(mpp.focv_factor(), Ratio::ZERO);
    }

    #[test]
    fn fill_factors_split_by_technology() {
        let asi = presets::sanyo_am1815();
        let csi = presets::crystalline_outdoor();
        let lux = Lux::new(1000.0);
        let ff_asi = asi
            .mpp(lux)
            .unwrap()
            .fill_factor(asi.short_circuit_current(lux).unwrap());
        let ff_csi = csi
            .mpp(lux)
            .unwrap()
            .fill_factor(csi.short_circuit_current(lux).unwrap());
        assert!((0.25..0.55).contains(&ff_asi.value()), "a-Si FF = {ff_asi}");
        assert!((0.6..0.9).contains(&ff_csi.value()), "c-Si FF = {ff_csi}");
        assert!(ff_csi.value() > ff_asi.value());
        // Degenerate input.
        assert_eq!(asi.mpp(lux).unwrap().fill_factor(Amps::ZERO), Ratio::ZERO);
    }

    #[test]
    fn mpp_power_grows_with_light() {
        let cell = presets::sanyo_am1815();
        let p200 = cell.mpp(Lux::new(200.0)).unwrap().power;
        let p1000 = cell.mpp(Lux::new(1000.0)).unwrap().power;
        let p5000 = cell.mpp(Lux::new(5000.0)).unwrap().power;
        assert!(p200 < p1000);
        assert!(p1000 < p5000);
        // Roughly linear scaling with illuminance (within 2x band).
        let ratio = p1000 / p200;
        assert!(ratio > 2.5 && ratio < 10.0, "ratio = {ratio}");
    }
}
