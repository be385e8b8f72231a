//! Fractional-open-circuit-voltage (FOCV) analysis.
//!
//! Eq. (1) of the paper: `Vmpp ≈ k · Voc`, with `k` typically between
//! 0.6 and 0.8 for non-crystalline cells and only weakly correlated with
//! light intensity. This module quantifies `k` for a modelled cell and
//! maps operating-voltage errors to harvest-efficiency loss — the step
//! the paper uses in §II-B to argue that a >60 s hold period costs less
//! than 1 % efficiency.

use eh_units::{Error, Lux, Ratio, Volts};

use crate::cell::PvCell;

/// `k = Vmpp/Voc` evaluated at each given illuminance.
///
/// # Errors
///
/// Propagates solver errors from the cell model.
///
/// ```
/// use eh_pv::{focv, presets};
/// use eh_units::Lux;
///
/// let cell = presets::sanyo_am1815();
/// let profile = focv::factor_profile(&cell, [200.0, 1000.0, 5000.0].map(Lux::new))?;
/// for (_, k) in &profile {
///     assert!(k.value() > 0.5 && k.value() < 0.8);
/// }
/// # Ok::<(), eh_units::Error>(())
/// ```
pub fn factor_profile(
    cell: &PvCell,
    illuminances: impl IntoIterator<Item = Lux>,
) -> Result<Vec<(Lux, Ratio)>, Error> {
    illuminances
        .into_iter()
        .map(|lux| Ok((lux, cell.mpp(lux)?.focv_factor())))
        .collect()
}

/// The mean `k` over a set of illuminances — the value a designer would
/// trim the paper's R2 potentiometer to.
///
/// # Errors
///
/// Propagates solver errors; returns [`Error::InvalidParameter`] for an
/// empty illuminance set.
pub fn recommended_factor(
    cell: &PvCell,
    illuminances: impl IntoIterator<Item = Lux>,
) -> Result<Ratio, Error> {
    let profile = factor_profile(cell, illuminances)?;
    if profile.is_empty() {
        return Err(Error::InvalidParameter {
            name: "illuminances",
            value: 0.0,
        });
    }
    let sum: f64 = profile.iter().map(|(_, k)| k.value()).sum();
    Ok(Ratio::new(sum / profile.len() as f64))
}

/// Harvest efficiency of operating the cell at voltage `v` instead of its
/// true MPP: `P(v) / Pmpp ∈ [0, 1]`.
///
/// # Errors
///
/// Propagates solver errors.
pub fn efficiency_at_voltage(cell: &PvCell, v: Volts, lux: Lux) -> Result<Ratio, Error> {
    let mpp = cell.mpp(lux)?;
    if mpp.power.value() <= 0.0 {
        return Ok(Ratio::ZERO);
    }
    let p = cell.power_at(v.max(Volts::ZERO), lux)?;
    Ok(Ratio::new((p / mpp.power).clamp(0.0, 1.0)))
}

/// Efficiency loss caused by operating `dv` volts away from the MPP
/// (the worse of the two directions).
///
/// This is the mapping the paper applies in §II-B: a 7.7 mV (desk) /
/// 14.7 mV (semi-mobile) MPP-voltage estimation error "equates to an
/// efficiency loss of less than 1 %".
///
/// # Errors
///
/// Propagates solver errors.
pub fn efficiency_loss_for_voltage_error(
    cell: &PvCell,
    lux: Lux,
    dv: Volts,
) -> Result<Ratio, Error> {
    let mpp = cell.mpp(lux)?;
    if mpp.power.value() <= 0.0 {
        return Ok(Ratio::ZERO);
    }
    let lo = (mpp.voltage - dv.abs()).max(Volts::ZERO);
    let hi = mpp.voltage + dv.abs();
    let p_lo = cell.power_at(lo, lux)?;
    let p_hi = cell.power_at(hi.min(mpp.open_circuit_voltage), lux)?;
    let worst = p_lo.min(p_hi);
    Ok(Ratio::new((1.0 - (worst / mpp.power)).clamp(0.0, 1.0)))
}

/// Converts an error in the *open-circuit voltage* estimate to the error
/// in the *MPP voltage* estimate via Eq. (1): `ΔVmpp = k · ΔVoc`.
///
/// The paper applies exactly this scaling: 12.7 mV Voc error → ≈7.7 mV
/// MPP error (k ≈ 0.6).
pub fn mpp_error_from_voc_error(voc_error: Volts, k: Ratio) -> Volts {
    voc_error * k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn factor_profile_is_weakly_intensity_dependent() {
        let cell = presets::sanyo_am1815();
        let profile =
            factor_profile(&cell, [200.0, 500.0, 1000.0, 2000.0, 5000.0].map(Lux::new)).unwrap();
        let ks: Vec<f64> = profile.iter().map(|(_, k)| k.value()).collect();
        let spread = ks.iter().cloned().fold(f64::MIN, f64::max)
            - ks.iter().cloned().fold(f64::MAX, f64::min);
        // §II-A: "weak correlation between k and light intensity" — the
        // spread over a 25x intensity range stays small.
        assert!(spread < 0.1, "k spread = {spread}");
    }

    #[test]
    fn recommended_factor_is_mean() {
        let cell = presets::sanyo_am1815();
        let k = recommended_factor(&cell, [200.0, 1000.0].map(Lux::new)).unwrap();
        let p = factor_profile(&cell, [200.0, 1000.0].map(Lux::new)).unwrap();
        let mean = (p[0].1.value() + p[1].1.value()) / 2.0;
        assert!((k.value() - mean).abs() < 1e-12);
    }

    #[test]
    fn recommended_factor_rejects_empty() {
        let cell = presets::sanyo_am1815();
        assert!(recommended_factor(&cell, std::iter::empty()).is_err());
    }

    #[test]
    fn efficiency_is_one_at_mpp_and_lower_elsewhere() {
        let cell = presets::sanyo_am1815();
        let lux = Lux::new(1000.0);
        let mpp = cell.mpp(lux).unwrap();
        let at_mpp = efficiency_at_voltage(&cell, mpp.voltage, lux).unwrap();
        assert!(at_mpp.value() > 0.999);
        let off = efficiency_at_voltage(&cell, mpp.voltage * 0.7, lux).unwrap();
        assert!(off < at_mpp);
        let dark = efficiency_at_voltage(&cell, mpp.voltage, Lux::ZERO).unwrap();
        assert_eq!(dark, Ratio::ZERO);
    }

    #[test]
    fn small_voltage_error_costs_under_one_percent() {
        // §II-B: the worst measured MPP-voltage error (14.7 mV) maps to
        // an efficiency loss below 1 %.
        let cell = presets::sanyo_am1815();
        for lux in [200.0, 1000.0] {
            let loss =
                efficiency_loss_for_voltage_error(&cell, Lux::new(lux), Volts::from_milli(14.7))
                    .unwrap();
            assert!(
                loss.as_percent() < 1.0,
                "loss at {lux} lx = {loss} for 14.7 mV error"
            );
        }
    }

    #[test]
    fn large_voltage_error_costs_more() {
        let cell = presets::sanyo_am1815();
        let small =
            efficiency_loss_for_voltage_error(&cell, Lux::new(1000.0), Volts::from_milli(10.0))
                .unwrap();
        let large =
            efficiency_loss_for_voltage_error(&cell, Lux::new(1000.0), Volts::new(1.0)).unwrap();
        assert!(large.value() > small.value() * 10.0);
    }

    #[test]
    fn voc_to_mpp_error_scaling() {
        let dv = mpp_error_from_voc_error(Volts::from_milli(12.7), Ratio::new(0.6));
        assert!((dv.as_milli() - 7.62).abs() < 0.1);
    }
}
