//! Temperature-coefficient extraction.
//!
//! §IV-A notes the bench could not exceed 5000 lux "without causing
//! excessive heating of the PV cell" — temperature is the other axis
//! (besides illuminance) along which the operating point moves. These
//! helpers extract the thermal coefficients a designer quotes:
//! `dVoc/dT` (the a-Si datasheet class is −0.2…−0.4 %/K) and the drift
//! of the MPP voltage, which bounds the error of any fixed-reference
//! technique over an operating temperature range.

use eh_units::{Celsius, Error, Lux, Ratio};

use crate::cell::PvCell;

/// `dVoc/dT` in volts per kelvin at the given operating point,
/// estimated by a symmetric finite difference of ±5 K.
///
/// # Errors
///
/// Propagates solver errors.
///
/// ```
/// use eh_pv::{presets, thermal};
/// use eh_units::Lux;
///
/// let c = thermal::voc_temperature_coefficient(&presets::sanyo_am1815(), Lux::new(1000.0))?;
/// // a-Si stacks lose tens of millivolts per kelvin (8 junctions in series).
/// assert!(c < 0.0 && c > -0.05);
/// # Ok::<(), eh_units::Error>(())
/// ```
pub fn voc_temperature_coefficient(cell: &PvCell, lux: Lux) -> Result<f64, Error> {
    let base = cell.temperature();
    let dt = 5.0;
    let hot = cell.clone().with_temperature(base + dt);
    let cold = cell.clone().with_temperature(base - dt);
    let v_hot = hot.open_circuit_voltage(lux)?;
    let v_cold = cold.open_circuit_voltage(lux)?;
    Ok((v_hot - v_cold).value() / (2.0 * dt))
}

/// `dVmpp/dT` in volts per kelvin (same finite difference).
///
/// # Errors
///
/// Propagates solver errors.
pub fn vmpp_temperature_coefficient(cell: &PvCell, lux: Lux) -> Result<f64, Error> {
    let base = cell.temperature();
    let dt = 5.0;
    let hot = cell.clone().with_temperature(base + dt);
    let cold = cell.clone().with_temperature(base - dt);
    let v_hot = hot.mpp(lux)?.voltage;
    let v_cold = cold.mpp(lux)?.voltage;
    Ok((v_hot - v_cold).value() / (2.0 * dt))
}

/// The worst-case harvest efficiency of a *fixed* reference voltage
/// (tuned at `tune_at`) across an operating temperature span, versus
/// perfect tracking — the error budget a fixed-voltage design must carry
/// and the FOCV technique does not.
///
/// # Errors
///
/// Propagates solver errors; rejects an empty temperature list.
pub fn fixed_reference_worst_capture(
    cell: &PvCell,
    lux: Lux,
    tune_at: Celsius,
    span: &[Celsius],
) -> Result<Ratio, Error> {
    if span.is_empty() {
        return Err(Error::InvalidParameter {
            name: "span",
            value: 0.0,
        });
    }
    let reference = cell.clone().with_temperature(tune_at).mpp(lux)?.voltage;
    let mut worst: f64 = 1.0;
    for &t in span {
        let at_t = cell.clone().with_temperature(t);
        let mpp = at_t.mpp(lux)?;
        if mpp.power.value() <= 0.0 {
            continue;
        }
        let p = at_t.power_at(reference.min(mpp.open_circuit_voltage), lux)?;
        worst = worst.min(p.value() / mpp.power.value());
    }
    Ok(Ratio::new(worst.clamp(0.0, 1.0)))
}

/// Convenience: the same worst-case capture for the FOCV technique
/// (which re-measures `Voc` at temperature, so only the `k` mismatch
/// remains).
///
/// # Errors
///
/// Propagates solver errors; rejects an empty temperature list.
pub fn focv_worst_capture(
    cell: &PvCell,
    lux: Lux,
    k: f64,
    span: &[Celsius],
) -> Result<Ratio, Error> {
    if span.is_empty() {
        return Err(Error::InvalidParameter {
            name: "span",
            value: 0.0,
        });
    }
    let mut worst: f64 = 1.0;
    for &t in span {
        let at_t = cell.clone().with_temperature(t);
        let mpp = at_t.mpp(lux)?;
        if mpp.power.value() <= 0.0 {
            continue;
        }
        let voc = at_t.open_circuit_voltage(lux)?;
        let p = at_t.power_at((voc * k).min(voc), lux)?;
        worst = worst.min(p.value() / mpp.power.value());
    }
    Ok(Ratio::new(worst.clamp(0.0, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn voc_coefficient_is_negative_mv_per_k() {
        let cell = presets::sanyo_am1815();
        let c = voc_temperature_coefficient(&cell, Lux::new(1000.0)).unwrap();
        // 8-junction a-Si stack: roughly −10…−30 mV/K overall.
        assert!(c < -0.005 && c > -0.04, "dVoc/dT = {c} V/K");
    }

    #[test]
    fn vmpp_moves_less_than_voc() {
        // The photo-shunt pins the MPP, so its drift is smaller than the
        // open-circuit drift — the property Ablation 6 shows.
        let cell = presets::sanyo_am1815();
        let dvoc = voc_temperature_coefficient(&cell, Lux::new(1000.0)).unwrap();
        let dvmpp = vmpp_temperature_coefficient(&cell, Lux::new(1000.0)).unwrap();
        assert!(dvmpp.abs() < dvoc.abs(), "dVmpp {dvmpp} vs dVoc {dvoc}");
    }

    #[test]
    fn both_techniques_capture_well_on_amorphous() {
        let cell = presets::sanyo_am1815();
        let span: Vec<Celsius> = [0.0, 15.0, 25.0, 40.0, 60.0].map(Celsius::new).to_vec();
        let fixed =
            fixed_reference_worst_capture(&cell, Lux::new(1000.0), Celsius::new(25.0), &span)
                .unwrap();
        let focv = focv_worst_capture(&cell, Lux::new(1000.0), 0.596, &span).unwrap();
        assert!(fixed.value() > 0.9, "fixed worst capture {fixed}");
        assert!(focv.value() > 0.9, "FOCV worst capture {focv}");
    }

    #[test]
    fn crystalline_fixed_reference_suffers_more() {
        // c-Si Vmpp is diode-dominated, so it walks with temperature and
        // a fixed reference tuned at 25 °C pays for it at the extremes.
        let cell = presets::crystalline_outdoor();
        let span: Vec<Celsius> = [0.0, 25.0, 60.0].map(Celsius::new).to_vec();
        let fixed =
            fixed_reference_worst_capture(&cell, Lux::new(50_000.0), Celsius::new(25.0), &span)
                .unwrap();
        let focv = focv_worst_capture(&cell, Lux::new(50_000.0), 0.78, &span).unwrap();
        assert!(
            focv.value() > fixed.value(),
            "FOCV {focv} must beat fixed {fixed} on c-Si over temperature"
        );
    }

    #[test]
    fn empty_span_rejected() {
        let cell = presets::sanyo_am1815();
        assert!(
            fixed_reference_worst_capture(&cell, Lux::new(1000.0), Celsius::new(25.0), &[])
                .is_err()
        );
        assert!(focv_worst_capture(&cell, Lux::new(1000.0), 0.6, &[]).is_err());
    }
}
