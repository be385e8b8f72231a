//! Illuminance ↔ irradiance conversion and cell conversion efficiency.
//!
//! The paper works in lux throughout (light meters read lux), but cell
//! conversion efficiency is defined against radiant power. The bridge is
//! the luminous efficacy of the light source's spectrum.

use eh_units::{Error, Lux, Ratio, Watts};

use crate::cell::PvCell;

/// The spectral class of a light source, determining its luminous
/// efficacy (how many lux one W/m² of its radiation produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum LightSource {
    /// Outdoor daylight (≈105 lm/W when integrated over the full spectrum
    /// reaching the surface).
    #[default]
    Daylight,
    /// Fluorescent office lighting (≈75 lm/W radiant).
    Fluorescent,
    /// Incandescent lamps (≈15 lm/W — mostly infrared).
    Incandescent,
    /// White LED lighting (≈90 lm/W radiant).
    Led,
}

/// Luminous efficacy of a light source's spectrum, in lumens per watt of
/// radiant power.
///
/// ```
/// use eh_pv::{LightSource, LuminousEfficacy};
/// let eff = LuminousEfficacy::of(LightSource::Daylight);
/// assert!((eff.lumens_per_watt() - 105.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuminousEfficacy(f64);

impl LuminousEfficacy {
    /// The efficacy of a standard source type.
    pub fn of(source: LightSource) -> Self {
        Self(match source {
            LightSource::Daylight => 105.0,
            LightSource::Fluorescent => 75.0,
            LightSource::Incandescent => 15.0,
            LightSource::Led => 90.0,
        })
    }

    /// Creates a custom efficacy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] unless `lm_per_w` is positive
    /// and finite.
    pub fn custom(lm_per_w: f64) -> Result<Self, Error> {
        if lm_per_w.is_finite() && lm_per_w > 0.0 {
            Ok(Self(lm_per_w))
        } else {
            Err(Error::InvalidParameter {
                name: "luminous_efficacy",
                value: lm_per_w,
            })
        }
    }

    /// Lumens per radiant watt.
    pub fn lumens_per_watt(self) -> f64 {
        self.0
    }

    /// Converts illuminance to irradiance in W/m².
    pub fn irradiance_w_per_m2(self, lux: Lux) -> f64 {
        lux.value() / self.0
    }

    /// Radiant power incident on an area, in watts.
    pub fn incident_power(self, lux: Lux, area_cm2: f64) -> Watts {
        Watts::new(self.irradiance_w_per_m2(lux) * area_cm2 * 1e-4)
    }
}

/// Photovoltaic conversion efficiency of `cell` at `lux` under a given
/// light source: MPP electrical power over incident radiant power.
///
/// # Errors
///
/// Propagates solver errors from the cell model.
pub fn conversion_efficiency(cell: &PvCell, lux: Lux, source: LightSource) -> Result<Ratio, Error> {
    let incident = LuminousEfficacy::of(source).incident_power(lux, cell.model().area_cm2());
    if incident.value() <= 0.0 {
        return Ok(Ratio::ZERO);
    }
    let mpp = cell.mpp(lux)?;
    Ok(Ratio::new(mpp.power / incident))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn efficacy_ordering_matches_spectra() {
        let day = LuminousEfficacy::of(LightSource::Daylight).lumens_per_watt();
        let fluo = LuminousEfficacy::of(LightSource::Fluorescent).lumens_per_watt();
        let inc = LuminousEfficacy::of(LightSource::Incandescent).lumens_per_watt();
        assert!(day > fluo);
        assert!(fluo > inc);
    }

    #[test]
    fn custom_efficacy_validation() {
        assert!(LuminousEfficacy::custom(80.0).is_ok());
        assert!(LuminousEfficacy::custom(0.0).is_err());
        assert!(LuminousEfficacy::custom(f64::NAN).is_err());
    }

    #[test]
    fn irradiance_conversion_round_numbers() {
        let eff = LuminousEfficacy::custom(100.0).unwrap();
        assert!((eff.irradiance_w_per_m2(Lux::new(1000.0)) - 10.0).abs() < 1e-12);
        // 10 W/m² over 25 cm² = 25 mW incident.
        let p = eff.incident_power(Lux::new(1000.0), 25.0);
        assert!((p.as_milli() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn conversion_efficiency_is_physical() {
        let cell = presets::sanyo_am1815();
        let eta = conversion_efficiency(&cell, Lux::new(1000.0), LightSource::Fluorescent).unwrap();
        // a-Si under indoor light: a few percent.
        assert!(eta.value() > 0.005 && eta.value() < 0.25, "eta = {eta}");
        assert_eq!(
            conversion_efficiency(&cell, Lux::ZERO, LightSource::Daylight).unwrap(),
            Ratio::ZERO
        );
    }

    #[test]
    fn default_source_is_daylight() {
        assert_eq!(LightSource::default(), LightSource::Daylight);
    }
}
