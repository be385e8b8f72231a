//! Seasonal, latitude-parameterized solar days.
//!
//! The paper's two outdoor anchors — [`SolarDay::uk_summer`] and
//! [`SolarDay::uk_winter`] — are single days. Multi-year endurance
//! campaigns need the whole annual cycle between them: day length and
//! clear-sky peak vary with the solar declination at the deployment's
//! latitude. [`SeasonalSolar`] interpolates a [`SolarDay`] for any day
//! of the year from exactly that geometry:
//!
//! * declination `δ(d) = −23.44° · cos(2π (d + 10) / 365.25)`,
//! * day length from the sunrise hour angle `cos ω₀ = −tan φ · tan δ`
//!   (clamped, so high latitudes saturate instead of erroring),
//! * clear-sky peak interpolated between the winter and summer anchor
//!   peaks by the noon solar elevation's position between the year's
//!   own extremes at that latitude.
//!
//! Everything here is a **pure function of `(latitude, day_of_year)`**:
//! no random state, no hidden caches — the deterministic backbone the
//! campaign layer's seeded weather regimes modulate multiplicatively.

use eh_units::{Error, Lux, Seconds};

use crate::solar::SolarDay;

/// Mean tropical-year length used for the declination phase.
const YEAR_DAYS: f64 = 365.25;
/// Earth's axial tilt in degrees.
const TILT_DEG: f64 = 23.44;
/// Shortest synthesized day: high latitudes clamp here instead of
/// producing a sunrise after sunset (which [`SolarDay::new`] rejects).
const MIN_DAY_HOURS: f64 = 1.0;
/// Longest synthesized day, the mirror clamp for polar summer.
const MAX_DAY_HOURS: f64 = 23.0;

/// A latitude-anchored annual solar cycle: produces one [`SolarDay`]
/// per day of year, sweeping between a winter and a summer anchor.
///
/// ```
/// use eh_env::season::SeasonalSolar;
///
/// let solstices = SeasonalSolar::temperate_uk()?;
/// let june = solstices.solar_day(172)?;   // around the summer solstice
/// let december = solstices.solar_day(355)?;
/// assert!(june.daylight() > december.daylight());
/// assert!(june.peak() > december.peak());
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalSolar {
    latitude_deg: f64,
    summer_peak: Lux,
    winter_peak: Lux,
    attenuation_exponent: f64,
}

impl SeasonalSolar {
    /// Creates a seasonal cycle for a deployment latitude with clear-sky
    /// peak illuminance anchors at the summer and winter solstices.
    ///
    /// # Errors
    ///
    /// Rejects latitudes beyond ±66° (polar day/night has no
    /// sunrise/sunset to interpolate), non-positive or non-finite peaks,
    /// and a summer peak below the winter peak.
    pub fn new(latitude_deg: f64, summer_peak: Lux, winter_peak: Lux) -> Result<Self, Error> {
        if !(latitude_deg.is_finite() && latitude_deg.abs() <= 66.0) {
            return Err(Error::InvalidParameter {
                name: "latitude_deg",
                value: latitude_deg,
            });
        }
        if !(winter_peak.value().is_finite() && winter_peak.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "winter_peak",
                value: winter_peak.value(),
            });
        }
        if !(summer_peak.value().is_finite() && summer_peak.value() >= winter_peak.value()) {
            return Err(Error::InvalidParameter {
                name: "summer_peak",
                value: summer_peak.value(),
            });
        }
        Ok(Self {
            latitude_deg,
            summer_peak,
            winter_peak,
            attenuation_exponent: 1.3,
        })
    }

    /// The paper's Southampton setting generalized to a full year:
    /// latitude 52° N between the 90 klx summer and 20 klx winter
    /// anchors of [`SolarDay::uk_summer`] / [`SolarDay::uk_winter`].
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`SeasonalSolar::new`].
    pub fn temperate_uk() -> Result<Self, Error> {
        Self::new(52.0, Lux::new(90_000.0), Lux::new(20_000.0))
    }

    /// A low-latitude tropical cycle (weak seasonality, strong sun):
    /// latitude 15° with 110 klx / 80 klx anchors.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`SeasonalSolar::new`].
    pub fn tropical() -> Result<Self, Error> {
        Self::new(15.0, Lux::new(110_000.0), Lux::new(80_000.0))
    }

    /// The deployment latitude in degrees.
    pub fn latitude_deg(&self) -> f64 {
        self.latitude_deg
    }

    /// Solar declination in degrees for a day of year (0-based; values
    /// beyond one year wrap, so multi-year campaigns can index straight
    /// through).
    pub fn declination_deg(&self, day_of_year: u32) -> f64 {
        let d = f64::from(day_of_year) % YEAR_DAYS;
        -TILT_DEG * (std::f64::consts::TAU * (d + 10.0) / YEAR_DAYS).cos()
    }

    /// Daylight hours for a day of year, from the sunrise hour angle,
    /// clamped to `[1, 23]` hours.
    pub fn day_length_hours(&self, day_of_year: u32) -> f64 {
        let phi = self.latitude_deg.to_radians();
        let delta = self.declination_deg(day_of_year).to_radians();
        let cos_omega = (-phi.tan() * delta.tan()).clamp(-1.0, 1.0);
        let omega = cos_omega.acos();
        (24.0 * omega / std::f64::consts::PI).clamp(MIN_DAY_HOURS, MAX_DAY_HOURS)
    }

    /// Sine of the noon solar elevation for a day of year.
    fn noon_elevation_sin(&self, day_of_year: u32) -> f64 {
        let phi = self.latitude_deg;
        let delta = self.declination_deg(day_of_year);
        (90.0 - (phi - delta).abs()).to_radians().sin().max(0.0)
    }

    /// Clear-sky peak illuminance for a day of year: the winter anchor
    /// plus the summer-minus-winter span scaled by where today's noon
    /// elevation sits between this latitude's own annual extremes.
    pub fn peak(&self, day_of_year: u32) -> Lux {
        let phi = self.latitude_deg;
        // Annual extremes of the noon elevation at this latitude.
        let lo = (90.0 - (phi + TILT_DEG).abs())
            .min(90.0 - (phi - TILT_DEG).abs())
            .to_radians()
            .sin()
            .max(0.0);
        let hi = (90.0 - (phi + TILT_DEG).abs())
            .max(90.0 - (phi - TILT_DEG).abs())
            .to_radians()
            .sin()
            .max(0.0);
        let s = if hi > lo {
            ((self.noon_elevation_sin(day_of_year) - lo) / (hi - lo)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        Lux::new(
            self.winter_peak.value() + (self.summer_peak.value() - self.winter_peak.value()) * s,
        )
    }

    /// The [`SolarDay`] of a day of year: the day length centred on
    /// solar noon with the seasonal clear-sky peak.
    ///
    /// # Errors
    ///
    /// Never fails for a constructed `SeasonalSolar` (lengths and peaks
    /// are clamped into [`SolarDay::new`]'s valid range); the `Result`
    /// mirrors the underlying constructor.
    pub fn solar_day(&self, day_of_year: u32) -> Result<SolarDay, Error> {
        let half = self.day_length_hours(day_of_year) / 2.0;
        SolarDay::new(
            Seconds::from_hours(12.0 - half),
            Seconds::from_hours(12.0 + half),
            self.peak(day_of_year),
            self.attenuation_exponent,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperate_cycle_brackets_the_paper_anchors() {
        let s = SeasonalSolar::temperate_uk().unwrap();
        let june = s.solar_day(172).unwrap();
        let dec = s.solar_day(355).unwrap();
        // Solstice day lengths bracket the paper's 16 h / 8 h days.
        assert!(june.daylight().value() > 15.0 * 3600.0);
        assert!(dec.daylight().value() < 9.0 * 3600.0);
        // Peaks land on the anchors at the solstices (within the
        // few-day offset of the cosine phase).
        assert!((june.peak().value() - 90_000.0).abs() < 2_000.0);
        assert!((dec.peak().value() - 20_000.0).abs() < 2_000.0);
    }

    #[test]
    fn equinox_sits_between_the_solstices() {
        let s = SeasonalSolar::temperate_uk().unwrap();
        let march = s.solar_day(80).unwrap();
        assert!((s.day_length_hours(80) - 12.0).abs() < 0.5);
        assert!(march.peak().value() > 20_000.0);
        assert!(march.peak().value() < 90_000.0);
    }

    #[test]
    fn tropics_have_weak_seasonality() {
        let s = SeasonalSolar::tropical().unwrap();
        let spread = s.day_length_hours(172) - s.day_length_hours(355);
        assert!(
            spread.abs() < 2.5,
            "tropical day-length swing {spread} h too large"
        );
        for d in (0..730).step_by(30) {
            assert!(s.peak(d).value() >= 80_000.0 - 1e-9);
        }
    }

    #[test]
    fn days_wrap_across_years() {
        let s = SeasonalSolar::temperate_uk().unwrap();
        // Day 400 is day 400 − 365.25 ≈ 34.75 into the second year; the
        // cycle must keep moving rather than freeze or panic.
        assert!(s.day_length_hours(400) < s.day_length_hours(172 + 365));
        assert!(s.solar_day(730).is_ok());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SeasonalSolar::new(70.0, Lux::new(90e3), Lux::new(20e3)).is_err());
        assert!(SeasonalSolar::new(f64::NAN, Lux::new(90e3), Lux::new(20e3)).is_err());
        assert!(SeasonalSolar::new(52.0, Lux::new(0.0), Lux::new(0.0)).is_err());
        // Summer anchor below winter anchor is inconsistent.
        assert!(SeasonalSolar::new(52.0, Lux::new(10e3), Lux::new(20e3)).is_err());
        // Southern hemisphere is fine and flips the seasons.
        let south = SeasonalSolar::new(-35.0, Lux::new(100e3), Lux::new(40e3)).unwrap();
        assert!(south.day_length_hours(355) > south.day_length_hours(172));
    }

    #[test]
    fn solar_day_is_a_pure_function() {
        let s = SeasonalSolar::temperate_uk().unwrap();
        assert_eq!(s.solar_day(100).unwrap(), s.solar_day(100).unwrap());
    }
}
