//! A simple clear-sky solar illuminance model.
//!
//! The profiles need a plausible daylight curve — a sunrise ramp, a
//! midday plateau and a sunset — not an astronomical ephemeris, so the
//! model is a half-sine elevation raised to an atmospheric-attenuation
//! exponent, scaled to a peak illuminance.

use eh_units::{Error, Lux, Seconds};

/// Clear-sky daylight model for one day.
///
/// ```
/// use eh_env::solar::SolarDay;
/// use eh_units::Seconds;
///
/// let day = SolarDay::uk_summer()?;
/// let noon = day.illuminance(Seconds::from_hours(13.0));
/// assert!(noon.value() > 50_000.0);
/// assert_eq!(day.illuminance(Seconds::from_hours(2.0)).value(), 0.0);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolarDay {
    sunrise: Seconds,
    sunset: Seconds,
    peak: Lux,
    attenuation_exponent: f64,
}

impl SolarDay {
    /// Creates a solar day.
    ///
    /// # Errors
    ///
    /// Rejects `sunset ≤ sunrise`, non-positive peak illuminance, or a
    /// non-positive attenuation exponent.
    pub fn new(
        sunrise: Seconds,
        sunset: Seconds,
        peak: Lux,
        attenuation_exponent: f64,
    ) -> Result<Self, Error> {
        if sunset.value() <= sunrise.value() {
            return Err(Error::InvalidParameter {
                name: "sunset",
                value: sunset.value(),
            });
        }
        if !(peak.value().is_finite() && peak.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "peak",
                value: peak.value(),
            });
        }
        if !(attenuation_exponent.is_finite() && attenuation_exponent > 0.0) {
            return Err(Error::InvalidParameter {
                name: "attenuation_exponent",
                value: attenuation_exponent,
            });
        }
        Ok(Self {
            sunrise,
            sunset,
            peak,
            attenuation_exponent,
        })
    }

    /// A UK summer day (the paper's Southampton setting): sunrise 05:00,
    /// sunset 21:00, 90 klux clear-sky peak.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors [`SolarDay::new`].
    pub fn uk_summer() -> Result<Self, Error> {
        Self::new(
            Seconds::from_hours(5.0),
            Seconds::from_hours(21.0),
            Lux::new(90_000.0),
            1.3,
        )
    }

    /// A UK winter day: sunrise 08:00, sunset 16:00, 20 klux peak.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors [`SolarDay::new`].
    pub fn uk_winter() -> Result<Self, Error> {
        Self::new(
            Seconds::from_hours(8.0),
            Seconds::from_hours(16.0),
            Lux::new(20_000.0),
            1.3,
        )
    }

    /// Sunrise time.
    pub fn sunrise(&self) -> Seconds {
        self.sunrise
    }

    /// Sunset time.
    pub fn sunset(&self) -> Seconds {
        self.sunset
    }

    /// Daylight duration (sunset − sunrise).
    pub fn daylight(&self) -> Seconds {
        self.sunset - self.sunrise
    }

    /// Clear-sky peak illuminance at solar noon.
    pub fn peak(&self) -> Lux {
        self.peak
    }

    /// Normalised solar elevation factor in `[0, 1]` (half-sine over the
    /// daylight window).
    pub fn elevation_factor(&self, t: Seconds) -> f64 {
        let t = t.value();
        if t <= self.sunrise.value() || t >= self.sunset.value() {
            return 0.0;
        }
        let frac = (t - self.sunrise.value()) / (self.sunset.value() - self.sunrise.value());
        (std::f64::consts::PI * frac).sin()
    }

    /// Horizontal outdoor illuminance at time-of-day `t`.
    pub fn illuminance(&self, t: Seconds) -> Lux {
        self.peak * self.elevation_factor(t).powf(self.attenuation_exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(SolarDay::new(
            Seconds::from_hours(9.0),
            Seconds::from_hours(8.0),
            Lux::new(1000.0),
            1.0
        )
        .is_err());
        assert!(SolarDay::new(
            Seconds::from_hours(6.0),
            Seconds::from_hours(18.0),
            Lux::ZERO,
            1.0
        )
        .is_err());
        assert!(SolarDay::new(
            Seconds::from_hours(6.0),
            Seconds::from_hours(18.0),
            Lux::new(1000.0),
            0.0
        )
        .is_err());
    }

    #[test]
    fn dark_outside_daylight_window() {
        let day = SolarDay::uk_summer().unwrap();
        assert_eq!(day.illuminance(Seconds::from_hours(2.0)).value(), 0.0);
        assert_eq!(day.illuminance(Seconds::from_hours(23.0)).value(), 0.0);
        assert_eq!(day.illuminance(Seconds::from_hours(5.0)).value(), 0.0);
    }

    #[test]
    fn peaks_at_solar_noon() {
        let day = SolarDay::uk_summer().unwrap();
        let noon = day.illuminance(Seconds::from_hours(13.0)).value();
        assert!((noon - 90_000.0).abs() < 1.0);
        let morning = day.illuminance(Seconds::from_hours(8.0)).value();
        assert!(morning < noon);
        assert!(morning > 0.0);
    }

    #[test]
    fn symmetric_about_noon() {
        let day = SolarDay::uk_summer().unwrap();
        let a = day.illuminance(Seconds::from_hours(9.0)).value();
        let b = day.illuminance(Seconds::from_hours(17.0)).value();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn winter_dimmer_and_shorter() {
        let summer = SolarDay::uk_summer().unwrap();
        let winter = SolarDay::uk_winter().unwrap();
        assert!(
            winter.illuminance(Seconds::from_hours(12.0)).value()
                < summer.illuminance(Seconds::from_hours(13.0)).value()
        );
        assert!(
            winter.sunset().value() - winter.sunrise().value()
                < summer.sunset().value() - summer.sunrise().value()
        );
    }

    #[test]
    fn elevation_factor_bounded() {
        let day = SolarDay::uk_summer().unwrap();
        for h in 0..24 {
            let e = day.elevation_factor(Seconds::from_hours(h as f64));
            assert!((0.0..=1.0).contains(&e));
        }
    }
}
