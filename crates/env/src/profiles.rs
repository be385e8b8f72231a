//! The 24-hour illuminance scenarios from §II-B of the paper.
//!
//! Three scenarios are provided, mirroring the paper's logging campaigns:
//!
//! * [`office_desk_mixed`] — the Fig. 2 setting: an office desk lit by a
//!   mix of natural window light and the ceiling luminaires; sunrise and
//!   the end-of-day lights-off edge are clearly identifiable.
//! * [`desk_weekend_blinds_closed`] — the Sunday lab-desk test with the
//!   blinds closed: only a small daylight leak, no lamps.
//! * [`semi_mobile_friday`] — the mobile-sensor mimic: office in the
//!   morning, outdoors over lunch (tens of klux), office again, then an
//!   evening at home under lamps.
//!
//! All traces are 24 h at 1 s resolution and fully determined by their
//! seed.

use eh_units::{Lux, Seconds};

use crate::lamps::Lamp;
use crate::process::{OrnsteinUhlenbeck, RandomTelegraph};
use crate::series::TimeSeries;
use crate::solar::SolarDay;

/// Samples per 24-hour trace (1 Hz inclusive of both endpoints).
const DAY_SAMPLES: usize = 86_401;

/// Shared scaffolding: per-second composition of daylight, lamps and
/// stochastic texture.
struct SceneryBuilder {
    solar: SolarDay,
    window_factor: f64,
    lamps: Vec<Lamp>,
    cloud: OrnsteinUhlenbeck,
    occupancy: Option<RandomTelegraph>,
    occupancy_attenuation: f64,
    sensor_noise: OrnsteinUhlenbeck,
}

impl SceneryBuilder {
    fn build(mut self) -> TimeSeries {
        let dt = 1.0f64;
        // Filled in place rather than pushed: a push's capacity check
        // can call the allocator, and a call in the loop keeps the
        // compiler from computing the processes' per-step decay once,
        // outside it (two `exp` a sample).
        let mut values = vec![0.0; DAY_SAMPLES];
        for (n, value) in values.iter_mut().enumerate() {
            let t = Seconds::new(n as f64 * dt);
            let cloud_x = self.cloud.step(dt);
            // Cloud factor in [0.25, 1.0]: logistic squashing of the OU state.
            let cloud_factor = 0.25 + 0.75 / (1.0 + (-cloud_x).exp());
            let daylight = self.solar.illuminance(t).value() * self.window_factor * cloud_factor;
            let lamp: f64 = self.lamps.iter().map(|l| l.illuminance(t).value()).sum();
            let mut lux = daylight + lamp;
            if let Some(occ) = self.occupancy.as_mut() {
                if occ.step(dt) {
                    lux *= 1.0 - self.occupancy_attenuation;
                }
            }
            // Small multiplicative sensor/flicker noise.
            let noise = 1.0 + 0.01 * self.sensor_noise.step(dt).clamp(-3.0, 3.0);
            *value = (lux * noise).max(0.0);
        }
        TimeSeries::new(Seconds::ZERO, Seconds::new(dt), values)
            .expect("profile construction uses valid parameters")
    }
}

/// The Fig. 2 office-desk scenario: mixed natural and artificial light.
///
/// Sunrise appears as a gradual morning ramp through the window; the
/// ceiling lights run 08:00–18:30 and their switch-off is the sharp
/// evening edge the paper points at in Fig. 2.
pub fn office_desk_mixed(seed: u64) -> TimeSeries {
    SceneryBuilder {
        solar: SolarDay::uk_summer().expect("valid constants"),
        window_factor: 0.015,
        lamps: vec![Lamp::new(Lux::new(420.0), Seconds::new(2.0))
            .expect("valid constants")
            .with_interval(Seconds::from_hours(8.0), Seconds::from_hours(18.5))
            .expect("valid interval")],
        cloud: OrnsteinUhlenbeck::new(0.0, 1200.0, 1.0, seed).expect("valid constants"),
        occupancy: Some(
            RandomTelegraph::new(1.0 / 1800.0, 1.0 / 300.0, seed.wrapping_add(1))
                .expect("valid constants"),
        ),
        occupancy_attenuation: 0.35,
        sensor_noise: OrnsteinUhlenbeck::new(0.0, 5.0, 1.0, seed.wrapping_add(2))
            .expect("valid constants"),
    }
    .build()
}

/// The Sunday lab-desk scenario with the blinds closed: only a small
/// daylight leak (no lamps, nobody in the lab).
pub fn desk_weekend_blinds_closed(seed: u64) -> TimeSeries {
    SceneryBuilder {
        solar: SolarDay::uk_summer().expect("valid constants"),
        window_factor: 0.0012,
        lamps: Vec::new(),
        cloud: OrnsteinUhlenbeck::new(0.0, 1800.0, 0.5, seed).expect("valid constants"),
        occupancy: None,
        occupancy_attenuation: 0.0,
        // An empty, blinds-closed lab is optically quiet: only a whisper
        // of sensor noise, matching the very low Ē the paper measured on
        // this log (12.7 mV at a 1-minute period).
        sensor_noise: OrnsteinUhlenbeck::new(0.0, 20.0, 0.18, seed.wrapping_add(2))
            .expect("valid constants"),
    }
    .build()
}

/// The semi-mobile Friday: office morning and afternoon, a lunchtime hour
/// outdoors in direct daylight, and an evening at home under a lamp.
///
/// This is the scenario that motivates the whole paper: the same sensor
/// crosses a ~100× range of intensities within one day, so a tracker must
/// work both indoors and outdoors.
pub fn semi_mobile_friday(seed: u64) -> TimeSeries {
    let solar = SolarDay::uk_summer().expect("valid constants");
    let office = office_desk_mixed(seed);
    let mut cloud =
        OrnsteinUhlenbeck::new(0.0, 900.0, 0.8, seed.wrapping_add(7)).expect("valid constants");
    let home_lamp = Lamp::new(Lux::new(180.0), Seconds::new(1.0))
        .expect("valid constants")
        .with_interval(Seconds::from_hours(19.0), Seconds::from_hours(23.0))
        .expect("valid interval");

    let lunch_start = Seconds::from_hours(12.0);
    let lunch_end = Seconds::from_hours(13.0);
    let leave_work = Seconds::from_hours(17.5);

    let mut values = Vec::with_capacity(DAY_SAMPLES);
    for n in 0..DAY_SAMPLES {
        let t = Seconds::new(n as f64);
        let cloud_x = cloud.step(1.0);
        let cloud_factor = 0.25 + 0.75 / (1.0 + (-cloud_x).exp());
        let v = if t.value() >= lunch_start.value() && t.value() < lunch_end.value() {
            // Outdoors: direct (slightly shaded) daylight.
            solar.illuminance(t).value() * 0.55 * cloud_factor
        } else if t.value() >= leave_work.value() {
            // Evening at home: lamp plus a trickle of dusk light.
            home_lamp.illuminance(t).value() + solar.illuminance(t).value() * 0.004 * cloud_factor
        } else {
            office.sample(n).unwrap_or(0.0)
        };
        values.push(v.max(0.0));
    }
    TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), values)
        .expect("profile construction uses valid parameters")
}

/// A constant-illuminance trace — the bench lamp used for Table I and
/// Fig. 4 style experiments.
pub fn constant(lux: Lux, duration: Seconds) -> TimeSeries {
    let n = (duration.value().max(1.0) as usize) + 1;
    TimeSeries::from_fn(Seconds::ZERO, Seconds::new(1.0), n, |_| lux.value())
        .expect("constant profile parameters are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_cover_24_hours_at_1hz() {
        for trace in [
            office_desk_mixed(1),
            desk_weekend_blinds_closed(1),
            semi_mobile_friday(1),
        ] {
            assert_eq!(trace.len(), DAY_SAMPLES);
            assert!((trace.duration().as_hours() - 24.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(office_desk_mixed(5), office_desk_mixed(5));
        assert_ne!(
            office_desk_mixed(5).values()[40_000],
            office_desk_mixed(6).values()[40_000]
        );
    }

    #[test]
    fn office_shows_sunrise_and_lights_off() {
        let day = office_desk_mixed(3);
        let night = day.value_at(Seconds::from_hours(2.0)).unwrap();
        let morning = day.value_at(Seconds::from_hours(9.0)).unwrap();
        assert!(morning > night + 100.0, "sunrise+lamps must be visible");
        // Lights-off at 18:30: a sharp drop.
        let before_off = day.value_at(Seconds::from_hours(18.4)).unwrap();
        let after_off = day.value_at(Seconds::from_hours(18.6)).unwrap();
        assert!(
            before_off > after_off + 150.0,
            "lights-off edge: {before_off} → {after_off}"
        );
    }

    #[test]
    fn office_is_indoor_intensity() {
        let day = office_desk_mixed(3);
        assert!(day.max() < 5_000.0, "desk max = {}", day.max());
        assert!(day.max() > 300.0);
    }

    #[test]
    fn weekend_is_dim_but_shows_daylight() {
        let day = desk_weekend_blinds_closed(3);
        assert!(day.max() < 200.0, "blinds closed: max = {}", day.max());
        let noon = day.value_at(Seconds::from_hours(13.0)).unwrap();
        let night = day.value_at(Seconds::from_hours(1.0)).unwrap();
        assert!(noon > night + 5.0, "sunrise must still be identifiable");
    }

    #[test]
    fn semi_mobile_has_outdoor_lunch_spike() {
        let day = semi_mobile_friday(3);
        let lunch = day.value_at(Seconds::from_hours(12.5)).unwrap();
        let morning = day.value_at(Seconds::from_hours(10.0)).unwrap();
        assert!(
            lunch > 10_000.0,
            "outdoor lunch must reach tens of klux, got {lunch}"
        );
        assert!(lunch > 10.0 * morning);
        // Evening lamp visible, then dark.
        let evening = day.value_at(Seconds::from_hours(20.0)).unwrap();
        let late = day.value_at(Seconds::from_hours(23.5)).unwrap();
        assert!(evening > 100.0);
        assert!(late < 20.0);
    }

    #[test]
    fn no_negative_illuminance_anywhere() {
        for trace in [
            office_desk_mixed(9),
            desk_weekend_blinds_closed(9),
            semi_mobile_friday(9),
        ] {
            assert!(trace.min() >= 0.0);
        }
    }

    #[test]
    fn constant_profile() {
        let c = constant(Lux::new(1000.0), Seconds::new(300.0));
        assert_eq!(c.min(), 1000.0);
        assert_eq!(c.max(), 1000.0);
        assert_eq!(c.len(), 301);
    }
}
