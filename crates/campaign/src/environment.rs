//! Epoch trace synthesis: seasonal sky × weather × indoor light.
//!
//! Fleet runs use the paper-faithful 24-hour office/semi-mobile logs;
//! campaigns instead synthesise one multi-day trace per placement per
//! epoch directly on the simulation grid:
//!
//! * **outdoor** — the day's [`SeasonalSolar`] clear-sky curve times the
//!   day's weather attenuation;
//! * **window desk** — a weekday office lamp rectangle plus 15 % of the
//!   weather-attenuated outdoor daylight;
//! * **interior desk** — the same lamp plus only 2 % of daylight.
//!
//! The synthesis is a pure function of `(season, attenuations, epoch)`,
//! so every shard and worker sees byte-identical traces.

use eh_env::season::SeasonalSolar;
use eh_env::TimeSeries;
use eh_units::{Error, Seconds};

/// Office lamp illuminance while on (weekdays 08:00–18:00), in lux.
const LAMP_LUX: f64 = 450.0;
/// Fraction of outdoor daylight reaching the window desk.
const WINDOW_DAYLIGHT: f64 = 0.15;
/// Fraction of outdoor daylight reaching the interior desk.
const INTERIOR_DAYLIGHT: f64 = 0.02;

/// Whether a campaign day index is a working weekday (days 0–4 of each
/// 7-day cycle; the campaign calendar starts on a Monday).
fn is_weekday(day: u32) -> bool {
    day % 7 < 5
}

/// Synthesises the per-placement traces of one epoch on the `dt` grid,
/// indexed by [`eh_fleet::Placement::index`]: window desk, interior
/// desk, outdoor. Placements not in `in_use` stay `None`.
///
/// `attenuations` holds one weather factor per **campaign** day;
/// `epoch_start` is the epoch's first campaign day, which is also the
/// day-of-year cursor into `season` (campaigns start on January 1st).
///
/// # Errors
///
/// Propagates [`SeasonalSolar::solar_day`] and trace construction;
/// rejects an `attenuations` slice shorter than the epoch.
pub fn epoch_traces(
    season: &SeasonalSolar,
    attenuations: &[f64],
    epoch_start: u32,
    epoch_days: u32,
    dt: Seconds,
    in_use: [bool; 3],
) -> Result<[Option<TimeSeries>; 3], Error> {
    let end = epoch_start as usize + epoch_days as usize;
    if attenuations.len() < end {
        return Err(Error::InvalidParameter {
            name: "attenuations_len",
            value: attenuations.len() as f64,
        });
    }
    // Per-day sky for the epoch, built once.
    let mut days = Vec::with_capacity(epoch_days as usize);
    for d in 0..epoch_days {
        let global = epoch_start + d;
        days.push((
            season.solar_day(global)?,
            attenuations[global as usize],
            is_weekday(global),
        ));
    }

    let day_s = 86_400.0;
    let steps_per_day = (day_s / dt.value()).round() as usize;
    let n = steps_per_day * epoch_days as usize + 1;

    let mut outdoor = Vec::with_capacity(n);
    let mut window = Vec::with_capacity(n);
    let mut interior = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * dt.value();
        let local_day = ((t / day_s) as usize).min(epoch_days as usize - 1);
        let tod = t - local_day as f64 * day_s;
        let (solar, att, weekday) = &days[local_day];
        let sun = solar.illuminance(Seconds::new(tod)).value() * att;
        let lamp = if *weekday && (8.0 * 3600.0..18.0 * 3600.0).contains(&tod) {
            LAMP_LUX
        } else {
            0.0
        };
        outdoor.push(sun);
        window.push(lamp + WINDOW_DAYLIGHT * sun);
        interior.push(lamp + INTERIOR_DAYLIGHT * sun);
    }

    let build = |used: bool, values: Vec<f64>| -> Result<Option<TimeSeries>, Error> {
        if used {
            Ok(Some(TimeSeries::new(Seconds::ZERO, dt, values)?))
        } else {
            Ok(None)
        }
    };
    Ok([
        build(in_use[0], window)?,
        build(in_use[1], interior)?,
        build(in_use[2], outdoor)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn season() -> SeasonalSolar {
        SeasonalSolar::temperate_uk().unwrap()
    }

    #[test]
    fn traces_cover_the_epoch_on_the_dt_grid() {
        let atts = vec![1.0; 30];
        let dt = Seconds::new(600.0);
        let [w, i, o] = epoch_traces(&season(), &atts, 0, 13, dt, [true; 3]).unwrap();
        for t in [w, i, o] {
            let t = t.unwrap();
            assert_eq!(t.len(), 13 * 144 + 1);
            assert!((t.duration().value() - 13.0 * 86_400.0).abs() < 1e-6);
        }
    }

    #[test]
    fn weather_attenuates_daylight_but_not_the_lamp() {
        let dt = Seconds::new(600.0);
        let clear = epoch_traces(&season(), &[1.0; 7], 0, 1, dt, [true; 3]).unwrap();
        let storm = epoch_traces(&season(), &[0.12; 7], 0, 1, dt, [true; 3]).unwrap();
        // Noon, day 0 (a weekday): sample index 72 at dt = 600.
        let noon = 72;
        let out_clear = clear[2].as_ref().unwrap().sample(noon).unwrap();
        let out_storm = storm[2].as_ref().unwrap().sample(noon).unwrap();
        assert!((out_storm - 0.12 * out_clear).abs() < 1e-9);
        // The interior desk is lamp-dominated: the storm barely moves it.
        let int_clear = clear[1].as_ref().unwrap().sample(noon).unwrap();
        let int_storm = storm[1].as_ref().unwrap().sample(noon).unwrap();
        assert!(int_clear > LAMP_LUX);
        assert!(int_storm >= LAMP_LUX);
        assert!(int_clear - int_storm < 0.02 * out_clear);
    }

    #[test]
    fn weekends_have_no_lamp() {
        let dt = Seconds::new(600.0);
        // Days 5 and 6 are the weekend of the first week.
        let [_, interior, outdoor] =
            epoch_traces(&season(), &[1.0; 7], 5, 1, dt, [true; 3]).unwrap();
        let noon = 72;
        let i = interior.unwrap().sample(noon).unwrap();
        let o = outdoor.unwrap().sample(noon).unwrap();
        assert!(
            (i - INTERIOR_DAYLIGHT * o).abs() < 1e-9,
            "lamp on at weekend"
        );
    }

    #[test]
    fn winter_epochs_are_darker_than_summer_epochs() {
        let dt = Seconds::new(600.0);
        let atts = vec![1.0; 400];
        let summer = epoch_traces(&season(), &atts, 170, 5, dt, [false, false, true]).unwrap();
        let winter = epoch_traces(&season(), &atts, 350, 5, dt, [false, false, true]).unwrap();
        let energy = |t: &TimeSeries| t.values().iter().sum::<f64>();
        assert!(energy(summer[2].as_ref().unwrap()) > 2.0 * energy(winter[2].as_ref().unwrap()));
    }

    #[test]
    fn unused_placements_stay_none_and_short_atts_error() {
        let dt = Seconds::new(600.0);
        let out = epoch_traces(&season(), &[1.0; 7], 0, 2, dt, [false, true, false]).unwrap();
        assert!(out[0].is_none() && out[2].is_none() && out[1].is_some());
        assert!(epoch_traces(&season(), &[1.0; 3], 0, 7, dt, [true; 3]).is_err());
    }

    #[test]
    fn synthesis_is_deterministic() {
        let dt = Seconds::new(600.0);
        let a = epoch_traces(&season(), &[0.35; 20], 7, 6, dt, [true; 3]).unwrap();
        let b = epoch_traces(&season(), &[0.35; 20], 7, 6, dt, [true; 3]).unwrap();
        assert_eq!(a, b);
    }
}
