//! Campaign specifications: what to endure, for how long, under which
//! sky.
//!
//! A [`CampaignSpec`] is a complete, deterministic description of a
//! multi-year endurance run: the fleet (size, seed, tracker, engine),
//! the environment (latitude, climate), the load class, the slow drift
//! rates and the fault plan. Like [`eh_fleet::FleetSpec`], the same spec
//! always produces the same [`crate::CampaignReport`], bit for bit, at
//! any worker count.

use eh_env::season::SeasonalSolar;
use eh_env::weather::WeatherModel;
use eh_fleet::{Engine, TrackerKind};
use eh_node::DutyCycledLoad;
use eh_units::{Lux, Seconds};

use eh_units::Error;

/// The climate regime of a deployment site: picks the weather
/// transition matrix and the seasonal clear-sky peak anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Climate {
    /// Temperate maritime (UK-like): sticky clear/overcast, rare storms,
    /// strong seasonality (90 klx summer / 20 klx winter anchors).
    Temperate,
    /// Monsoon wet season (Nepal-like): long storm runs, clear days
    /// scarce, moderate seasonality (105 klx / 70 klx).
    MonsoonSeason,
    /// Arid: overwhelmingly clear, weak cloud cover (110 klx / 60 klx).
    Arid,
}

impl Climate {
    /// All climates, in display order.
    pub const ALL: [Climate; 3] = [Climate::Temperate, Climate::MonsoonSeason, Climate::Arid];

    /// Stable lowercase label (also the serve-layer wire name).
    pub fn label(self) -> &'static str {
        match self {
            Climate::Temperate => "temperate",
            Climate::MonsoonSeason => "monsoon",
            Climate::Arid => "arid",
        }
    }

    /// Parses a [`Climate::label`].
    pub fn parse(s: &str) -> Option<Climate> {
        Climate::ALL.into_iter().find(|c| c.label() == s)
    }

    /// The seeded daily weather chain of this climate.
    ///
    /// # Errors
    ///
    /// Never fails for the preset matrices; the `Result` mirrors
    /// [`WeatherModel::new`].
    pub fn weather(self, seed: u64) -> Result<WeatherModel, Error> {
        match self {
            Climate::Temperate => WeatherModel::temperate(seed),
            Climate::MonsoonSeason => WeatherModel::monsoon_season(seed),
            Climate::Arid => WeatherModel::arid(seed),
        }
    }

    /// The seasonal clear-sky cycle of this climate at a latitude.
    ///
    /// # Errors
    ///
    /// Propagates [`SeasonalSolar::new`] (latitude beyond ±66°).
    pub fn season(self, latitude_deg: f64) -> Result<SeasonalSolar, Error> {
        let (summer, winter) = match self {
            Climate::Temperate => (90_000.0, 20_000.0),
            Climate::MonsoonSeason => (105_000.0, 70_000.0),
            Climate::Arid => (110_000.0, 60_000.0),
        };
        SeasonalSolar::new(latitude_deg, Lux::new(summer), Lux::new(winter))
    }
}

/// The node load class a campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadClass {
    /// The paper's typical sensor node (sleep/sense/transmit).
    SensorNode,
    /// Sensor node plus a periodic receive window.
    DutyCycledRadio,
    /// Heavy intermittent actuator (PV water-pumping class).
    IntermittentMotor,
}

impl LoadClass {
    /// All load classes, in display order.
    pub const ALL: [LoadClass; 3] = [
        LoadClass::SensorNode,
        LoadClass::DutyCycledRadio,
        LoadClass::IntermittentMotor,
    ];

    /// Stable lowercase label (also the serve-layer wire name).
    pub fn label(self) -> &'static str {
        match self {
            LoadClass::SensorNode => "sensor",
            LoadClass::DutyCycledRadio => "radio",
            LoadClass::IntermittentMotor => "motor",
        }
    }

    /// Parses a [`LoadClass::label`].
    pub fn parse(s: &str) -> Option<LoadClass> {
        LoadClass::ALL.into_iter().find(|c| c.label() == s)
    }

    /// Builds the load profile.
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants; the `Result` mirrors the
    /// underlying constructors.
    pub fn build(self) -> Result<DutyCycledLoad, Error> {
        match self {
            LoadClass::SensorNode => DutyCycledLoad::typical_sensor_node(),
            LoadClass::DutyCycledRadio => DutyCycledLoad::duty_cycled_radio(),
            LoadClass::IntermittentMotor => DutyCycledLoad::intermittent_motor(),
        }
    }
}

/// Slow degradation rates, as fractional loss **per simulated year**.
/// Each node draws a spread factor in `[0.5, 1.5]` around these rates
/// (see [`crate::schedule`]), so a fleet ages heterogeneously but
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRates {
    /// Dust/soiling: fraction of optical gain lost per year.
    pub dust_per_year: f64,
    /// Cell aging: fraction of photocurrent lost per year.
    pub aging_per_year: f64,
    /// Storage wear: fraction of capacitance/capacity lost per year.
    pub store_wear_per_year: f64,
}

impl DriftRates {
    /// A plausible outdoor default: 6 %/yr dust, 1.5 %/yr cell aging,
    /// 4 %/yr storage wear.
    pub fn reference() -> Self {
        Self {
            dust_per_year: 0.06,
            aging_per_year: 0.015,
            store_wear_per_year: 0.04,
        }
    }

    /// No drift at all (isolates weather/fault effects).
    pub fn none() -> Self {
        Self {
            dust_per_year: 0.0,
            aging_per_year: 0.0,
            store_wear_per_year: 0.0,
        }
    }

    /// Validates every rate into `[0, 0.5)` — beyond 50 %/yr the
    /// "drift" is a broken part, not a degradation model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the field.
    pub fn validate(&self) -> Result<(), Error> {
        for (name, v) in [
            ("dust_per_year", self.dust_per_year),
            ("aging_per_year", self.aging_per_year),
            ("store_wear_per_year", self.store_wear_per_year),
        ] {
            if !(v.is_finite() && (0.0..0.5).contains(&v)) {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        Ok(())
    }
}

/// The fault-injection plan: what fraction of the fleet suffers one
/// fault over the campaign. Which node, which fault and when are all
/// drawn from the campaign's schedule stream (see [`crate::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a given node suffers one fault during the
    /// campaign, in `[0, 1]`.
    pub probability: f64,
}

impl FaultPlan {
    /// The reference plan: 15 % of nodes fault over the campaign.
    pub fn reference() -> Self {
        Self { probability: 0.15 }
    }

    /// No faults.
    pub fn none() -> Self {
        Self { probability: 0.0 }
    }

    /// Validates the probability into `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`].
    pub fn validate(&self) -> Result<(), Error> {
        if !(self.probability.is_finite() && (0.0..=1.0).contains(&self.probability)) {
            return Err(Error::InvalidParameter {
                name: "fault_probability",
                value: self.probability,
            });
        }
        Ok(())
    }
}

/// A complete, deterministic description of an endurance campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Display name of the campaign.
    pub name: String,
    /// Fleet size.
    pub nodes: u32,
    /// Seed fixing the population, the weather and every schedule.
    pub seed: u64,
    /// Campaign length in simulated days.
    pub days: u32,
    /// Epoch length in days: drift and fault state are piecewise
    /// constant within an epoch and re-applied at each epoch boundary
    /// (the campaign's degradation resolution). The last epoch may be
    /// shorter.
    pub epoch_days: u32,
    /// Deployment latitude in degrees (positive north), |lat| ≤ 66.
    pub latitude_deg: f64,
    /// Climate regime.
    pub climate: Climate,
    /// Node load class.
    pub load: LoadClass,
    /// Slow degradation rates.
    pub drift: DriftRates,
    /// Fault-injection plan.
    pub faults: FaultPlan,
    /// Tracker under test.
    pub tracker: TrackerKind,
    /// Engine label; both labels run the one node stepper.
    pub engine: Engine,
    /// Simulation step.
    pub dt: Seconds,
}

impl CampaignSpec {
    /// The reference endurance question: `nodes` nodes for two simulated
    /// years (730 days, 73-day epochs) at 52° N temperate, duty-cycled
    /// radio load, reference drift and fault plan, FOCV on the default
    /// ([`Engine::Vectorized`]) engine label, 600 s step.
    pub fn reference(nodes: u32, seed: u64) -> Self {
        Self {
            name: format!("endurance x{nodes} 730d temperate"),
            nodes,
            seed,
            days: 730,
            epoch_days: 73,
            latitude_deg: 52.0,
            climate: Climate::Temperate,
            load: LoadClass::DutyCycledRadio,
            drift: DriftRates::reference(),
            faults: FaultPlan::reference(),
            tracker: TrackerKind::Focv,
            engine: Engine::default(),
            dt: Seconds::new(600.0),
        }
    }

    /// The CI smoke campaign: 48 nodes, one simulated season (91 days,
    /// 13-day epochs), otherwise the reference setting.
    pub fn smoke(seed: u64) -> Self {
        Self {
            name: "endurance smoke x48 91d temperate".to_owned(),
            nodes: 48,
            days: 91,
            epoch_days: 13,
            ..Self::reference(48, seed)
        }
    }

    /// Validates the campaign's scalar parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the field; latitude
    /// validity is checked by constructing the seasonal cycle.
    pub fn validate(&self) -> Result<(), Error> {
        if self.nodes == 0 {
            return Err(Error::InvalidParameter {
                name: "nodes",
                value: 0.0,
            });
        }
        if self.days == 0 {
            return Err(Error::InvalidParameter {
                name: "days",
                value: 0.0,
            });
        }
        if self.epoch_days == 0 || self.epoch_days > self.days {
            return Err(Error::InvalidParameter {
                name: "epoch_days",
                value: f64::from(self.epoch_days),
            });
        }
        if !(self.dt.value().is_finite() && self.dt.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "dt",
                value: self.dt.value(),
            });
        }
        // A step that does not divide the day would skew the day/night
        // alignment epoch over epoch.
        let steps_per_day = 86_400.0 / self.dt.value();
        if (steps_per_day - steps_per_day.round()).abs() > 1e-9 {
            return Err(Error::InvalidParameter {
                name: "dt_divides_day",
                value: self.dt.value(),
            });
        }
        self.climate.season(self.latitude_deg)?;
        self.drift.validate()?;
        self.faults.validate()
    }

    /// The epoch schedule: `(start_day, length_days)` pairs covering
    /// `[0, days)`, every epoch `epoch_days` long except a possibly
    /// shorter final one.
    pub fn epochs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < self.days {
            let len = self.epoch_days.min(self.days - start);
            out.push((start, len));
            start += len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_smoke_validate() {
        assert!(CampaignSpec::reference(1000, 2011).validate().is_ok());
        assert!(CampaignSpec::smoke(2011).validate().is_ok());
    }

    #[test]
    fn epochs_cover_the_campaign_exactly() {
        let mut spec = CampaignSpec::reference(10, 1);
        spec.days = 100;
        spec.epoch_days = 30;
        let epochs = spec.epochs();
        assert_eq!(epochs, vec![(0, 30), (30, 30), (60, 30), (90, 10)]);
        assert_eq!(epochs.iter().map(|(_, l)| l).sum::<u32>(), 100);
    }

    #[test]
    fn validation_rejects_bad_scalars() {
        let mut s = CampaignSpec::smoke(1);
        s.nodes = 0;
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke(1);
        s.days = 0;
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke(1);
        s.epoch_days = s.days + 1;
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke(1);
        s.dt = Seconds::new(7.0); // does not divide 86 400
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke(1);
        s.latitude_deg = 80.0;
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke(1);
        s.drift.dust_per_year = 0.9;
        assert!(s.validate().is_err());
        let mut s = CampaignSpec::smoke(1);
        s.faults.probability = 1.5;
        assert!(s.validate().is_err());
    }

    #[test]
    fn labels_round_trip() {
        for c in Climate::ALL {
            assert_eq!(Climate::parse(c.label()), Some(c));
        }
        for l in LoadClass::ALL {
            assert_eq!(LoadClass::parse(l.label()), Some(l));
            assert!(l.build().is_ok());
        }
        assert!(Climate::parse("hurricane").is_none());
        assert!(LoadClass::parse("toaster").is_none());
    }

    #[test]
    fn climates_build_weather_and_season() {
        for c in Climate::ALL {
            assert!(c.weather(1).is_ok());
            assert!(c.season(30.0).is_ok());
            assert!(c.season(80.0).is_err());
        }
    }
}
