//! Fleet specifications: one base node design plus the declared,
//! seeded spread a production batch exhibits around it.

use eh_env::week::DayKind;
use eh_node::{DutyCycledLoad, StoreSpec};
use eh_pv::{presets, PvCell};
use eh_units::{Celsius, Error, Seconds};

/// Where a node of the fleet is deployed. The placement decides which
/// shared base light trace the node perturbs, the sign of its placement
/// offset, and its operating temperature (one memoized PV surface is
/// warmed per distinct temperature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Placement {
    /// Office desk next to the window: the shared office trace plus a
    /// positive skylight offset, slightly warm from the sun.
    WindowDesk,
    /// Interior office desk: the shared office trace minus an offset
    /// (further from the window), room temperature.
    InteriorDesk,
    /// Outdoor / semi-mobile deployment: the semi-mobile trace with the
    /// lunchtime excursion, warmest cell.
    Outdoor,
}

impl Placement {
    /// Every placement, in the fixed order used for indexing.
    pub const ALL: [Placement; 3] = [
        Placement::WindowDesk,
        Placement::InteriorDesk,
        Placement::Outdoor,
    ];

    /// Stable index of this placement in [`Placement::ALL`].
    pub fn index(self) -> usize {
        match self {
            Placement::WindowDesk => 0,
            Placement::InteriorDesk => 1,
            Placement::Outdoor => 2,
        }
    }

    /// The daily light scenario nodes of this placement share.
    pub fn day_kind(self) -> DayKind {
        match self {
            Placement::WindowDesk | Placement::InteriorDesk => DayKind::Office,
            Placement::Outdoor => DayKind::SemiMobile,
        }
    }

    /// The cell operating temperature of this placement. Distinct
    /// temperatures need distinct memoized PV surfaces, so the fleet
    /// runner warms exactly one per placement in use.
    pub fn cell_temperature(self) -> Celsius {
        match self {
            Placement::WindowDesk => Celsius::new(30.0),
            Placement::InteriorDesk => Celsius::new(25.0),
            Placement::Outdoor => Celsius::new(35.0),
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Placement::WindowDesk => "window desk",
            Placement::InteriorDesk => "interior desk",
            Placement::Outdoor => "outdoor",
        }
    }
}

/// Relative population weights of the three placements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementMix {
    weights: [f64; 3],
}

impl PlacementMix {
    /// Creates a mix with the given non-negative weights (any scale;
    /// they are normalised internally).
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative weights, an all-zero mix and
    /// weights whose sum overflows to infinity.
    pub fn new(window: f64, interior: f64, outdoor: f64) -> Result<Self, Error> {
        let weights = [window, interior, outdoor];
        for &w in &weights {
            if !(w.is_finite() && w >= 0.0) {
                return Err(Error::InvalidParameter {
                    name: "placement_weight",
                    value: w,
                });
            }
        }
        let sum: f64 = weights.iter().sum();
        if !(sum.is_finite() && sum > 0.0) {
            return Err(Error::InvalidParameter {
                name: "placement_weight_sum",
                value: sum,
            });
        }
        Ok(Self { weights })
    }

    /// The deployment the paper targets: mostly interior desks, a
    /// quarter by the window, a modest outdoor/mobile contingent.
    pub fn mixed_indoor_outdoor() -> Self {
        Self {
            weights: [0.25, 0.60, 0.15],
        }
    }

    /// The normalised weight of a placement.
    pub fn weight(&self, p: Placement) -> f64 {
        self.weights[p.index()] / self.weights.iter().sum::<f64>()
    }

    /// Maps a uniform draw in `[0, 1)` to a placement by cumulative
    /// weight.
    pub fn pick(&self, u: f64) -> Placement {
        let sum: f64 = self.weights.iter().sum();
        let target = u.clamp(0.0, 1.0) * sum;
        let mut acc = 0.0;
        for p in Placement::ALL {
            acc += self.weights[p.index()];
            if target < acc {
                return p;
            }
        }
        Placement::Outdoor
    }
}

/// The declared manufacturing and deployment spread of a fleet batch,
/// mirroring the component budget of the single-build `tolerance_study`:
/// the divider sets the FOCV factor `k`, the astable's film capacitor
/// and resistors set the hold period and PULSE width, and the optical
/// terms (cell photocurrent binning, dust/shading, desk placement) land
/// on the illuminance each node sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// ± relative spread of the cell's optical gain (photocurrent
    /// binning); folded into the per-node illuminance gain so the whole
    /// fleet shares one memoized PV surface per `(model, temperature)`.
    pub pv_optical_pct: f64,
    /// ± relative spread of the FOCV factor `k` (divider resistors after
    /// trimming).
    pub divider_pct: f64,
    /// ± relative spread of the astable timing capacitor (film C); it
    /// scales hold period and PULSE width together.
    pub capacitor_pct: f64,
    /// ± relative spread of each astable timing resistor (independent
    /// for the charge and discharge paths).
    pub resistor_pct: f64,
    /// Maximum dust/shading derating; each node draws its derate
    /// uniformly from `[0, derate_max]`.
    pub derate_max: f64,
    /// Maximum magnitude of the placement illuminance offset, in lux.
    pub offset_lux: f64,
}

impl Tolerances {
    /// The production budget used throughout: ±5 % optical binning,
    /// ±2 % trimmed divider, ±10 % film capacitor, ±5 % resistors, up to
    /// 30 % dust/shading derating, up to 150 lx of placement offset.
    pub fn production_batch() -> Self {
        Self {
            pv_optical_pct: 0.05,
            divider_pct: 0.02,
            capacitor_pct: 0.10,
            resistor_pct: 0.05,
            derate_max: 0.30,
            offset_lux: 150.0,
        }
    }

    /// A zero-spread batch: every node is the golden prototype.
    pub fn none() -> Self {
        Self {
            pv_optical_pct: 0.0,
            divider_pct: 0.0,
            capacitor_pct: 0.0,
            resistor_pct: 0.0,
            derate_max: 0.0,
            offset_lux: 0.0,
        }
    }

    /// Validates the budget: every term finite and non-negative, the
    /// relative spreads below 50 % (beyond which a "tolerance" is a
    /// different part), the derating below 100 %.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), Error> {
        let relative = [
            ("pv_optical_pct", self.pv_optical_pct),
            ("divider_pct", self.divider_pct),
            ("capacitor_pct", self.capacitor_pct),
            ("resistor_pct", self.resistor_pct),
        ];
        for (name, v) in relative {
            if !(v.is_finite() && (0.0..0.5).contains(&v)) {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        if !(self.derate_max.is_finite() && (0.0..1.0).contains(&self.derate_max)) {
            return Err(Error::InvalidParameter {
                name: "derate_max",
                value: self.derate_max,
            });
        }
        if !(self.offset_lux.is_finite() && self.offset_lux >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "offset_lux",
                value: self.offset_lux,
            });
        }
        Ok(())
    }
}

/// A complete, deterministic description of a heterogeneous fleet: the
/// base node design, how many instances to stamp out, the seed that
/// fixes every per-node variation, and the shared scenario parameters.
///
/// The same spec always produces the same population and — through the
/// order-independent sharded merge in [`crate::FleetRunner`] — the same
/// [`crate::FleetReport`], bit for bit, at any worker count.
///
/// ```
/// use eh_fleet::{FleetSpec, Placement};
///
/// let spec = FleetSpec::mixed_indoor_outdoor(50, 2011)?;
/// let population = spec.population()?;
/// assert_eq!(population.len(), 50);
/// // Seeded: the same spec re-derives the identical population.
/// assert_eq!(population, FleetSpec::mixed_indoor_outdoor(50, 2011)?.population()?);
/// // Heterogeneous: hold periods spread around the paper's 69 s.
/// let periods: Vec<f64> = population.iter().map(|n| n.sample_period.value()).collect();
/// assert!(periods.iter().any(|&p| (p - 69.0).abs() > 0.5));
/// // Mixed placements appear.
/// assert!(population.iter().any(|n| n.placement == Placement::Outdoor));
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Display name of the deployment.
    pub name: String,
    /// Number of nodes to instantiate.
    pub nodes: u32,
    /// Seed fixing the entire population and the shared day traces.
    pub seed: u64,
    /// The base PV module (temperature is overridden per placement).
    pub cell: PvCell,
    /// Relative placement weights.
    pub placements: PlacementMix,
    /// Declared per-node spread.
    pub tolerances: Tolerances,
    /// Energy store stamped out fresh for every node.
    pub store: StoreSpec,
    /// Optional duty-cycled node load (cloned per node).
    pub load: Option<DutyCycledLoad>,
    /// Simulation step.
    pub dt: Seconds,
    /// Decimation factor applied to the 1 Hz day profiles before
    /// simulation (60 puts the trace on a 1-minute grid). It must divide
    /// 86 400: a day profile spans both midnights, and only a divisor
    /// keeps the closing midnight sample, so any other factor would
    /// silently shorten the simulated day.
    pub trace_decimate: usize,
    /// Whether node simulations answer PV queries from the shared
    /// memoized surface: the surface pool warms each placement's cell
    /// under this policy, and the node engine follows the cell's.
    pub pv_cache: bool,
    /// Whether every node simulation collects deterministic metrics,
    /// folded into the aggregate [`crate::FleetReport`]'s store.
    pub obs: bool,
}

/// Seconds in the 1 Hz day profiles a fleet's traces are decimated from.
const DAY_SECONDS: usize = 86_400;

impl FleetSpec {
    /// The reference deployment: `nodes` AM-1815 nodes in the
    /// [`PlacementMix::mixed_indoor_outdoor`] mix with the
    /// [`Tolerances::production_batch`] spread, a 0.22 F supercapacitor
    /// deployed at 4 V, the typical sensor-node load, a 1-minute trace
    /// grid and a 60 s step, PV cache on.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors the
    /// fallible constructors it composes.
    pub fn mixed_indoor_outdoor(nodes: u32, seed: u64) -> Result<Self, Error> {
        Ok(Self {
            name: format!("mixed indoor/outdoor x{nodes}"),
            nodes,
            seed,
            cell: presets::sanyo_am1815(),
            placements: PlacementMix::mixed_indoor_outdoor(),
            tolerances: Tolerances::production_batch(),
            store: StoreSpec::supercapacitor_022f_at(4.0),
            load: Some(DutyCycledLoad::typical_sensor_node()?),
            dt: Seconds::new(60.0),
            trace_decimate: 60,
            pv_cache: true,
            obs: false,
        })
    }

    /// Validates the spec's scalar parameters (the tolerance budget, the
    /// node count, the step, and a decimation that divides the day).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), Error> {
        if self.nodes == 0 {
            return Err(Error::InvalidParameter {
                name: "nodes",
                value: 0.0,
            });
        }
        if !(self.dt.value().is_finite() && self.dt.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "dt",
                value: self.dt.value(),
            });
        }
        // `is_multiple_of(0)` is false for a non-zero day: 0 is rejected.
        if !DAY_SECONDS.is_multiple_of(self.trace_decimate) {
            return Err(Error::InvalidParameter {
                name: "trace_decimate",
                value: self.trace_decimate as f64,
            });
        }
        self.tolerances.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_mix_picks_by_cumulative_weight() {
        let mix = PlacementMix::new(1.0, 2.0, 1.0).unwrap();
        assert_eq!(mix.pick(0.0), Placement::WindowDesk);
        assert_eq!(mix.pick(0.26), Placement::InteriorDesk);
        assert_eq!(mix.pick(0.74), Placement::InteriorDesk);
        assert_eq!(mix.pick(0.80), Placement::Outdoor);
        assert_eq!(mix.pick(0.999), Placement::Outdoor);
        assert!((mix.weight(Placement::InteriorDesk) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn placement_mix_validation() {
        assert!(PlacementMix::new(-1.0, 1.0, 1.0).is_err());
        assert!(PlacementMix::new(f64::NAN, 1.0, 1.0).is_err());
        assert!(PlacementMix::new(0.0, 0.0, 0.0).is_err());
        // Each weight is finite, but the sum overflows: `pick` would
        // scale its draw by infinity and put every node outdoors.
        assert_eq!(
            PlacementMix::new(1e308, 1e308, 0.0),
            Err(Error::InvalidParameter {
                name: "placement_weight_sum",
                value: f64::INFINITY,
            })
        );
        assert!(PlacementMix::new(0.0, 1.0, 0.0).is_ok());
    }

    #[test]
    fn tolerance_validation() {
        assert!(Tolerances::production_batch().validate().is_ok());
        assert!(Tolerances::none().validate().is_ok());
        let mut t = Tolerances::production_batch();
        t.divider_pct = 0.5;
        assert!(t.validate().is_err());
        t = Tolerances::production_batch();
        t.derate_max = 1.0;
        assert!(t.validate().is_err());
        t = Tolerances::production_batch();
        t.offset_lux = f64::NAN;
        assert!(t.validate().is_err());
    }

    #[test]
    fn spec_validation() {
        let mut spec = FleetSpec::mixed_indoor_outdoor(10, 1).unwrap();
        assert!(spec.validate().is_ok());
        spec.nodes = 0;
        assert!(spec.validate().is_err());
        let mut spec = FleetSpec::mixed_indoor_outdoor(10, 1).unwrap();
        spec.trace_decimate = 0;
        assert!(spec.validate().is_err());
        let mut spec = FleetSpec::mixed_indoor_outdoor(10, 1).unwrap();
        spec.dt = Seconds::ZERO;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn trace_decimate_must_divide_the_day() {
        // A non-divisor used to pass and drop the day's tail: factor 7
        // simulated 86 394 s, factor 50 000 only 50 000 s.
        let mut spec = FleetSpec::mixed_indoor_outdoor(2, 1).unwrap();
        for factor in [7, 50_000, 86_401] {
            spec.trace_decimate = factor;
            assert_eq!(
                spec.validate(),
                Err(Error::InvalidParameter {
                    name: "trace_decimate",
                    value: factor as f64,
                })
            );
        }
        for factor in [1, 60, 600, 3600, 86_400] {
            spec.trace_decimate = factor;
            assert!(spec.validate().is_ok(), "factor {factor}");
        }
    }

    #[test]
    fn placements_have_distinct_temperatures() {
        let mut temps: Vec<f64> = Placement::ALL
            .iter()
            .map(|p| {
                let k: eh_units::Kelvin = p.cell_temperature().into();
                k.value()
            })
            .collect();
        temps.sort_by(f64::total_cmp);
        temps.dedup();
        assert_eq!(temps.len(), 3, "placement temperatures must be distinct");
    }
}
