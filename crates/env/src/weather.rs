//! Seeded daily weather regimes as a three-state Markov chain.
//!
//! Endurance campaigns attenuate each day's clear-sky [`SolarDay`]
//! (from [`crate::season::SeasonalSolar`]) by a weather factor. The
//! regime sequence comes from a first-order Markov chain over
//! [`WeatherKind`] with a validated 3×3 transition matrix, stepped once
//! per simulated day.
//!
//! # Draw budget (order-pinning contract)
//!
//! Like `FleetSpec`'s nine-draws-per-node population contract, the
//! weather stream is **order-pinned**: [`WeatherModel::step_day`] draws
//! **exactly one** uniform from its RNG per call, unconditionally,
//! *before* any branching on the transition matrix. Consequences:
//!
//! * the day-`d` regime depends only on `(matrix, seed, d)` — never on
//!   how the caller batches or shards days;
//! * the sequence for `n` days is a strict prefix of the sequence for
//!   `n + m` days (prefix stability);
//! * [`WeatherModel::draws`] after `k` steps is exactly `k` for *any*
//!   matrix, which the regression test below pins so a future edit
//!   cannot silently make the draw count state-dependent.
//!
//! [`SolarDay`]: crate::solar::SolarDay

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eh_units::Error;

/// A daily weather regime, mapped to a broadband illuminance
/// attenuation factor applied on top of the clear-sky profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeatherKind {
    /// Clear sky: no attenuation.
    Clear,
    /// Overcast: heavy cloud, ~35 % of clear-sky illuminance.
    Overcast,
    /// Monsoon/storm: dense cloud and rain, ~12 % of clear-sky.
    Monsoon,
}

impl WeatherKind {
    /// All regimes in matrix row/column order.
    pub const ALL: [WeatherKind; 3] = [
        WeatherKind::Clear,
        WeatherKind::Overcast,
        WeatherKind::Monsoon,
    ];

    /// Multiplicative attenuation applied to clear-sky illuminance.
    pub fn attenuation(self) -> f64 {
        match self {
            WeatherKind::Clear => 1.0,
            WeatherKind::Overcast => 0.35,
            WeatherKind::Monsoon => 0.12,
        }
    }

    /// Index into a transition-matrix row/column.
    fn index(self) -> usize {
        match self {
            WeatherKind::Clear => 0,
            WeatherKind::Overcast => 1,
            WeatherKind::Monsoon => 2,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            WeatherKind::Clear => "clear",
            WeatherKind::Overcast => "overcast",
            WeatherKind::Monsoon => "monsoon",
        }
    }
}

/// A seeded first-order Markov chain over [`WeatherKind`], stepped once
/// per simulated day.
///
/// ```
/// use eh_env::weather::WeatherModel;
///
/// let mut w = WeatherModel::temperate(2011)?;
/// let fortnight: Vec<_> = (0..14).map(|_| w.step_day()).collect();
/// assert_eq!(w.draws(), 14);
/// assert_eq!(fortnight.len(), 14);
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct WeatherModel {
    /// `matrix[from][to]`: P(tomorrow = to | today = from). Rows sum to 1.
    matrix: [[f64; 3]; 3],
    state: WeatherKind,
    rng: StdRng,
    draws: u64,
}

impl WeatherModel {
    /// Creates a chain from a row-stochastic transition matrix, an
    /// initial regime and a seed.
    ///
    /// # Errors
    ///
    /// Rejects matrices with negative/non-finite entries or rows that do
    /// not sum to 1 within 1e-9.
    pub fn new(matrix: [[f64; 3]; 3], initial: WeatherKind, seed: u64) -> Result<Self, Error> {
        for row in &matrix {
            let mut sum = 0.0;
            for &p in row {
                if !(p.is_finite() && p >= 0.0) {
                    return Err(Error::InvalidParameter {
                        name: "weather_transition",
                        value: p,
                    });
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(Error::InvalidParameter {
                    name: "weather_row_sum",
                    value: sum,
                });
            }
        }
        Ok(Self {
            matrix,
            state: initial,
            rng: StdRng::seed_from_u64(seed),
            draws: 0,
        })
    }

    /// Temperate maritime climate (UK-like): sticky clear and overcast
    /// regimes, rare short storms.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`WeatherModel::new`].
    pub fn temperate(seed: u64) -> Result<Self, Error> {
        Self::new(
            [[0.70, 0.27, 0.03], [0.35, 0.55, 0.10], [0.30, 0.45, 0.25]],
            WeatherKind::Clear,
            seed,
        )
    }

    /// Monsoon-season climate (Nepal-like wet season): long storm runs
    /// broken by overcast spells, clear days scarce.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`WeatherModel::new`].
    pub fn monsoon_season(seed: u64) -> Result<Self, Error> {
        Self::new(
            [[0.30, 0.45, 0.25], [0.10, 0.50, 0.40], [0.05, 0.30, 0.65]],
            WeatherKind::Overcast,
            seed,
        )
    }

    /// Arid climate: overwhelmingly clear, storms vanishingly rare.
    ///
    /// # Errors
    ///
    /// Never fails for these constants; the `Result` mirrors
    /// [`WeatherModel::new`].
    pub fn arid(seed: u64) -> Result<Self, Error> {
        Self::new(
            [[0.92, 0.07, 0.01], [0.60, 0.35, 0.05], [0.50, 0.40, 0.10]],
            WeatherKind::Clear,
            seed,
        )
    }

    /// The current regime without advancing.
    pub fn state(&self) -> WeatherKind {
        self.state
    }

    /// Total uniform draws consumed so far — always equal to the number
    /// of [`step_day`](Self::step_day) calls, by contract.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Advances one day and returns the new regime.
    ///
    /// Draws exactly one uniform, unconditionally, before branching —
    /// see the module docs for why this is load-bearing.
    pub fn step_day(&mut self) -> WeatherKind {
        let u: f64 = self.rng.gen();
        self.draws += 1;
        let row = &self.matrix[self.state.index()];
        // Inverse-CDF over the row; the final arm absorbs rounding so a
        // u of exactly 1 − ε still lands in a valid state.
        let mut acc = 0.0;
        let mut next = *WeatherKind::ALL.last().expect("non-empty");
        for (kind, &p) in WeatherKind::ALL.iter().zip(row.iter()) {
            acc += p;
            if u < acc {
                next = *kind;
                break;
            }
        }
        self.state = next;
        self.state
    }

    /// The attenuation sequence for `days` consecutive days, starting
    /// from the day after the initial state.
    pub fn attenuations(&mut self, days: usize) -> Vec<f64> {
        (0..days).map(|_| self.step_day().attenuation()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(preset: fn(u64) -> Result<WeatherModel, Error>, days: usize) -> Vec<WeatherKind> {
        let mut w = preset(2011).unwrap();
        (0..days).map(|_| w.step_day()).collect()
    }

    #[test]
    fn draw_budget_is_one_per_day_for_any_matrix() {
        // Satellite-5 regression: the draw count must be exactly the day
        // count regardless of the matrix shape — a state-dependent draw
        // (e.g. rejection sampling, or skipping the draw for absorbing
        // rows) would break prefix stability across campaign lengths.
        let matrices = [
            WeatherModel::temperate(7).unwrap(),
            WeatherModel::monsoon_season(7).unwrap(),
            WeatherModel::arid(7).unwrap(),
            // Degenerate absorbing matrix: stays Clear forever. Still
            // must burn one draw per day.
            WeatherModel::new(
                [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                WeatherKind::Clear,
                7,
            )
            .unwrap(),
        ];
        for mut w in matrices {
            for day in 1..=365u64 {
                w.step_day();
                assert_eq!(w.draws(), day);
            }
        }
    }

    #[test]
    fn sequences_are_prefix_stable() {
        for preset in [
            WeatherModel::temperate as fn(u64) -> _,
            WeatherModel::monsoon_season,
            WeatherModel::arid,
        ] {
            let short = sequence(preset, 30);
            let long = sequence(preset, 365);
            assert_eq!(&long[..30], &short[..]);
        }
    }

    #[test]
    fn same_seed_same_sequence_distinct_seeds_differ() {
        let a = sequence(WeatherModel::temperate, 120);
        let b = sequence(WeatherModel::temperate, 120);
        assert_eq!(a, b);
        let mut other = WeatherModel::temperate(2012).unwrap();
        let c: Vec<_> = (0..120).map(|_| other.step_day()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn climates_have_the_intended_character() {
        let count = |seq: &[WeatherKind], k: WeatherKind| seq.iter().filter(|&&s| s == k).count();
        let temperate = sequence(WeatherModel::temperate, 730);
        let monsoon = sequence(WeatherModel::monsoon_season, 730);
        let arid = sequence(WeatherModel::arid, 730);
        assert!(count(&arid, WeatherKind::Clear) > count(&temperate, WeatherKind::Clear));
        assert!(count(&monsoon, WeatherKind::Monsoon) > count(&temperate, WeatherKind::Monsoon));
        assert!(count(&monsoon, WeatherKind::Clear) < count(&monsoon, WeatherKind::Monsoon));
    }

    #[test]
    fn invalid_matrices_are_rejected() {
        // Row does not sum to 1.
        assert!(WeatherModel::new(
            [[0.5, 0.4, 0.0], [0.3, 0.6, 0.1], [0.3, 0.4, 0.3]],
            WeatherKind::Clear,
            1,
        )
        .is_err());
        // Negative probability.
        assert!(WeatherModel::new(
            [[1.1, -0.1, 0.0], [0.3, 0.6, 0.1], [0.3, 0.4, 0.3]],
            WeatherKind::Clear,
            1,
        )
        .is_err());
        assert!(WeatherModel::new(
            [[f64::NAN, 0.5, 0.5], [0.3, 0.6, 0.1], [0.3, 0.4, 0.3]],
            WeatherKind::Clear,
            1,
        )
        .is_err());
    }

    #[test]
    fn attenuations_match_states() {
        let mut a = WeatherModel::temperate(99).unwrap();
        let mut b = WeatherModel::temperate(99).unwrap();
        let atts = a.attenuations(60);
        let states: Vec<_> = (0..60).map(|_| b.step_day()).collect();
        for (att, st) in atts.iter().zip(states.iter()) {
            assert_eq!(*att, st.attenuation());
        }
    }
}
