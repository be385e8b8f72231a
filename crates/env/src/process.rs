//! Seeded stochastic processes used to texture the light profiles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eh_units::Error;

/// A discrete-time Ornstein-Uhlenbeck (mean-reverting) process, used for
/// cloud cover and similar slowly varying multiplicative factors.
///
/// ```
/// use eh_env::process::OrnsteinUhlenbeck;
///
/// let mut ou = OrnsteinUhlenbeck::new(0.0, 600.0, 0.4, 7)?;
/// let x = ou.step(1.0);
/// assert!(x.is_finite());
/// # Ok::<(), eh_units::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    mean: f64,
    correlation_time: f64,
    sigma: f64,
    state: f64,
    rng: StdRng,
}

impl OrnsteinUhlenbeck {
    /// Creates a process reverting to `mean` with the given correlation
    /// time (seconds) and stationary standard deviation `sigma`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive correlation time or negative sigma.
    pub fn new(mean: f64, correlation_time: f64, sigma: f64, seed: u64) -> Result<Self, Error> {
        if !(correlation_time.is_finite() && correlation_time > 0.0) {
            return Err(Error::InvalidParameter {
                name: "correlation_time",
                value: correlation_time,
            });
        }
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(Self {
            mean,
            correlation_time,
            sigma,
            state: mean,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Advances the process by `dt` seconds and returns the new state.
    pub fn step(&mut self, dt: f64) -> f64 {
        let alpha = (-dt / self.correlation_time).exp();
        // Exact discretisation of the OU process.
        let noise_std = self.sigma * (1.0 - alpha * alpha).sqrt();
        let gauss: f64 = self.sample_standard_normal();
        self.state = self.mean + (self.state - self.mean) * alpha + noise_std * gauss;
        self.state
    }

    /// The current state without advancing.
    pub fn state(&self) -> f64 {
        self.state
    }

    fn sample_standard_normal(&mut self) -> f64 {
        // Box-Muller; both uniforms strictly in (0, 1].
        let u1: f64 = 1.0 - self.rng.gen::<f64>();
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// A random telegraph process: switches between 0 and 1 with exponential
/// dwell times. Used for occupancy shadowing (someone leaning over the
/// desk) and door/blind events.
#[derive(Debug, Clone)]
pub struct RandomTelegraph {
    rate_up: f64,
    rate_down: f64,
    state: bool,
    rng: StdRng,
}

impl RandomTelegraph {
    /// Creates a telegraph with mean dwell `1/rate_up` seconds in the low
    /// state and `1/rate_down` seconds in the high state.
    ///
    /// # Errors
    ///
    /// Rejects non-positive rates.
    pub fn new(rate_up: f64, rate_down: f64, seed: u64) -> Result<Self, Error> {
        for (name, v) in [("rate_up", rate_up), ("rate_down", rate_down)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(Error::InvalidParameter { name, value: v });
            }
        }
        Ok(Self {
            rate_up,
            rate_down,
            state: false,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Advances by `dt` seconds and returns the (possibly flipped) state.
    pub fn step(&mut self, dt: f64) -> bool {
        let rate = if self.state {
            self.rate_down
        } else {
            self.rate_up
        };
        let p_flip = 1.0 - (-rate * dt).exp();
        if self.rng.gen::<f64>() < p_flip {
            self.state = !self.state;
        }
        self.state
    }

    /// The current state without advancing.
    pub fn state(&self) -> bool {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ou_validation() {
        assert!(OrnsteinUhlenbeck::new(0.0, 0.0, 1.0, 1).is_err());
        assert!(OrnsteinUhlenbeck::new(0.0, 1.0, -1.0, 1).is_err());
    }

    #[test]
    fn ou_is_deterministic_per_seed() {
        let run = |seed| {
            let mut ou = OrnsteinUhlenbeck::new(0.0, 10.0, 1.0, seed).unwrap();
            (0..100).map(|_| ou.step(1.0)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn ou_reverts_to_mean() {
        let mut ou = OrnsteinUhlenbeck::new(3.0, 5.0, 0.1, 42).unwrap();
        // Start far away.
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            sum += ou.step(1.0);
        }
        let avg = sum / n as f64;
        assert!((avg - 3.0).abs() < 0.1, "long-run mean = {avg}");
    }

    #[test]
    fn ou_zero_sigma_is_deterministic_decay() {
        let mut ou = OrnsteinUhlenbeck::new(0.0, 10.0, 0.0, 1).unwrap();
        // state starts at mean; stays exactly there.
        for _ in 0..10 {
            assert_eq!(ou.step(1.0), 0.0);
        }
    }

    #[test]
    fn telegraph_validation_and_flipping() {
        assert!(RandomTelegraph::new(0.0, 1.0, 1).is_err());
        let mut tg = RandomTelegraph::new(1.0, 1.0, 9).unwrap();
        let mut highs = 0;
        for _ in 0..10_000 {
            if tg.step(0.5) {
                highs += 1;
            }
        }
        // Symmetric rates: roughly half the time high.
        let frac = highs as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.1, "high fraction = {frac}");
    }

    #[test]
    fn telegraph_deterministic_per_seed() {
        let run = |seed| {
            let mut tg = RandomTelegraph::new(0.3, 0.7, seed).unwrap();
            (0..200).map(|_| tg.step(1.0)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }
}
