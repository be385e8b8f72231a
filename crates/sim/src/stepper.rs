//! The [`Stepper`] trait: the one contract every simulated system
//! implements so the engine in [`crate::engine`] can drive it.

use eh_obs::Metrics;
use eh_units::{Error, Lux, Seconds};

/// Environment sample handed to a stepper for one step.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct StepInput {
    /// Ambient illuminance at the step's start time.
    pub lux: Lux,
}

impl StepInput {
    /// Builds a step input from an illuminance sample.
    pub fn new(lux: Lux) -> Self {
        Self { lux }
    }
}

/// A system the simulation engine can advance through time.
///
/// Implementors own all domain state (converter, storage, tracker, …);
/// the engine owns the clock, the light lookup and the loop. `step`
/// receives the absolute simulation time `t`, the slice `dt` (the last
/// slice ends at the scenario's end) and the environment sample, and
/// advances the system across the whole slice. Anything that happens
/// inside a slice, such as a PULSE, is the stepper's to segment.
pub trait Stepper {
    /// Advances the system across the slice `[t, t + dt)`.
    ///
    /// # Errors
    ///
    /// Whatever the system fails with; [`drive`](crate::drive) returns
    /// it unchanged.
    fn step(&mut self, t: Seconds, dt: Seconds, input: &StepInput) -> Result<(), Error>;

    /// The stepper's metric store, when observability is enabled.
    ///
    /// The engine uses this hook to fold its own loop statistics (step
    /// count, simulated time) into the same store the stepper records
    /// its domain events into. The default is `None`: uninstrumented
    /// steppers pay nothing.
    fn recorder(&mut self) -> Option<&mut Metrics> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_carries_the_sample() {
        assert_eq!(StepInput::new(Lux::new(500.0)).lux.value(), 500.0);
    }
}
