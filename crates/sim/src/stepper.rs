//! The [`Stepper`] trait: the one contract every simulated system
//! implements so the engine in [`crate::engine`] can drive it.

use eh_obs::Metrics;
use eh_units::{Lux, Seconds};

use crate::error::SimError;

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

/// What a stepper reports back after one step.
///
/// The key field is [`advanced`](Self::advanced): a stepper that stops
/// short of the planned `dt` (e.g. an event-driven stepper that stops at
/// the next timer edge) advances simulated time by that much only. The
/// engine clamps the value into `(0, dt]` so a buggy stepper can never
/// stall or overshoot the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutput {
    /// Simulated time actually consumed by this step.
    pub advanced: Seconds,
}

impl StepOutput {
    /// The step consumed the full planned `dt`.
    pub fn full(dt: Seconds) -> Self {
        Self { advanced: dt }
    }

    /// The step consumed only `actual` of the planned `dt` (a dwell,
    /// such as the stretch up to an event-driven stepper's next edge).
    pub fn dwell(actual: Seconds) -> Self {
        Self { advanced: actual }
    }
}

/// A system the simulation engine can advance through time.
///
/// Implementors own all domain state (converter, storage, tracker, …);
/// the engine owns the clock, the light lookup and the loop. `step`
/// receives the absolute simulation time `t`, the planned slice `dt`
/// (already clamped so `t + dt` never overruns the scenario) and the
/// environment sample, and returns how much time it really consumed.
pub trait Stepper {
    /// The stepper's own error type. Requiring `From<SimError>` lets the
    /// engine surface driver-level failures (bad `dt`, bad window)
    /// through the same channel as domain failures.
    type Error: From<SimError>;

    /// Advances the system by at most `dt`, returning the time consumed.
    fn step(
        &mut self,
        t: Seconds,
        dt: Seconds,
        input: &StepInput,
    ) -> Result<StepOutput, Self::Error>;

    /// The stepper's metric store, when observability is enabled.
    ///
    /// The engine uses this hook to fold its own loop statistics (step
    /// counts, dwell time) into the same store the stepper records its
    /// domain events into. The default is `None`: uninstrumented
    /// steppers pay nothing.
    fn recorder(&mut self) -> Option<&mut Metrics> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_carry_the_duration() {
        assert_eq!(StepOutput::full(Seconds::new(0.02)).advanced.value(), 0.02);
        assert_eq!(
            StepOutput::dwell(Seconds::new(0.039)).advanced.value(),
            0.039
        );
        assert_eq!(StepInput::new(Lux::new(500.0)).lux.value(), 500.0);
    }
}
