//! Error type for the simulation engine.

use std::error::Error;
use std::fmt;

/// Errors raised by the simulation engine itself, before a stepper's own
/// error type gets involved.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An engine parameter (time step, duration, shard size) was
    /// non-positive or non-finite.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SimError::InvalidParameter { name, value } = self;
        write!(f, "invalid simulation parameter `{name}`: {value}")
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parameter() {
        let e = SimError::InvalidParameter {
            name: "dt",
            value: -1.0,
        };
        assert!(e.to_string().contains("dt"));
        assert!(e.to_string().contains("-1"));
    }
}
