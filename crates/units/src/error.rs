//! The workspace's one error type.

use std::fmt;

/// Everything a library crate of this workspace can fail with.
///
/// The reproduction fails in five ways, one variant each, whichever
/// layer raises it: a fleet caller sees the PV model's
/// [`Error::SolveFailed`] exactly as the PV crate raised it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A parameter was outside its physical range (negative, zero where
    /// a positive value is required, non-finite, or inconsistent with
    /// another parameter), or an operating point was outside the model's
    /// valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value (NaN when the problem is structural).
        value: f64,
    },
    /// A single-diode solve failed to settle on a root.
    SolveFailed {
        /// Which solve failed (e.g. `"current"`, `"voc"`).
        what: &'static str,
    },
    /// A series was too short for the requested analysis.
    SeriesTooShort {
        /// Samples available.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// The energy ledger's bucket sum disagrees with the independently
    /// accumulated closed-loop total beyond the requested tolerance.
    ConservationViolation {
        /// Sum of the ledger buckets, in joules.
        ledger_total_j: f64,
        /// The closed-loop total the ledger was checked against, in
        /// joules.
        closed_loop_total_j: f64,
        /// The symmetric relative error between the two.
        relative_error: f64,
        /// The tolerance the check was run with.
        tolerance: f64,
    },
    /// A fleet run produced no node outcomes to aggregate (an empty
    /// population, or every shard erroring out before producing one).
    EmptyFleet,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            Error::SolveFailed { what } => write!(f, "PV {what} solve failed to converge"),
            Error::SeriesTooShort { have, need } => {
                write!(f, "series too short: have {have} samples, need {need}")
            }
            Error::ConservationViolation {
                ledger_total_j,
                closed_loop_total_j,
                relative_error,
                tolerance,
            } => write!(
                f,
                "energy ledger violates conservation: buckets sum to {ledger_total_j} J \
                 but the closed loop accumulated {closed_loop_total_j} J \
                 (relative error {relative_error:.3e} > tolerance {tolerance:.3e})"
            ),
            Error::EmptyFleet => write!(f, "fleet run produced no node outcomes to aggregate"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_what_failed_and_is_send_sync() {
        let e = Error::InvalidParameter {
            name: "capacity",
            value: -1.0,
        };
        assert_eq!(e.to_string(), "invalid parameter capacity = -1");
        let e = Error::SolveFailed { what: "voc" };
        assert_eq!(e.to_string(), "PV voc solve failed to converge");
        let e = Error::SeriesTooShort { have: 3, need: 10 };
        assert_eq!(e.to_string(), "series too short: have 3 samples, need 10");
        let e = Error::ConservationViolation {
            ledger_total_j: 1.0,
            closed_loop_total_j: 2.0,
            relative_error: 0.5,
            tolerance: 1e-9,
        };
        assert_eq!(
            e.to_string(),
            "energy ledger violates conservation: buckets sum to 1 J but the closed \
             loop accumulated 2 J (relative error 5.000e-1 > tolerance 1.000e-9)"
        );
        assert_eq!(
            Error::EmptyFleet.to_string(),
            "fleet run produced no node outcomes to aggregate"
        );
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<Error>();
    }
}
