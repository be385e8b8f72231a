//! Error type for the analog substrate.

use std::error::Error;
use std::fmt;

/// Errors returned by analog component constructors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogError {
    /// A component parameter was non-physical.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for AnalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalogError::InvalidParameter { name, value } => {
                write!(f, "invalid analog parameter {name} = {value}")
            }
        }
    }
}

impl Error for AnalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AnalogError::InvalidParameter {
            name: "on_resistance",
            value: -2.0,
        };
        assert!(e.to_string().contains("on_resistance"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<T: Error + Send + Sync>() {}
        assert_err::<AnalogError>();
    }
}
