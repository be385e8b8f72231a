//! Error type for the core system crate.

use std::error::Error;
use std::fmt;

use eh_analog::AnalogError;
use eh_converter::ConverterError;
use eh_env::EnvError;
use eh_pv::PvError;

/// Errors returned by the MPPT system and its runners.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An underlying PV model error.
    Pv(PvError),
    /// An underlying analog substrate error.
    Analog(AnalogError),
    /// An underlying converter error.
    Converter(ConverterError),
    /// An underlying environment error.
    Env(EnvError),
    /// A system-level parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Pv(e) => write!(f, "pv model: {e}"),
            CoreError::Analog(e) => write!(f, "analog substrate: {e}"),
            CoreError::Converter(e) => write!(f, "converter: {e}"),
            CoreError::Env(e) => write!(f, "environment: {e}"),
            CoreError::InvalidParameter { name, value } => {
                write!(f, "invalid system parameter {name} = {value}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Pv(e) => Some(e),
            CoreError::Analog(e) => Some(e),
            CoreError::Converter(e) => Some(e),
            CoreError::Env(e) => Some(e),
            CoreError::InvalidParameter { .. } => None,
        }
    }
}

impl From<PvError> for CoreError {
    fn from(e: PvError) -> Self {
        CoreError::Pv(e)
    }
}

impl From<AnalogError> for CoreError {
    fn from(e: AnalogError) -> Self {
        CoreError::Analog(e)
    }
}

impl From<ConverterError> for CoreError {
    fn from(e: ConverterError) -> Self {
        CoreError::Converter(e)
    }
}

impl From<EnvError> for CoreError {
    fn from(e: EnvError) -> Self {
        CoreError::Env(e)
    }
}

impl From<eh_sim::SimError> for CoreError {
    fn from(e: eh_sim::SimError) -> Self {
        let eh_sim::SimError::InvalidParameter { name, value } = e;
        CoreError::InvalidParameter { name, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sub_errors_with_source() {
        let e: CoreError = PvError::SolveFailed { what: "voc" }.into();
        assert!(e.to_string().contains("voc"));
        assert!(e.source().is_some());
        let e: CoreError = AnalogError::InvalidParameter {
            name: "on_resistance",
            value: -2.0,
        }
        .into();
        assert!(e.to_string().contains("on_resistance"));
        let e = CoreError::InvalidParameter {
            name: "alpha",
            value: 0.0,
        };
        assert!(e.source().is_none());
    }
}
