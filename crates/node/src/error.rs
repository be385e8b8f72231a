//! Error type for the node crate.

use std::error::Error;
use std::fmt;

use eh_core::CoreError;
use eh_env::EnvError;
use eh_pv::PvError;

/// Errors returned by node simulations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NodeError {
    /// An underlying core system error.
    Core(CoreError),
    /// An underlying PV model error.
    Pv(PvError),
    /// An underlying environment error.
    Env(EnvError),
    /// A simulation parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An observability invariant failed (e.g. the energy ledger's
    /// conservation check against the closed-loop totals).
    Obs(eh_obs::ObsError),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Core(e) => write!(f, "core system: {e}"),
            NodeError::Pv(e) => write!(f, "pv model: {e}"),
            NodeError::Env(e) => write!(f, "environment: {e}"),
            NodeError::InvalidParameter { name, value } => {
                write!(f, "invalid simulation parameter {name} = {value}")
            }
            NodeError::Obs(e) => write!(f, "observability: {e}"),
        }
    }
}

impl Error for NodeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NodeError::Core(e) => Some(e),
            NodeError::Pv(e) => Some(e),
            NodeError::Env(e) => Some(e),
            NodeError::InvalidParameter { .. } => None,
            NodeError::Obs(e) => Some(e),
        }
    }
}

impl From<eh_obs::ObsError> for NodeError {
    fn from(e: eh_obs::ObsError) -> Self {
        NodeError::Obs(e)
    }
}

impl From<CoreError> for NodeError {
    fn from(e: CoreError) -> Self {
        NodeError::Core(e)
    }
}

impl From<PvError> for NodeError {
    fn from(e: PvError) -> Self {
        NodeError::Pv(e)
    }
}

impl From<EnvError> for NodeError {
    fn from(e: EnvError) -> Self {
        NodeError::Env(e)
    }
}

impl From<eh_sim::SimError> for NodeError {
    fn from(e: eh_sim::SimError) -> Self {
        let eh_sim::SimError::InvalidParameter { name, value } = e;
        NodeError::InvalidParameter { name, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e: NodeError = PvError::SolveFailed { what: "mpp" }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("mpp"));
        let e = NodeError::InvalidParameter {
            name: "dt",
            value: -1.0,
        };
        assert!(e.source().is_none());
    }
}
