//! Error types for the serving layer.

use std::fmt;

/// A configuration variable that failed strict parsing: a value that
/// does not parse or is not UTF-8, or an `EH_SERVE_*` name the service
/// does not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// Where the value came from (`EH_SERVE_SIM_WORKERS`, ...).
    pub source: String,
    /// The rejected raw value, lossily decoded when it is not UTF-8.
    pub raw: String,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid value {:?} for {}: expected {}",
            self.raw, self.source, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Errors raised while accepting, validating, computing or persisting a
/// what-if request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request body was not well-formed JSON or violated the
    /// request schema; the message is safe to echo to the client.
    BadRequest(String),
    /// The underlying fleet simulation or endurance campaign failed.
    Simulation(eh_units::Error),
    /// A socket / filesystem operation failed (message carries the
    /// `std::io` rendering — `io::Error` itself is not `Clone`, and
    /// the response cache hands one outcome to every waiting request).
    Io(String),
    /// An environment/CLI configuration value failed strict parsing.
    Env(EnvError),
    /// The request combined features the service cannot honour (for
    /// example streaming, and so checkpointing, an obs-carrying
    /// what-if).
    Unsupported(&'static str),
    /// A checkpoint file existed but failed validation and was
    /// discarded; the path is reported for the operator.
    Checkpoint(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Simulation(e) => write!(f, "simulation: {e}"),
            ServeError::Io(msg) => write!(f, "i/o: {msg}"),
            ServeError::Env(e) => write!(f, "configuration: {e}"),
            ServeError::Unsupported(what) => write!(f, "unsupported: {what}"),
            ServeError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<eh_units::Error> for ServeError {
    fn from(e: eh_units::Error) -> Self {
        ServeError::Simulation(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

impl From<EnvError> for ServeError {
    fn from(e: EnvError) -> Self {
        ServeError::Env(e)
    }
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::Unsupported(_) => 422,
            _ => 500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_and_messages() {
        let bad = ServeError::BadRequest("nodes must be > 0".into());
        assert_eq!(bad.status(), 400);
        assert!(bad.to_string().contains("nodes must be > 0"));
        assert_eq!(ServeError::Unsupported("x").status(), 422);
        let empty: ServeError = eh_units::Error::EmptyFleet.into();
        assert_eq!(empty.status(), 500);
        assert!(empty.to_string().contains("no node outcomes"));
        let io: ServeError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }
}
