//! Strict environment/CLI value parsing, shared by the service's
//! `EH_SERVE_*` variables and the bench bins' `EH_WORKERS`/`--workers`
//! overrides.
//!
//! An unparseable override used to be *silently ignored* by the bench
//! helpers, so `EH_WORKERS=lots` degraded to the auto-sized default and
//! a scaling study quietly measured the wrong configuration. Here a bad
//! value is a hard, named error: the caller learns which knob, which
//! value, and what was expected.

use std::error::Error;
use std::fmt;

/// A configuration value that failed strict parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// Where the value came from (`EH_WORKERS`, `--workers`, ...).
    pub source: String,
    /// The rejected raw value.
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

impl Error for EnvError {}

/// Parses a strictly positive `usize` (worker counts, queue and cache
/// capacities, shard sizes).
///
/// # Errors
///
/// Rejects empty, non-numeric and zero values, naming the source.
pub fn positive_usize(source: &str, raw: &str) -> Result<usize, EnvError> {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| EnvError {
            source: source.to_owned(),
            raw: raw.to_owned(),
            expected: "a positive integer",
        })
}

/// Looks up an environment variable and strictly parses it with
/// `parse` when present. Absence is `Ok(None)`; presence with a bad
/// value is the hard error the parser raises.
///
/// # Errors
///
/// Propagates the parser's [`EnvError`].
pub fn from_env<T>(
    name: &str,
    parse: impl FnOnce(&str, &str) -> Result<T, EnvError>,
) -> Result<Option<T>, EnvError> {
    match std::env::var(name) {
        Ok(raw) => parse(name, &raw).map(Some),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_usize_accepts_and_rejects() {
        assert_eq!(positive_usize("EH_WORKERS", "4"), Ok(4));
        assert_eq!(positive_usize("EH_WORKERS", " 16 "), Ok(16));
        for bad in ["0", "-1", "lots", "", "4.5"] {
            let err = positive_usize("EH_WORKERS", bad).unwrap_err();
            assert_eq!(err.source, "EH_WORKERS");
            assert_eq!(err.raw, bad);
            let msg = err.to_string();
            assert!(msg.contains("EH_WORKERS"), "{msg}");
            assert!(msg.contains("positive integer"), "{msg}");
        }
    }

    #[test]
    fn from_env_distinguishes_absent_from_invalid() {
        // Absent: Ok(None), never an error.
        assert_eq!(
            from_env("EH_SERVE_TEST_UNSET_VAR", positive_usize),
            Ok(None)
        );
    }
}
