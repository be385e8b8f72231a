//! Multi-day scenario composition.
//!
//! The paper logs single days; a deployed sensor lives through weeks.
//! This module chains the daily profiles into longer scenarios — the
//! standard office week (five working days, a semi-mobile Friday and a
//! blinds-closed weekend) and arbitrary custom sequences — for endurance
//! experiments.

use eh_units::{Error, Seconds};

use crate::profiles;
use crate::series::TimeSeries;

/// The kind of day to place in a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DayKind {
    /// Office desk, mixed natural and artificial light (Fig. 2).
    Office,
    /// Semi-mobile day with the outdoor lunch excursion.
    SemiMobile,
    /// Weekend desk with the blinds closed.
    WeekendBlindsClosed,
}

/// Builds one day's trace of the given kind with a specific seed.
pub fn day(kind: DayKind, seed: u64) -> TimeSeries {
    match kind {
        DayKind::Office => profiles::office_desk_mixed(seed),
        DayKind::SemiMobile => profiles::semi_mobile_friday(seed),
        DayKind::WeekendBlindsClosed => profiles::desk_weekend_blinds_closed(seed),
    }
}

/// Chains a sequence of day kinds into one continuous trace, seeding each
/// day independently from `base_seed` (day `n` uses `base_seed + n` so
/// no two days repeat exactly).
///
/// Each daily profile spans 24 h inclusive of both midnights; the
/// duplicated boundary sample is dropped when chaining.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for an empty sequence.
pub fn sequence(kinds: &[DayKind], base_seed: u64) -> Result<TimeSeries, Error> {
    if kinds.is_empty() {
        return Err(Error::InvalidParameter {
            name: "kinds",
            value: 0.0,
        });
    }
    let mut out: Option<TimeSeries> = None;
    for (n, &kind) in kinds.iter().enumerate() {
        let trace = day(kind, base_seed.wrapping_add(n as u64));
        out = Some(match out {
            None => trace,
            Some(acc) => {
                // Drop the duplicated midnight sample at the joint.
                let tail =
                    TimeSeries::new(Seconds::ZERO, trace.dt(), trace.values()[1..].to_vec())?;
                acc.concat(&tail)?
            }
        });
    }
    Ok(out.expect("non-empty sequence produces a trace"))
}

/// The standard deployment week: Monday–Thursday at the office, a
/// semi-mobile Friday, and a blinds-closed weekend.
///
/// # Errors
///
/// Never fails for this fixed sequence; mirrors [`sequence`].
pub fn office_week(base_seed: u64) -> Result<TimeSeries, Error> {
    sequence(
        &[
            DayKind::Office,
            DayKind::Office,
            DayKind::Office,
            DayKind::Office,
            DayKind::SemiMobile,
            DayKind::WeekendBlindsClosed,
            DayKind::WeekendBlindsClosed,
        ],
        base_seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sequence_rejected() {
        assert!(sequence(&[], 1).is_err());
    }

    #[test]
    fn single_day_sequence_equals_profile() {
        let seq = sequence(&[DayKind::Office], 9).unwrap();
        let direct = profiles::office_desk_mixed(9);
        assert_eq!(seq, direct);
    }

    #[test]
    fn week_spans_seven_days() {
        let week = office_week(7).unwrap();
        assert!((week.duration().as_hours() - 7.0 * 24.0).abs() < 1e-6);
    }

    #[test]
    fn days_are_independently_seeded() {
        let two = sequence(&[DayKind::Office, DayKind::Office], 3).unwrap();
        // Noon of day 1 vs noon of day 2: different stochastic texture.
        let a = two.value_at(Seconds::from_hours(12.0)).unwrap();
        let b = two.value_at(Seconds::from_hours(36.0)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn weekend_days_are_dim() {
        let week = office_week(5).unwrap();
        // Saturday noon (day 6) is far dimmer than Monday noon.
        let monday = week.value_at(Seconds::from_hours(12.0)).unwrap();
        let saturday = week
            .value_at(Seconds::from_hours(5.0 * 24.0 + 12.0))
            .unwrap();
        assert!(saturday < monday * 0.5, "sat {saturday} vs mon {monday}");
    }

    #[test]
    fn concat_rejects_dt_mismatch() {
        let a = profiles::office_desk_mixed(1);
        let b = profiles::office_desk_mixed(2).decimate(2).unwrap();
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn friday_has_the_lunch_spike() {
        let week = office_week(11).unwrap();
        let friday_lunch = week
            .value_at(Seconds::from_hours(4.0 * 24.0 + 12.5))
            .unwrap();
        assert!(friday_lunch > 10_000.0, "lunch = {friday_lunch}");
    }
}
