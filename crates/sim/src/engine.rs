//! The time-stepping engine: one loop, owned here, driven everywhere.

use eh_units::{Error, Seconds};

use crate::light::Light;
use crate::stepper::{StepInput, Stepper};

/// A remainder shorter than this fraction of `dt` is rounding noise: a
/// run that is a whole number of slices can divide to just above it
/// (`(3.0 * 0.1) / 0.1` is `3.0000000000000004`). The remainder joins
/// the last slice instead of taking a step of its own.
const SLIVER: f64 = 1e-6;

/// Drives `stepper` across the whole of `light` in fixed slices of `dt`.
/// Slice `k` starts at `k·dt`, and the last slice ends at the light's
/// end, so it may be shorter than `dt`. Returns the total simulated
/// time.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a non-positive or non-finite
/// `dt`, or for a light source — constant or trace — with non-positive
/// duration (a single-sample trace has zero duration and is rejected
/// rather than silently simulating nothing); propagates any stepper
/// error.
pub fn drive<S: Stepper>(
    stepper: &mut S,
    light: &Light<'_>,
    dt: Seconds,
) -> Result<Seconds, Error> {
    let dt = dt.value();
    if !(dt.is_finite() && dt > 0.0) {
        return Err(Error::InvalidParameter {
            name: "dt",
            value: dt,
        });
    }
    let total = light.duration().value();
    if !(total.is_finite() && total > 0.0) {
        return Err(Error::InvalidParameter {
            name: "duration",
            value: total,
        });
    }

    let slices = (total / dt - SLIVER).ceil().max(1.0) as u64;
    for k in 0..slices {
        let t = k as f64 * dt;
        let slice = if k + 1 < slices { dt } else { total - t };
        let input = StepInput::new(light.lux_at(Seconds::new(t)));
        stepper.step(Seconds::new(t), Seconds::new(slice), &input)?;
    }
    // Loop statistics are simulated quantities, folded into the
    // stepper's metric store (if any) once, after the loop, so the
    // numbers are identical no matter how the run is scheduled.
    if let Some(m) = stepper.recorder() {
        m.add_counter("engine.steps", slices);
        m.record_span_stats("engine.drive", 1, total, 0.0);
    }
    Ok(Seconds::new(total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_env::TimeSeries;
    use eh_units::Lux;

    /// Records the slices the engine hands it.
    #[derive(Default)]
    struct Slices(Vec<(f64, f64)>);

    impl Stepper for Slices {
        fn step(&mut self, t: Seconds, dt: Seconds, _input: &StepInput) -> Result<(), Error> {
            self.0.push((t.value(), dt.value()));
            Ok(())
        }
    }

    fn slices(total: f64, dt: f64) -> (Vec<(f64, f64)>, f64) {
        let mut s = Slices::default();
        let light = Light::constant(Lux::new(1.0), Seconds::new(total));
        let end = drive(&mut s, &light, Seconds::new(dt)).unwrap();
        (s.0, end.value())
    }

    #[test]
    fn slices_start_on_the_grid_and_the_last_ends_at_the_light() {
        let (got, end) = slices(3.5, 1.0);
        assert_eq!(got, vec![(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.5)]);
        assert_eq!(end, 3.5);
        // A whole number of non-dyadic slices takes no sliver step, even
        // where the division rounds up past it.
        let total = 3.0 * 0.1;
        assert!(total / 0.1 > 3.0);
        let (got, end) = slices(total, 0.1);
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].0, 2.0 * 0.1);
        assert_eq!(end, total);
        // A light shorter than one slice is one short slice.
        assert_eq!(slices(0.25, 1.0).0, vec![(0.0, 0.25)]);
    }

    #[test]
    fn invalid_dt_and_duration_are_rejected() {
        let mut s = Slices::default();
        let light = Light::constant(Lux::new(1.0), Seconds::new(3.0));
        assert!(drive(&mut s, &light, Seconds::ZERO).is_err());
        assert!(drive(&mut s, &light, Seconds::new(f64::NAN)).is_err());
        let dark = Light::constant(Lux::new(1.0), Seconds::ZERO);
        assert!(drive(&mut s, &dark, Seconds::new(1.0)).is_err());
        assert!(s.0.is_empty());
    }

    #[test]
    fn zero_duration_trace_is_rejected() {
        // A single-sample trace has zero duration; driving it must be an
        // error like the constant-light case, not a silent 0 s no-op.
        let mut s = Slices::default();
        let one_sample = TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), vec![500.0]).unwrap();
        let light = Light::trace(&one_sample);
        let err = drive(&mut s, &light, Seconds::new(1.0));
        assert!(
            matches!(
                err,
                Err(Error::InvalidParameter {
                    name: "duration",
                    ..
                })
            ),
            "zero-duration trace must be rejected, got {err:?}"
        );
    }
}
