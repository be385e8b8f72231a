//! The time-stepping engine: one loop, owned here, driven everywhere.

use eh_env::TimeSeries;
use eh_units::Seconds;

use crate::error::SimError;
use crate::light::Light;
use crate::stepper::{StepInput, Stepper};

/// Drives `stepper` across the whole of `light` in slices of at most
/// `dt`, honouring variable advances: a step that reports it consumed
/// less than the planned slice (e.g. an event-driven stepper stopping at
/// a timer edge) advances the clock by that much only, and counts as a
/// dwell step. Returns the total simulated time.
///
/// The reported advance is clamped into `(0, planned]`; non-positive or
/// non-finite advances fall back to the planned slice so a misbehaving
/// stepper cannot stall the clock or overshoot the scenario.
///
/// # Errors
///
/// Returns `SimError::InvalidParameter` (through the stepper's error
/// type) for a non-positive or non-finite `dt`, or for a light source —
/// constant or trace — with non-positive duration (a single-sample trace
/// has zero duration and is rejected rather than silently simulating
/// nothing); propagates any stepper error.
pub fn drive<S: Stepper>(
    stepper: &mut S,
    light: &Light<'_>,
    dt: Seconds,
) -> Result<Seconds, S::Error> {
    if !(dt.value().is_finite() && dt.value() > 0.0) {
        return Err(SimError::InvalidParameter {
            name: "dt",
            value: dt.value(),
        }
        .into());
    }
    let total = light.duration().value();
    if !(total.is_finite() && total > 0.0) {
        return Err(SimError::InvalidParameter {
            name: "duration",
            value: total,
        }
        .into());
    }

    let mut t = 0.0_f64;
    // Loop statistics are accumulated in plain locals — integers and two
    // f64 adds per step — and folded into the stepper's metric store (if
    // any) once, after the loop. Simulated quantities only, so the
    // numbers are identical no matter how the run is scheduled.
    let mut steps = 0u64;
    let mut dwell_steps = 0u64;
    let mut dwell_time = 0.0_f64;
    while t < total {
        let planned = dt.value().min(total - t);
        let input = StepInput::new(light.lux_at(Seconds::new(t)));
        let out = stepper.step(Seconds::new(t), Seconds::new(planned), &input)?;
        let advanced = out.advanced.value();
        let advanced = if advanced.is_finite() && advanced > 0.0 {
            advanced.min(planned)
        } else {
            planned
        };
        steps += 1;
        if advanced < planned {
            dwell_steps += 1;
            dwell_time += advanced;
        }
        t += advanced;
    }
    if let Some(m) = stepper.recorder() {
        use eh_obs::Recorder as _;
        m.add_counter("engine.steps", steps);
        m.add_counter("engine.dwell_steps", dwell_steps);
        let mut drive_span = eh_obs::span!("engine.drive");
        drive_span.add_time(Seconds::new(t));
        drive_span.finish(m);
        let mut dwell_span = eh_obs::span!("engine.dwell");
        dwell_span.add_time(Seconds::new(dwell_time));
        dwell_span.finish(m);
    }
    Ok(Seconds::new(t))
}

/// Splits `trace` into windows of `window` seconds that share their
/// boundary sample, so back-to-back windows resimulate the junction
/// instant with identical state — the contract the endurance runner has
/// always used.
///
/// # Errors
///
/// Returns `SimError::InvalidParameter` when the window spans fewer than
/// two trace samples, and propagates slicing errors from the
/// environment layer.
pub fn split_windows(trace: &TimeSeries, window: Seconds) -> Result<Vec<TimeSeries>, SimError> {
    let samples_per_window = (window.value() / trace.dt().value()).round();
    if !samples_per_window.is_finite() || samples_per_window < 2.0 {
        return Err(SimError::InvalidParameter {
            name: "window",
            value: window.value(),
        });
    }
    let samples_per_window = samples_per_window as usize;

    let mut windows = Vec::new();
    let mut from = 0;
    while from + 1 < trace.len() {
        let to = (from + samples_per_window + 1).min(trace.len());
        windows.push(trace.slice_samples(from, to)?);
        from = to - 1;
    }
    Ok(windows)
}

/// Runs `run` over each window of `trace` in order, collecting the
/// per-window results. This is the shared core of windowed endurance
/// studies: split once, simulate each span, keep the reports.
///
/// # Errors
///
/// Propagates windowing errors from [`split_windows`] and any error the
/// per-window closure returns.
pub fn run_windowed<R, E, F>(trace: &TimeSeries, window: Seconds, mut run: F) -> Result<Vec<R>, E>
where
    E: From<SimError>,
    F: FnMut(&TimeSeries) -> Result<R, E>,
{
    let windows = split_windows(trace, window)?;
    let mut reports = Vec::with_capacity(windows.len());
    for w in &windows {
        reports.push(run(w)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::StepOutput;
    use eh_units::Lux;

    /// Toy stepper: consumes the full slice normally, but every `period`
    /// of simulated time reports a short `dwell` instead, mimicking the
    /// FOCV measurement pulse.
    struct DwellStepper {
        period: f64,
        dwell: f64,
        next_pulse: f64,
        steps: u64,
        pulses: u64,
        clock_check: f64,
    }

    impl DwellStepper {
        fn new(period: f64, dwell: f64) -> Self {
            Self {
                period,
                dwell,
                next_pulse: period,
                steps: 0,
                pulses: 0,
                clock_check: 0.0,
            }
        }
    }

    impl Stepper for DwellStepper {
        type Error = SimError;

        fn step(
            &mut self,
            t: Seconds,
            dt: Seconds,
            _input: &StepInput,
        ) -> Result<StepOutput, SimError> {
            assert!(
                (t.value() - self.clock_check).abs() < 1e-9,
                "engine clock must equal accumulated advances"
            );
            self.steps += 1;
            let out = if t.value() >= self.next_pulse {
                self.next_pulse += self.period;
                self.pulses += 1;
                StepOutput::dwell(Seconds::new(self.dwell.min(dt.value())))
            } else {
                StepOutput::full(dt)
            };
            self.clock_check += out.advanced.value().min(dt.value());
            Ok(out)
        }
    }

    #[test]
    fn dwell_steps_advance_by_the_dwell_only() {
        let mut s = DwellStepper::new(10.0, 0.039);
        let light = Light::constant(Lux::new(500.0), Seconds::new(100.0));
        let end = drive(&mut s, &light, Seconds::new(1.0)).unwrap();
        assert!((end.value() - 100.0).abs() < 1e-9);
        // 9 pulses fire (t = 10, 20, … 90); each costs an extra step of
        // 39 ms plus the catch-up remainder, so the step count exceeds
        // the 100 full-dt steps a fixed-stride loop would take.
        assert_eq!(s.pulses, 9);
        assert!(s.steps > 100);
    }

    /// Stepper that misreports its advance; the engine must clamp it.
    struct Rogue(f64);

    impl Stepper for Rogue {
        type Error = SimError;

        fn step(
            &mut self,
            _t: Seconds,
            _dt: Seconds,
            _i: &StepInput,
        ) -> Result<StepOutput, SimError> {
            Ok(StepOutput::dwell(Seconds::new(self.0)))
        }
    }

    #[test]
    fn rogue_advances_are_clamped_to_the_planned_slice() {
        for bogus in [0.0, -5.0, f64::NAN, 1e9] {
            let mut s = Rogue(bogus);
            let light = Light::constant(Lux::new(1.0), Seconds::new(3.0));
            let end = drive(&mut s, &light, Seconds::new(1.0)).unwrap();
            assert!((end.value() - 3.0).abs() < 1e-9, "bogus advance {bogus}");
        }
    }

    #[test]
    fn invalid_dt_and_duration_are_rejected() {
        let mut s = Rogue(1.0);
        let light = Light::constant(Lux::new(1.0), Seconds::new(3.0));
        assert!(drive(&mut s, &light, Seconds::ZERO).is_err());
        let dark = Light::constant(Lux::new(1.0), Seconds::ZERO);
        assert!(drive(&mut s, &dark, Seconds::new(1.0)).is_err());
    }

    #[test]
    fn zero_duration_trace_is_rejected() {
        // A single-sample trace has zero duration; driving it must be an
        // error like the constant-light case, not a silent 0 s no-op.
        let mut s = Rogue(1.0);
        let one_sample = TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), vec![500.0]).unwrap();
        let light = Light::trace(&one_sample);
        let err = drive(&mut s, &light, Seconds::new(1.0));
        assert!(
            matches!(
                err,
                Err(SimError::InvalidParameter {
                    name: "duration",
                    ..
                })
            ),
            "zero-duration trace must be rejected, got {err:?}"
        );
    }

    #[test]
    fn windows_share_their_boundary_sample() {
        let trace = TimeSeries::new(
            Seconds::ZERO,
            Seconds::new(1.0),
            (0..10).map(f64::from).collect(),
        )
        .unwrap();
        let windows = split_windows(&trace, Seconds::new(3.0)).unwrap();
        assert!(windows.len() >= 3);
        for pair in windows.windows(2) {
            let last = *pair[0].values().last().unwrap();
            let first = pair[1].values()[0];
            assert_eq!(last, first, "adjacent windows must share a sample");
        }
        let covered: usize = windows.iter().map(|w| w.len() - 1).sum();
        assert_eq!(covered, trace.len() - 1);
    }

    #[test]
    fn sub_sample_window_is_rejected() {
        let trace = TimeSeries::new(Seconds::ZERO, Seconds::new(1.0), vec![0.0, 1.0, 2.0]).unwrap();
        assert!(split_windows(&trace, Seconds::new(0.4)).is_err());
    }
}
