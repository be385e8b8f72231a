//! Experiment E6 — §IV-A bench measurements: the astable multivibrator
//! produced an ON period of 39 ms and an OFF period of 69 s, and the
//! astable + sample-and-hold combination drew an average of 7.6 µA from a
//! 3.3 V mains supply.
//!
//! Run with `cargo run -p eh-bench --bin sec4_astable_power`.

use eh_analog::astable::AstableMultivibrator;
use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
use eh_analog::{CurrentLedger, Trace};
use eh_bench::{banner, fmt, render_table};
use eh_sim::{drive, Light, SimError, StepInput, Stepper};
use eh_units::{Lux, Seconds, Volts};

/// Steps the astable at a fixed rate, recording the PULSE waveform.
struct PulseRecorder {
    astable: AstableMultivibrator,
    trace: Trace,
}

impl Stepper for PulseRecorder {
    type Error = SimError;
    fn step(&mut self, t: Seconds, dt: Seconds, _input: &StepInput) -> Result<(), SimError> {
        let s = self.astable.step(dt);
        self.trace
            .record(t + dt, if s.output_high { 3.3 } else { 0.0 });
        Ok(())
    }
}

/// Replays the paper's bench current measurement: astable + S&H on a
/// 3.3 V supply, advancing the clock from transition to transition.
struct DrawProbe {
    astable: AstableMultivibrator,
    sh: SampleHold,
    ledger: CurrentLedger,
}

impl DrawProbe {
    /// Runs the bench for `total`, in segments that end at the astable's
    /// next transition or after `cap`, whichever comes first.
    fn run(&mut self, total: Seconds, cap: Seconds) {
        let mut t = Seconds::ZERO;
        while t < total {
            let seg = self
                .astable
                .time_to_next_transition()
                .max(Seconds::from_milli(1.0))
                .min(cap.min(total - t));
            let pulse = self.astable.output_high();
            let a = self.astable.step(seg);
            let s = self.sh.step(Volts::new(5.44), pulse, seg);
            self.ledger
                .accumulate("astable (U1 + network)", a.supply_charge / seg, seg);
            self.ledger.accumulate(
                "sample-and-hold (U2/U4/U5 + aux)",
                s.supply_charge / seg,
                seg,
            );
            self.ledger.advance(seg);
            t += seg;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("§IV-A — astable timing");
    let astable = AstableMultivibrator::paper_configuration()?;
    let (t_on, t_off) = astable.analytic_periods();
    println!("analytic ON period  : {}  (paper: 39 ms)", t_on);
    println!("analytic OFF period : {}  (paper: 69 s)", t_off);

    // Measure from a simulated waveform too.
    let mut recorder = PulseRecorder {
        astable,
        trace: Trace::new("PULSE"),
    };
    drive(
        &mut recorder,
        &Light::constant(Lux::ZERO, Seconds::new(3.2 * 69.05)),
        Seconds::from_milli(2.0),
    )?;
    let trace = recorder.trace;
    let highs = trace.high_durations(1.65);
    let rises = trace.rising_edges(1.65);
    let mean_on: f64 = highs.iter().map(|d| d.as_milli()).sum::<f64>() / highs.len().max(1) as f64;
    let mean_period = if rises.len() >= 2 {
        (rises.last().unwrap().value() - rises[0].value()) / (rises.len() - 1) as f64
    } else {
        f64::NAN
    };
    println!(
        "simulated ON period : {} ms (waveform measurement)",
        fmt(mean_on, 1)
    );
    println!("simulated period    : {} s", fmt(mean_period, 2));

    banner("§IV-A — astable + sample-and-hold current draw at 3.3 V");
    // Bench setup: both blocks on a mains supply, a 5.44 V source on the
    // S&H input, sampling gated by the astable — exactly the paper's
    // measurement configuration.
    let mut probe = DrawProbe {
        astable: AstableMultivibrator::paper_configuration()?,
        sh: SampleHold::new(SampleHoldConfig::paper_configuration(0.298)?)?,
        ledger: CurrentLedger::new(),
    };
    let total = Seconds::new(5.0 * 69.05);
    probe.run(total, Seconds::new(1.0));
    let ledger = probe.ledger;
    let avg = ledger.average_current_elapsed();
    println!("average combined draw: {} (paper measurement: 7.6 µA)", avg);
    println!(
        "energy from 3.3 V bench supply over {}: {}",
        total,
        ledger.energy_from_supply(Volts::new(3.3))
    );
    let rows: Vec<Vec<String>> = ledger
        .breakdown()
        .into_iter()
        .map(|e| {
            let i = e.charge / ledger.elapsed();
            vec![e.name, format!("{i}")]
        })
        .collect();
    println!("{}", render_table(&["consumer", "average current"], &rows));

    banner("§IV-A — overhead vs the AM-1815 at 200 lux");
    // Paper: the AM-1815's MPP is 42 µA at 3.0 V, so <18 % of the 200 lux
    // cell power goes to the metrology.
    let cell_power = 42e-6 * 3.0;
    let metrology_power = avg.value() * 3.3;
    println!(
        "cell MPP power at 200 lux : {} µW (42 µA × 3.0 V)",
        fmt(cell_power * 1e6, 1)
    );
    println!(
        "metrology power           : {} µW",
        fmt(metrology_power * 1e6, 1)
    );
    println!(
        "fraction                  : {} %  (paper: < 18 % at 200 lux, < 20 % in §IV-B)",
        fmt(100.0 * metrology_power / cell_power, 1)
    );
    Ok(())
}
