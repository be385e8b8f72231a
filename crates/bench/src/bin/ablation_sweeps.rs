//! Experiment E9 — ablations of the design choices DESIGN.md calls out:
//!
//! 1. hold period (the paper fixes 69 s; §II-B argues >60 s is justified);
//! 2. k trim (the paper's R2 potentiometer, nominal range 0.6–0.8);
//! 3. hold-capacitor leakage (the paper insists on a low-leakage
//!    polyester part);
//! 4. the R3/C3 ripple filter.
//!
//! Every parameter sweep fans out on the shared [`SweepRunner`]; the
//! hold-period sweep is additionally timed at 1 worker and at the
//! machine's parallelism to log the measured speedup.
//!
//! Run with `cargo run -p eh-bench --bin ablation_sweeps`.

use std::time::Instant;

use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
use eh_bench::{banner, fmt, render_table};
use eh_core::baselines::FocvSampleHold;
use eh_env::{profiles, sampling_error, TimeSeries};
use eh_node::NodeSimulation;
use eh_pv::{presets, PvCell};
use eh_sim::{drive, Light, StepInput, Stepper, SweepRunner};
use eh_units::{Amps, Error, Farads, Lux, Ohms, Seconds, Volts, Watts};

fn voc_trace(cell: &PvCell, lux_trace: &TimeSeries) -> TimeSeries {
    lux_trace.map(|lux| {
        cell.open_circuit_voltage(Lux::new(lux.max(0.0)))
            .map(|v| v.value())
            .unwrap_or(0.0)
    })
}

/// The R3/C3 ripple experiment as a steppable system: a sample-and-hold
/// block sampling a 100 Hz-flickering Voc, tracking the held-line ripple
/// once the sample has settled.
struct FlickerProbe {
    sh: SampleHold,
    min: f64,
    max: f64,
}

impl Stepper for FlickerProbe {
    fn step(&mut self, t: Seconds, dt: Seconds, _input: &StepInput) -> Result<(), Error> {
        // ±17 mV of 100 Hz ripple on Voc (a few % of lamp flicker
        // through the cell's logarithmic response).
        let v = 5.44 + 0.017 * (2.0 * std::f64::consts::PI * 100.0 * t.value()).sin();
        let s = self.sh.step(Volts::new(v), true, dt);
        // Judge ripple after the sample has settled (last 20 ms).
        if t.value() > 19e-3 {
            self.min = self.min.min(s.held_sample.value());
            self.max = self.max.max(s.held_sample.value());
        }
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SEED: u64 = 2011;
    let cell = presets::sanyo_am1815();
    // One pre-warmed operating-point cache shared by every simulation
    // sweep (clones of a warmed cell share the table); the exact `cell`
    // stays in use for the MPP/Voc reference numbers.
    let cached_cell = cell.clone().warmed()?;

    // ------------------------------------------------------------------
    banner("Ablation 1 — hold period: tracking error vs metrology energy");
    // Longer holds cost tracking error (Eq. (2)) but save astable/S&H
    // switching energy; the knee justifies the paper's 69 s.
    let mobile = profiles::semi_mobile_friday(SEED).decimate(5)?;
    let voc = voc_trace(&cell, &mobile);
    let periods = vec![5.0, 15.0, 39.0, 69.0, 180.0, 600.0, 1800.0];
    let hold_job = |_: usize, period_s: f64| -> Result<Vec<String>, Error> {
        let err = sampling_error::worst_case_mean_error(&voc, Seconds::new(period_s))?;
        // Net harvest over the day with this hold period.
        let mut tracker = FocvSampleHold::new(
            0.596,
            Seconds::new(period_s),
            Seconds::from_milli(39.0),
            Volts::new(3.3) * Amps::from_micro(8.0),
        )?;
        let mut sim = NodeSimulation::default_for(cached_cell.clone())?;
        let report = sim.run(&mut tracker, &mobile, Seconds::new(5.0))?;
        Ok(vec![
            fmt(period_s, 0),
            fmt(err * 1e3, 1),
            format!("{}", report.net_energy()),
            format!("{}", report.measurements),
        ])
    };
    // Time the same sweep serial and parallel: results must be identical
    // (the runner collects in input order), wall-clock should not be.
    let t0 = Instant::now();
    let rows_serial = SweepRunner::new(1).run(periods.clone(), hold_job);
    let serial_elapsed = t0.elapsed();
    let runner = SweepRunner::auto();
    let workers = runner.workers();
    let t1 = Instant::now();
    let rows_parallel = runner.run(periods, hold_job);
    let parallel_elapsed = t1.elapsed();
    assert_eq!(rows_serial, rows_parallel, "sweep must be deterministic");
    let rows = rows_parallel.into_iter().collect::<Result<Vec<_>, _>>()?;
    println!(
        "{}",
        render_table(
            &[
                "hold period (s)",
                "Ē Voc (mV)",
                "net day energy",
                "samples/day"
            ],
            &rows
        )
    );
    println!(
        "sweep wall-clock: 1 worker {serial_elapsed:?}, {workers} workers {parallel_elapsed:?} \
         (speedup ×{:.2})",
        serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9)
    );

    // ------------------------------------------------------------------
    banner("Ablation 2 — k trim (R2 potentiometer)");
    let trims = vec![0.45, 0.50, 0.55, 0.596, 0.65, 0.70, 0.80];
    let rows = SweepRunner::auto()
        .run(trims, |_, k| -> Result<Vec<String>, Error> {
            let mut tracker = FocvSampleHold::new(
                k,
                Seconds::new(69.0),
                Seconds::from_milli(39.0),
                Volts::new(3.3) * Amps::from_micro(8.0),
            )?;
            let trace = profiles::constant(Lux::new(1000.0), Seconds::from_minutes(30.0));
            let mut sim = NodeSimulation::default_for(cached_cell.clone())?;
            let report = sim.run(&mut tracker, &trace, Seconds::new(1.0))?;
            let mpp = cell.mpp(Lux::new(1000.0))?;
            let ideal = mpp.power.value() * trace.duration().value();
            Ok(vec![
                fmt(k, 3),
                format!("{}", report.gross_energy),
                fmt(100.0 * report.gross_energy.value() / ideal, 1),
            ])
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "{}",
        render_table(
            &["k trim", "gross energy (30 min @1 klux)", "% of ideal MPP"],
            &rows
        )
    );
    println!("The optimum sits near the cell's true k; the curve is flat near the");
    println!("top (the paper's <1 % loss argument) and falls away for bad trims.");

    // ------------------------------------------------------------------
    banner("Ablation 3 — hold-capacitor technology (leakage)");
    let mut rows = Vec::new();
    for (name, leak_r) in [
        ("polyester film (paper)", 1e5 / 1e-6), // τ = 10⁵ s at 1 µF
        ("ceramic X7R-class", 1e3 / 1e-6),      // τ = 10³ s
        ("electrolytic", 30.0 / 1e-6),          // τ = 30 s
    ] {
        let mut cfg = SampleHoldConfig::paper_configuration(0.298)?;
        cfg.hold_capacitance = Farads::from_micro(1.0);
        let mut sh = SampleHold::new(cfg)?;
        // Replace the hold cap's leakage by reconstructing: we emulate by
        // post-sample droop measurement through the block's own step.
        // (The polyester default is built in; for others we simulate the
        // droop analytically on top.)
        sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
        let v0 = sh.hold_voltage().value();
        // Droop over one 69 s hold with the given insulation resistance.
        let tau: f64 = leak_r * 1e-6;
        let v_leak = v0 * (-69.0 / tau).exp();
        let droop_mv = (v0 - v_leak) * 1e3;
        let op_shift_mv = droop_mv / 0.5; // ×1/α at the PV node
        rows.push(vec![
            name.to_owned(),
            fmt(tau, 0),
            fmt(droop_mv, 2),
            fmt(op_shift_mv, 2),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "hold capacitor",
                "τ_ins (s)",
                "droop / 69 s (mV)",
                "PV op-point shift (mV)"
            ],
            &rows
        )
    );
    println!("Only the film capacitor keeps the droop inside the §II-B error budget");
    println!("(12.7–24.1 mV) — the paper's \"low-leakage polyester\" is load-bearing.");

    // ------------------------------------------------------------------
    banner("Ablation 4 — R3/C3 ripple filter (100 Hz lamp flicker on Voc)");
    // Under mains-driven artificial light the open-circuit voltage carries
    // a 100 Hz component; during the 39 ms sampling window it reaches the
    // hold capacitor through the divider. This is the "small ripple" of
    // Fig. 4, and what R3/C3 mitigate.
    for (name, r3, c3) in [
        ("with R3/C3 (paper)", 47e3, 100e-9),
        ("without filter", 1.0, 1e-12),
    ] {
        let mut cfg = SampleHoldConfig::paper_configuration(0.298)?;
        cfg.filter_resistance = Ohms::new(r3);
        cfg.filter_capacitance = Farads::new(c3);
        let mut sh = SampleHold::new(cfg)?;
        // Pre-charge with a clean sample, then resample under flicker.
        sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
        sh.step(Volts::new(5.44), false, Seconds::new(69.0));
        let mut probe = FlickerProbe {
            sh,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        drive(
            &mut probe,
            &Light::constant(Lux::ZERO, Seconds::from_milli(39.0)),
            Seconds::from_milli(0.05),
        )?;
        let ripple = (probe.max - probe.min) * 1e3;
        println!(
            "{name:22}: HELD_SAMPLE ripple during sampling = {} mV pp",
            fmt(ripple, 3)
        );
    }
    println!("\nThe filter damps the mains flicker that rides on the sample — the");
    println!("\"small ripple\" of Fig. 4 \"mitigated by the combination of R3 and C3\".");

    // ------------------------------------------------------------------
    banner("Ablation 5 — metrology budget sensitivity");
    let trace = profiles::constant(Lux::new(200.0), Seconds::from_hours(1.0));
    let budgets = vec![2.0, 8.0, 42.0, 150.0, 600.0];
    let rows = SweepRunner::auto()
        .run(budgets, |_, overhead_ua| -> Result<Vec<String>, Error> {
            let mut tracker = FocvSampleHold::new(
                0.596,
                Seconds::new(69.0),
                Seconds::from_milli(39.0),
                Watts::new(3.3 * overhead_ua * 1e-6),
            )?;
            let mut sim = NodeSimulation::default_for(cached_cell.clone())?;
            let report = sim.run(&mut tracker, &trace, Seconds::new(1.0))?;
            Ok(vec![
                fmt(overhead_ua, 0),
                format!("{}", report.net_energy()),
                if report.is_net_positive() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ])
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "{}",
        render_table(
            &[
                "tracker draw (µA @3.3 V)",
                "net energy (1 h @200 lux)",
                "net-positive?"
            ],
            &rows
        )
    );
    println!("At the AM-1815's 200 lux output (~126 µW) the break-even tracker budget");
    println!("is a few tens of µA — which is why the paper's 8 µA matters.");

    // ------------------------------------------------------------------
    banner("Ablation 6 — cell temperature (FOCV self-compensates, fixed V does not)");
    // §IV-A avoided >5000 lux to prevent "excessive heating of the PV
    // cell": Voc falls ~0.3 %/K, so a hot cell's MPP walks away from any
    // fixed reference while k·Voc follows it automatically.
    let mut rows = Vec::new();
    for temp_c in [0.0, 25.0, 40.0, 60.0] {
        let hot = presets::sanyo_am1815().with_temperature(eh_units::Celsius::new(temp_c));
        let lux = Lux::new(1000.0);
        let mpp = hot.mpp(lux)?;
        let voc = hot.open_circuit_voltage(lux)?;
        let p_focv = hot.power_at((voc * 0.596).min(voc), lux)?;
        let p_fixed = hot.power_at(Volts::new(3.0).min(voc), lux)?;
        rows.push(vec![
            fmt(temp_c, 0),
            format!("{voc}"),
            format!("{}", mpp.power),
            fmt(100.0 * p_focv.value() / mpp.power.value(), 1),
            fmt(100.0 * p_fixed.value() / mpp.power.value(), 1),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "cell temp (°C)",
                "Voc @1 klux",
                "MPP power",
                "FOCV capture %",
                "fixed 3.0 V capture %"
            ],
            &rows
        )
    );
    println!("Finding: although Voc drops ~1.2 V over 60 K, this a-Si cell's MPP");
    println!("voltage barely moves (the photo-shunt, not the diode, sets the knee),");
    println!("and the power maximum is broad — so BOTH techniques stay above 98 %.");
    println!("FOCV achieves this with no per-cell tuning, while the fixed reference");
    println!("only survives because 3.0 V happens to be this very cell's plateau —");
    println!("the tuning dependence the paper's mobile scenario breaks.");
    Ok(())
}
