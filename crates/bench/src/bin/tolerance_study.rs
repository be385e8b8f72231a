//! Extension experiment — component-tolerance Monte Carlo on the
//! metrology chain. The paper's 39 ms / 69 s / 7.6 µA are one prototype's
//! measurements; a production design must hold its behaviour across
//! resistor/capacitor tolerances. This study samples 500 builds with
//! ±5 % resistors and ±10 % film capacitors and reports the spread of
//! the astable timing, the duty cycle, the divider ratio (k trim before
//! potentiometer adjustment) and the resulting harvest capture.
//!
//! Run with `cargo run -p eh-bench --bin tolerance_study`.

use eh_analog::astable::{AstableConfig, AstableMultivibrator};
use eh_analog::components::VoltageDivider;
use eh_bench::{banner, fmt, render_table};
use eh_pv::presets;
use eh_sim::SweepRunner;
use eh_units::{Farads, Lux, Ohms, Volts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary statistics of a sampled quantity.
struct Spread {
    mean: f64,
    min: f64,
    max: f64,
    std: f64,
}

fn spread(values: &[f64]) -> Spread {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    Spread {
        mean,
        min: values.iter().cloned().fold(f64::INFINITY, f64::min),
        max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        std: var.sqrt(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const BUILDS: usize = 500;
    // Draw every build's six tolerance factors serially from the seeded
    // stream, so the Monte Carlo is reproducible no matter how many sweep
    // workers evaluate the builds afterwards.
    let mut rng = StdRng::seed_from_u64(2011);
    let mut tol = |pct: f64| 1.0 + pct * (rng.gen::<f64>() * 2.0 - 1.0);
    let draws: Vec<[f64; 6]> = (0..BUILDS)
        .map(|_| {
            [
                tol(0.10),
                tol(0.05),
                tol(0.05),
                tol(0.05),
                tol(0.05),
                tol(0.05),
            ]
        })
        .collect();

    let cell = presets::sanyo_am1815();
    let lux = Lux::new(1000.0);
    let mpp = cell.mpp(lux)?;
    let voc = cell.open_circuit_voltage(lux)?;

    type BuildOutcome = Result<(f64, f64, f64, f64), Box<dyn std::error::Error + Send + Sync>>;
    let builds = SweepRunner::auto().run(draws, |_, d| -> BuildOutcome {
        let [c_tol, r_chg_tol, r_dis_tol, r_thr_tol, r_top_tol, r_bot_tol] = d;
        // Astable: R ±5 %, film C ±10 %. The nominal design targets
        // 39 ms / 69 s through ln2·R·C.
        let c_t = 1e-6 * c_tol;
        let r_charge = (0.039 / (1e-6 * std::f64::consts::LN_2)) * r_chg_tol;
        let r_discharge = (69.0 / (1e-6 * std::f64::consts::LN_2)) * r_dis_tol;
        let config = AstableConfig {
            supply_voltage: Volts::new(3.3),
            timing_capacitance: Farads::new(c_t),
            threshold_resistance: Ohms::from_mega(10.0 * r_thr_tol),
            charge_resistance: Ohms::new(r_charge),
            discharge_resistance: Ohms::new(r_discharge),
            comparator_current: eh_units::Amps::from_micro(0.7),
        };
        let astable = AstableMultivibrator::new(config)?;
        let (t_on, t_off) = astable.analytic_periods();

        // Divider: R1/R2 ±5 % around the 0.298 trim target.
        let r_top = 5.0e6 * (1.0 - 0.298) * r_top_tol;
        let r_bottom = 5.0e6 * 0.298 * r_bot_tol;
        let divider = VoltageDivider::new(Ohms::new(r_top), Ohms::new(r_bottom))?;
        let ratio = divider.ratio();

        // Harvest capture with the untrimmed build: operate at
        // (ratio/α)·Voc instead of the ideal k·Voc.
        let k_eff = ratio / 0.5;
        let p = cell.power_at((voc * k_eff).min(voc), lux)?;
        Ok((
            t_on.as_milli(),
            t_off.value(),
            ratio,
            p.value() / mpp.power.value(),
        ))
    });

    let mut t_on_ms = Vec::with_capacity(BUILDS);
    let mut t_off_s = Vec::with_capacity(BUILDS);
    let mut ratios = Vec::with_capacity(BUILDS);
    let mut captures = Vec::with_capacity(BUILDS);
    for build in builds {
        let (t_on, t_off, ratio, capture) =
            build.map_err(|e| -> Box<dyn std::error::Error> { e })?;
        t_on_ms.push(t_on);
        t_off_s.push(t_off);
        ratios.push(ratio);
        captures.push(capture);
    }

    banner(&format!(
        "Monte Carlo over {BUILDS} builds — R ±5 %, film C ±10 % (seed 2011)"
    ));
    let rows = vec![
        {
            let s = spread(&t_on_ms);
            vec![
                "PULSE width (ms)".into(),
                fmt(s.mean, 1),
                fmt(s.std, 2),
                format!("{} … {}", fmt(s.min, 1), fmt(s.max, 1)),
                "39 ms".into(),
            ]
        },
        {
            let s = spread(&t_off_s);
            vec![
                "hold period (s)".into(),
                fmt(s.mean, 1),
                fmt(s.std, 2),
                format!("{} … {}", fmt(s.min, 1), fmt(s.max, 1)),
                "69 s".into(),
            ]
        },
        {
            let s = spread(&ratios);
            vec![
                "divider ratio k·α".into(),
                fmt(s.mean, 4),
                fmt(s.std, 4),
                format!("{} … {}", fmt(s.min, 4), fmt(s.max, 4)),
                "0.298".into(),
            ]
        },
        {
            let s = spread(&captures);
            vec![
                "untrimmed capture".into(),
                fmt(s.mean, 4),
                fmt(s.std, 4),
                format!("{} … {}", fmt(s.min, 4), fmt(s.max, 4)),
                "≈1.0".into(),
            ]
        },
    ];
    println!(
        "{}",
        render_table(&["quantity", "mean", "σ", "min … max", "nominal"], &rows)
    );

    let worst_capture = captures.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("Reading: timing tolerances only stretch or shrink the hold period —");
    println!("§II-B showed anything above ~60 s is fine, and even the worst build");
    println!("stays in that regime. The k trim is the sensitive axis, which is why");
    println!("the paper routes R2 through a potentiometer; yet even *untrimmed*, the");
    println!(
        "worst build still captures {} % of the MPP (broad a-Si power maximum).",
        fmt(100.0 * worst_capture, 1)
    );
    Ok(())
}
