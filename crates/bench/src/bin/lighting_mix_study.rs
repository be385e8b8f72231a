//! Extension experiment — lighting-type changes at constant metered lux.
//!
//! The paper's abstract: the technique matters "in particular for sensors
//! which may be exposed to different types of lighting (such as
//! body-worn or mobile sensors)". A lux meter (or a lux-calibrated
//! photodetector tracker) weighs light like an eye; the cell weighs it by
//! its own spectral response. When the light *type* changes at constant
//! metered lux, the cell's operating point moves — the proposed
//! technique's direct Voc sampling follows it, while lux-proxy and
//! fixed-voltage techniques mis-aim.
//!
//! Run with `cargo run -p eh-bench --bin lighting_mix_study`.

use eh_bench::{banner, fmt, render_table};
use eh_pv::spectrum::{effective_illuminance, CellTechnology};
use eh_pv::{presets, LightSource};
use eh_sim::SweepRunner;
use eh_units::{Lux, Volts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cell = presets::sanyo_am1815();
    let metered = Lux::new(500.0);
    let k = 0.596;

    banner("Same metered 500 lux, different light sources (AM-1815, a-Si)");
    let sources = [
        ("fluorescent (calibration)", LightSource::Fluorescent),
        ("daylight through window", LightSource::Daylight),
        ("white LED", LightSource::Led),
        ("incandescent", LightSource::Incandescent),
    ];

    let rows = SweepRunner::auto()
        .run(sources.to_vec(), |_, (name, source)| {
            let eff = effective_illuminance(metered, CellTechnology::AmorphousSilicon, source);
            let voc = cell.open_circuit_voltage(eff)?;
            let mpp = cell.mpp(eff)?;

            // FOCV: measures the actual Voc, holds k·Voc.
            let p_focv = cell.power_at(voc * k, eff)?;
            // Fixed voltage: pinned at 3.0 V whatever happens.
            let p_fixed = cell.power_at(Volts::new(3.0).min(voc), eff)?;
            // Photodetector: believes the metered lux and aims for the
            // fluorescent-calibrated Voc estimate at that lux.
            let voc_est = cell.open_circuit_voltage(metered)?;
            let p_photo = cell.power_at((voc_est * k).min(voc), eff)?;

            Ok(vec![
                name.to_owned(),
                format!("{voc}"),
                format!("{}", mpp.power),
                fmt(100.0 * p_focv.value() / mpp.power.value().max(1e-15), 1),
                fmt(100.0 * p_fixed.value() / mpp.power.value().max(1e-15), 1),
                fmt(100.0 * p_photo.value() / mpp.power.value().max(1e-15), 1),
            ])
        })
        .into_iter()
        .collect::<Result<Vec<_>, eh_units::Error>>()?;
    println!(
        "{}",
        render_table(
            &[
                "light source",
                "true Voc",
                "MPP power",
                "FOCV capture %",
                "fixed 3 V capture %",
                "lux-proxy capture %"
            ],
            &rows
        )
    );

    banner("The same comparison on a crystalline cell (lux-proxy error grows)");
    let csi = presets::crystalline_outdoor();
    let rows = SweepRunner::auto()
        .run(sources.to_vec(), |_, (name, source)| {
            let eff = effective_illuminance(metered, CellTechnology::CrystallineSilicon, source);
            let voc = csi.open_circuit_voltage(eff)?;
            let mpp = csi.mpp(eff)?;
            let p_focv = csi.power_at(voc * 0.78, eff)?; // c-Si k ≈ 0.78
            let voc_est = csi.open_circuit_voltage(metered)?;
            let p_photo = csi.power_at((voc_est * 0.78).min(voc), eff)?;
            Ok(vec![
                name.to_owned(),
                format!("{voc}"),
                format!("{}", mpp.power),
                fmt(100.0 * p_focv.value() / mpp.power.value().max(1e-15), 1),
                fmt(100.0 * p_photo.value() / mpp.power.value().max(1e-15), 1),
            ])
        })
        .into_iter()
        .collect::<Result<Vec<_>, eh_units::Error>>()?;
    println!(
        "{}",
        render_table(
            &[
                "light source",
                "true Voc",
                "MPP power",
                "FOCV capture %",
                "lux-proxy capture %"
            ],
            &rows
        )
    );

    println!("Reading: two effects separate here. (1) Capture: FOCV is flat across");
    println!("sources because it measures the cell itself; the lux-proxy tracker");
    println!("loses a few points exactly where the spectrum diverges from its");
    println!("calibration (c-Si under incandescent light sees 2.6× the photocurrent");
    println!("the lux meter implies). The losses stay small only because these");
    println!("cells have broad power maxima — the same forgiveness the paper's");
    println!("Eq. (2) analysis leans on. (2) Energy: at the SAME metered 500 lux the");
    println!("a-Si cell yields 359 µW of daylight but only 213 µW of incandescent");
    println!("light — lux is a poor proxy for harvestable power, so any tracker");
    println!("calibrated in lux (photodetector, pilot-cell sizing, fixed-voltage");
    println!("tuning) inherits a spectrum-dependent error that direct Voc sampling");
    println!("never sees. That is the paper's \"no pilot cell or photodiode\" case.");
    Ok(())
}
