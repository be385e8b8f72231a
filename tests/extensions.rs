//! Integration coverage for the extension modules (arrays, spectrum,
//! thermal, sizing) through the facade — the pieces that go beyond the
//! paper's own evaluation.

use pv_mppt_repro::core::baselines::FocvSampleHold;
use pv_mppt_repro::core::MpptController;
use pv_mppt_repro::node::{sizing, DutyCycledLoad, NodeSimulation, SimConfig};
use pv_mppt_repro::pv::array::{ParallelBank, SeriesString, StringElement};
use pv_mppt_repro::pv::spectrum::{effective_illuminance, spectral_factor, CellTechnology};
use pv_mppt_repro::pv::{presets, thermal, LightSource};
use pv_mppt_repro::units::{Joules, Kelvin, Lux, Seconds, Volts};

/// A wearable collector: two 2-module strings in parallel, one string
/// half shaded, under incandescent living-room light — the paper's
/// body-worn scenario with every extension module in play at once.
#[test]
fn wearable_collector_end_to_end() {
    let string_a = SeriesString::new(
        vec![
            StringElement::new(presets::sanyo_am1815(), 1.0).expect("valid"),
            StringElement::new(presets::sanyo_am1815(), 1.0).expect("valid"),
        ],
        Volts::from_milli(350.0),
    )
    .expect("valid string");
    let string_b = SeriesString::new(
        vec![
            StringElement::new(presets::sanyo_am1815(), 0.5).expect("valid"),
            StringElement::new(presets::sanyo_am1815(), 1.0).expect("valid"),
        ],
        Volts::from_milli(350.0),
    )
    .expect("valid string");
    let bank = ParallelBank::new(vec![string_a, string_b]).expect("valid bank");

    // 300 metered lux of incandescent light, a-Si spectral response.
    let eff = effective_illuminance(
        Lux::new(300.0),
        CellTechnology::AmorphousSilicon,
        LightSource::Incandescent,
    );
    assert!(eff < Lux::new(300.0), "a-Si discounts incandescent lux");

    let mpp = bank.global_mpp(eff, Kelvin::STC).expect("solver converges");
    assert!(mpp.power.value() > 0.0);
    // FOCV on the bank: within the single-hump regime (mild shading) the
    // k·Voc point captures most of the global maximum.
    let voc = bank.open_circuit_voltage(eff).expect("solver converges");
    let focv_i = bank.current_at(voc * 0.596, eff).expect("solver converges");
    let focv_p = (voc * 0.596) * focv_i;
    assert!(
        focv_p.value() > 0.8 * mpp.power.value(),
        "FOCV captures {:.3} of the bank's GMPP",
        focv_p.value() / mpp.power.value()
    );
}

/// Thermal + spectral effects compose: a warm cell under incandescent
/// light still tracks, and the FOCV worst-case capture over the whole
/// envelope stays high.
#[test]
fn thermal_spectral_envelope() {
    let cell = presets::sanyo_am1815();
    let eff = effective_illuminance(
        Lux::new(500.0),
        CellTechnology::AmorphousSilicon,
        LightSource::Incandescent,
    );
    let span: Vec<_> = [0.0, 25.0, 50.0]
        .map(pv_mppt_repro::units::Celsius::new)
        .to_vec();
    let capture = thermal::focv_worst_capture(&cell, eff, 0.596, &span).expect("solver converges");
    assert!(
        capture.value() > 0.95,
        "worst capture over the envelope = {capture}"
    );
}

/// The sizing arithmetic agrees with the simulation: the store energy the
/// sizing module predicts for a night matches what a simulated dark run
/// actually consumes, within 20 %.
#[test]
fn sizing_matches_simulation() {
    let load = DutyCycledLoad::typical_sensor_node().expect("valid load");
    let tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
    let hours = 8.0;
    // The module's survival figure inverts to the total draw: 1 J lasts
    // 1/draw seconds, so the night costs hours·3600·draw joules.
    let one_joule_lasts =
        sizing::dark_survival(Joules::new(1.0), &load, &tracker).expect("valid draw");
    let predicted = hours * 3600.0 / one_joule_lasts.value();
    let direct = (load.average_power().value() + tracker.overhead_power().value()) * hours * 3600.0;
    assert!((predicted - direct).abs() < 1e-9 * direct);

    // Simulate the same 8 h of darkness and measure the overhead+load
    // energy the engine actually books.
    let trace = pv_mppt_repro::env::profiles::constant(Lux::ZERO, Seconds::from_hours(hours));
    let cfg = SimConfig::default_for(presets::sanyo_am1815())
        .unwrap()
        .with_load(load);
    let mut sim = NodeSimulation::new(cfg).expect("valid sim");
    let mut t = FocvSampleHold::paper_prototype().expect("valid tracker");
    let report = sim
        .run(&mut t, &trace, Seconds::new(10.0))
        .expect("run succeeds");
    let consumed = report.overhead_energy.value() + report.load_demand.value();
    let rel = (consumed - predicted).abs() / predicted;
    assert!(rel < 0.2, "sizing vs sim mismatch {rel:.3}");
}

/// Spectral factors are consistent with the conversion helper for every
/// (technology, source) pair.
#[test]
fn spectral_table_consistency() {
    for tech in [
        CellTechnology::AmorphousSilicon,
        CellTechnology::CrystallineSilicon,
    ] {
        for source in [
            LightSource::Daylight,
            LightSource::Fluorescent,
            LightSource::Incandescent,
            LightSource::Led,
        ] {
            let f = spectral_factor(tech, source);
            assert!(f.value() > 0.0 && f.value() < 5.0);
            let eff = effective_illuminance(Lux::new(100.0), tech, source);
            assert!((eff.value() - 100.0 * f.value()).abs() < 1e-9);
        }
    }
}
