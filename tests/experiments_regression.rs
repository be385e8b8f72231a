//! Regression pins for the headline numbers recorded in EXPERIMENTS.md.
//! If a model change moves one of these outside its band, the recorded
//! results (and possibly the calibration) need re-examination — these
//! tests make that drift loud instead of silent.

use pv_mppt_repro::core::{tracking_accuracy_table, SystemConfig};
use pv_mppt_repro::env::{profiles, sampling_error, TimeSeries};
use pv_mppt_repro::pv::{presets, PvCell};
use pv_mppt_repro::units::{Lux, Seconds};

fn voc_trace(cell: &PvCell, lux_trace: &TimeSeries) -> TimeSeries {
    lux_trace.map(|lux| {
        cell.open_circuit_voltage(Lux::new(lux.max(0.0)))
            .map(|v| v.value())
            .unwrap_or(0.0)
    })
}

/// E4: every Table I row reproduces Voc within 2 % and k in-band.
#[test]
fn table1_rows_within_bands() {
    const PAPER: [(f64, f64); 12] = [
        (200.0, 4.978),
        (300.0, 5.096),
        (400.0, 5.18),
        (500.0, 5.242),
        (600.0, 5.292),
        (700.0, 5.333),
        (800.0, 5.369),
        (900.0, 5.41),
        (1000.0, 5.44),
        (2000.0, 5.64),
        (3000.0, 5.75),
        (5000.0, 5.91),
    ];
    let base = SystemConfig::paper_prototype().expect("valid prototype");
    let intensities: Vec<Lux> = PAPER.iter().map(|&(lux, _)| Lux::new(lux)).collect();
    let rows = tracking_accuracy_table(&base, &intensities, 1).expect("table runs");
    for (row, &(lux, voc_paper)) in rows.iter().zip(&PAPER) {
        let rel = (row.open_circuit_voltage.value() - voc_paper).abs() / voc_paper;
        assert!(rel < 0.02, "Voc({lux}) off by {rel:.4}");
        let k = row.k.as_percent();
        assert!((58.5..61.0).contains(&k), "k({lux}) = {k}");
    }
}

/// E5: the Eq. (2) headline numbers stay in their recorded bands
/// (desk ≈ 15 mV, semi-mobile ≈ 23 mV at a 60 s period, seed 2011).
#[test]
fn eq2_headlines_stable() {
    let cell = presets::schott_asi_1116929();
    let desk = voc_trace(&cell, &profiles::desk_weekend_blinds_closed(2011));
    let mobile = voc_trace(&cell, &profiles::semi_mobile_friday(2011));
    let e_desk =
        sampling_error::worst_case_mean_error(&desk, Seconds::new(60.0)).expect("analysis");
    let e_mobile =
        sampling_error::worst_case_mean_error(&mobile, Seconds::new(60.0)).expect("analysis");
    assert!(
        (0.010..0.020).contains(&e_desk),
        "desk Ē drifted: {e_desk} V (recorded 14.8 mV)"
    );
    assert!(
        (0.019..0.030).contains(&e_mobile),
        "mobile Ē drifted: {e_mobile} V (recorded 23.3 mV)"
    );
}

/// E6: the calibrated metrology chain still lands on the paper's 7.6 µA.
#[test]
fn metrology_budget_stable() {
    use pv_mppt_repro::analog::astable::AstableMultivibrator;
    use pv_mppt_repro::analog::sample_hold::{SampleHold, SampleHoldConfig};
    use pv_mppt_repro::analog::CurrentLedger;
    use pv_mppt_repro::units::Volts;

    let mut astable = AstableMultivibrator::paper_configuration().expect("valid astable");
    let mut sh = SampleHold::new(SampleHoldConfig::paper_configuration(0.298).expect("valid"))
        .expect("valid S&H");
    let mut ledger = CurrentLedger::new();
    let total = Seconds::new(3.0 * 69.05);
    let mut t = Seconds::ZERO;
    while t < total {
        let seg = astable
            .time_to_next_transition()
            .min(Seconds::new(1.0))
            .max(Seconds::from_milli(1.0))
            .min(total - t);
        let pulse = astable.output_high();
        let a = astable.step(seg);
        let s = sh.step(Volts::new(5.44), pulse, seg);
        ledger.accumulate("astable", a.supply_charge / seg, seg);
        ledger.accumulate("sh", s.supply_charge / seg, seg);
        ledger.advance(seg);
        t += seg;
    }
    let ua = ledger.average_current_elapsed().as_micro();
    assert!(
        (7.3..7.9).contains(&ua),
        "metrology drifted to {ua} µA (recorded 7.60, paper 7.6)"
    );
}

/// E1: the Fig. 1 cell's headline MPP at 1000 lux stays put.
#[test]
fn fig1_mpp_stable() {
    let cell = presets::schott_asi_1116929();
    let mpp = cell.mpp(Lux::new(1000.0)).expect("solver converges");
    assert!(
        (1.2e-3..1.45e-3).contains(&mpp.power.value()),
        "Fig.1 MPP drifted: {}",
        mpp.power
    );
    assert!(
        (3.0..3.3).contains(&mpp.voltage.value()),
        "Fig.1 Vmpp drifted: {}",
        mpp.voltage
    );
}

/// E9.3: the hold-capacitor droop budget (polyester, 69 s) stays within
/// the §II-B error budget.
#[test]
fn hold_droop_stable() {
    use pv_mppt_repro::analog::sample_hold::{SampleHold, SampleHoldConfig};
    use pv_mppt_repro::units::Volts;

    let mut sh = SampleHold::new(SampleHoldConfig::paper_configuration(0.298).expect("valid"))
        .expect("valid S&H");
    sh.step(Volts::new(5.44), true, Seconds::from_milli(39.0));
    let held = sh.hold_voltage();
    sh.step(Volts::ZERO, false, Seconds::new(69.0));
    let droop = (held - sh.hold_voltage()).value() * 1e3;
    assert!(
        (0.1..3.0).contains(&droop),
        "droop drifted: {droop} mV (recorded ≈1.2 mV)"
    );
}
