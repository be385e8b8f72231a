//! End-to-end verification of the paper's headline claims, exercising
//! the full crate stack through the facade.

use pv_mppt_repro::core::baselines::{FocvSampleHold, PerturbObserve};
use pv_mppt_repro::core::{FocvMpptSystem, MpptController, SystemConfig};
use pv_mppt_repro::env::{profiles, sampling_error, TimeSeries};
use pv_mppt_repro::node::{compare_trackers, NodeSimulation};
use pv_mppt_repro::pv::{focv, presets, PvCell};
use pv_mppt_repro::units::{Lux, Ratio, Seconds, Volts};

fn voc_trace(cell: &PvCell, lux_trace: &TimeSeries) -> TimeSeries {
    lux_trace.map(|lux| {
        cell.open_circuit_voltage(Lux::new(lux.max(0.0)))
            .map(|v| v.value())
            .unwrap_or(0.0)
    })
}

/// Abstract claim: the novel S&H arrangement draws ~8 µA on average
/// (§IV-B: "a quiescent current draw of 8 µA").
#[test]
fn claim_8_microamp_metrology() {
    let mut cfg = SystemConfig::paper_prototype().expect("valid prototype");
    cfg.cold_start.set_rail_voltage(Volts::new(3.3));
    let mut sys = FocvMpptSystem::new(cfg).expect("valid system");
    let report = sys
        .run_constant(Lux::new(1000.0), Seconds::new(345.0), Seconds::new(0.02))
        .expect("run succeeds");
    let ua = report.average_metrology_current.as_micro();
    assert!(
        (7.0..8.6).contains(&ua),
        "metrology draw {ua} µA outside the paper's 7.6–8 µA band"
    );
}

/// Table I claim: tracking factor k stays in a tight band (59.2–60.1 %)
/// from 200 to 5000 lux.
#[test]
fn claim_table1_k_band() {
    for lux in [200.0, 700.0, 2000.0, 5000.0] {
        let mut cfg = SystemConfig::paper_prototype().expect("valid prototype");
        cfg.cold_start.set_rail_voltage(Volts::new(3.3));
        let mut sys = FocvMpptSystem::new(cfg).expect("valid system");
        let report = sys
            .run_constant(Lux::new(lux), Seconds::new(140.0), Seconds::new(0.02))
            .expect("run succeeds");
        let k = report.measured_k.as_percent();
        assert!(
            (58.5..61.0).contains(&k),
            "k({lux} lx) = {k} % outside the Table I band"
        );
    }
}

/// §IV-B claim: the system cold starts at 200 lux and fires its first
/// PULSE quickly.
#[test]
fn claim_cold_start_at_200_lux() {
    let mut sys = FocvMpptSystem::new(SystemConfig::paper_prototype().expect("valid prototype"))
        .expect("valid system");
    let report = sys
        .run_constant(Lux::new(200.0), Seconds::new(60.0), Seconds::new(0.05))
        .expect("run succeeds");
    let t_start = report.cold_start_time.expect("must cold start at 200 lux");
    assert!(t_start.value() < 30.0, "cold start took {t_start}");
    let t_pulse = report.first_pulse_time.expect("first PULSE must fire");
    assert!(
        (t_pulse - t_start).value() < 1.0,
        "first PULSE should follow the rail immediately"
    );
    assert!(
        report.stored_energy.value() > 0.0,
        "must harvest at 200 lux"
    );
}

/// §II-B claim: with a 1-minute sampling period the worst-case mean Voc
/// error stays in the tens of millivolts on both 24-hour logs and the
/// implied efficiency loss is below 1 %.
#[test]
fn claim_eq2_error_budget() {
    let cell = presets::schott_asi_1116929();
    let desk = voc_trace(&cell, &profiles::desk_weekend_blinds_closed(2011));
    let mobile = voc_trace(&cell, &profiles::semi_mobile_friday(2011));

    let e_desk = sampling_error::worst_case_mean_error(&desk, Seconds::new(60.0))
        .expect("analysis succeeds");
    let e_mobile = sampling_error::worst_case_mean_error(&mobile, Seconds::new(60.0))
        .expect("analysis succeeds");
    // Paper: 12.7 mV and 24.1 mV. Same order, mobile strictly worse.
    assert!(
        (5e-3..40e-3).contains(&e_desk),
        "desk Ē = {} V not in the tens-of-mV band",
        e_desk
    );
    assert!(
        (10e-3..50e-3).contains(&e_mobile),
        "mobile Ē = {} V not in the tens-of-mV band",
        e_mobile
    );
    assert!(e_mobile > e_desk, "semi-mobile must be the worse log");

    let am1815 = presets::sanyo_am1815();
    let mpp_err = focv::mpp_error_from_voc_error(Volts::new(e_mobile), Ratio::new(0.596));
    let loss = focv::efficiency_loss_for_voltage_error(&am1815, Lux::new(500.0), mpp_err)
        .expect("analysis succeeds");
    assert!(
        loss.as_percent() < 1.0,
        "worst-case loss {loss} breaks the <1 % claim"
    );
}

/// §I/§IV-B claim: state-of-the-art outdoor trackers are net-negative
/// indoors; the proposed technique is net-positive and near the oracle.
#[test]
fn claim_indoor_superiority() {
    let cell = presets::sanyo_am1815();
    let indoor = profiles::constant(Lux::new(300.0), Seconds::from_hours(1.0));
    let mut focv = FocvSampleHold::paper_prototype().expect("valid tracker");
    let mut po = PerturbObserve::literature_default().expect("valid tracker");
    let mut trackers: Vec<&mut dyn MpptController> = vec![&mut focv, &mut po];
    let rows =
        compare_trackers(&cell, &indoor, Seconds::new(1.0), &mut trackers).expect("run succeeds");

    let focv_row = rows
        .iter()
        .find(|r| r.name.contains("sample-and-hold"))
        .expect("FOCV row");
    let po_row = rows
        .iter()
        .find(|r| r.name.contains("perturb"))
        .expect("P&O row");
    assert!(focv_row.summary.is_net_positive());
    assert!(!po_row.summary.is_net_positive());
    assert!(
        focv_row.summary.efficiency_vs_oracle().value() > 0.6,
        "FOCV vs oracle = {}",
        focv_row.summary.efficiency_vs_oracle()
    );
}

/// Abstract claim: the technique needs no pilot cell or photodiode —
/// i.e. the FOCV controller never reads the ambient-light observation.
#[test]
fn claim_no_light_sensor_needed() {
    let tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
    assert!(!tracker.requires_light_sensor());
}

/// §IV-A claim: the astable produces a 39 ms ON and 69 s OFF period, and
/// the full system's PULSE cadence follows it.
#[test]
fn claim_pulse_timing() {
    let mut cfg = SystemConfig::paper_prototype().expect("valid prototype");
    cfg.record_traces = true;
    cfg.cold_start.set_rail_voltage(Volts::new(3.3));
    let mut sys = FocvMpptSystem::new(cfg).expect("valid system");
    sys.run_constant(Lux::new(1000.0), Seconds::new(220.0), Seconds::new(0.005))
        .expect("run succeeds");
    let pulse = sys.pulse_trace().expect("tracing enabled");
    let rises = pulse.rising_edges(1.65);
    assert!(
        rises.len() >= 3,
        "need at least 3 pulses, got {}",
        rises.len()
    );
    let period = (rises[2] - rises[1]).value();
    assert!((period - 69.04).abs() < 0.5, "PULSE period {period} s");
    for width in pulse.high_durations(1.65) {
        assert!(
            (width.as_milli() - 39.0).abs() < 8.0,
            "PULSE width {width} vs 39 ms"
        );
    }
}

/// The simulation engine itself: a full closed-loop day costs seconds,
/// and the node stays alive through it (sanity of the whole stack).
#[test]
fn full_day_closed_loop_smoke() {
    let day = profiles::office_desk_mixed(99)
        .decimate(30)
        .expect("decimate succeeds");
    let mut sim = NodeSimulation::default_for(presets::sanyo_am1815()).expect("valid config");
    let mut tracker = FocvSampleHold::paper_prototype().expect("valid tracker");
    let report = sim
        .run(&mut tracker, &day, Seconds::new(30.0))
        .expect("run succeeds");
    assert!(
        report.gross_energy.value() > 1.0,
        "a lit office day yields joules"
    );
    assert!(report.is_net_positive());
}
