//! Extension experiment — week-scale endurance. The paper argues its
//! tracker enables *indefinite* operation ("wireless sensor nodes can be
//! designed to operate indefinitely", §I); a single-day log cannot show
//! that. Here a node runs a full deployment week (4 office days, a
//! semi-mobile Friday, a blinds-closed weekend) on a supercapacitor and
//! on a small battery, with the proposed tracker vs the fixed-voltage
//! baseline.
//!
//! Run with `cargo run -p eh-bench --bin week_endurance`.

use eh_bench::{banner, fmt, render_table};
use eh_core::baselines::{FixedVoltage, FocvSampleHold};
use eh_core::MpptController;
use eh_env::week;
use eh_node::{Battery, ConcreteStore, DutyCycledLoad, NodeSimulation, Supercapacitor};
use eh_pv::{presets, PvCell};
use eh_sim::SweepRunner;
use eh_units::{Error, Farads, Joules, Seconds, Volts};

/// Tracker under comparison; each sweep job builds its own instance so
/// the rows can run on separate workers.
#[derive(Clone, Copy)]
enum Tracker {
    Focv,
    Fixed,
}

const TRACKERS: [Tracker; 2] = [Tracker::Focv, Tracker::Fixed];

fn run(
    kind: Tracker,
    cell: &PvCell,
    store: ConcreteStore,
    trace: &eh_env::TimeSeries,
) -> Result<Vec<String>, Error> {
    let mut tracker: Box<dyn MpptController> = match kind {
        Tracker::Focv => Box::new(FocvSampleHold::paper_prototype()?),
        Tracker::Fixed => Box::new(FixedVoltage::indoor_tuned()?),
    };
    let mut sim = NodeSimulation::default_for(cell.clone())?
        .with_store(store)
        .with_load(DutyCycledLoad::typical_sensor_node()?);
    let report = sim.run(tracker.as_mut(), trace, Seconds::new(10.0))?;
    Ok(vec![
        report.tracker.clone(),
        format!("{}", report.gross_energy),
        format!("{}", report.overhead_energy),
        format!("{}", report.net_energy()),
        fmt(report.uptime().as_percent(), 2),
        format!("{}", report.final_store_energy),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = week::office_week(2011)?.decimate(10)?;
    println!(
        "deployment week: {} days of light trace, duty-cycled sense+TX load",
        trace.duration().as_hours() / 24.0
    );
    // One pre-warmed operating-point cache, shared by every sweep job
    // (clones of a warmed cell share the table). Re-run with an
    // uncached `presets::sanyo_am1815()` to cross-check against the exact
    // solver — see BENCH_pv_cache.json for the measured agreement.
    let cell = presets::sanyo_am1815().warmed()?;

    banner("0.22 F supercapacitor (deployed charged to 4 V)");
    let sc = || {
        ConcreteStore::Supercapacitor(
            Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8))
                .expect("valid supercap")
                .with_initial_voltage(Volts::new(4.0)),
        )
    };
    let rows = SweepRunner::auto()
        .run(TRACKERS.to_vec(), |_, kind| run(kind, &cell, sc(), &trace))
        .into_iter()
        .collect::<Result<Vec<_>, Error>>()?;
    println!(
        "{}",
        render_table(
            &[
                "tracker",
                "gross",
                "overhead",
                "net",
                "uptime %",
                "store at end"
            ],
            &rows
        )
    );

    banner("200 J thin-film battery (deployed at 50 %)");
    let bat = || {
        ConcreteStore::Battery(
            Battery::new(Joules::new(200.0), 0.9, 0.03)
                .expect("valid battery")
                .with_state_of_charge(0.5),
        )
    };
    let rows = SweepRunner::auto()
        .run(TRACKERS.to_vec(), |_, kind| run(kind, &cell, bat(), &trace))
        .into_iter()
        .collect::<Result<Vec<_>, Error>>()?;
    println!(
        "{}",
        render_table(
            &[
                "tracker",
                "gross",
                "overhead",
                "net",
                "uptime %",
                "store at end"
            ],
            &rows
        )
    );

    banner("Metrics — where the week's energy went (FOCV, supercapacitor)");
    // The same run again with the eh-obs recorder enabled: the ledger
    // splits the week's consumption into the paper's circuit blocks.
    // Observation is passive — the physics is bit-identical to the
    // uninstrumented row above (eh-node tests assert this).
    let mut tracker = FocvSampleHold::paper_prototype()?;
    let report = NodeSimulation::default_for(cell.clone())?
        .with_store(sc())
        .with_load(DutyCycledLoad::typical_sensor_node()?)
        .with_obs(true)
        .run(&mut tracker, &trace, Seconds::new(10.0))?;
    let metrics = report
        .metrics
        .expect("obs-enabled run carries a metric store");
    println!("{}", metrics.to_table());

    println!("Reading: the harvest side is week-positive with either tracker (net");
    println!("≈140–150 J against a ~12 J weekly load+overhead demand), but storage");
    println!("sizing decides survival. The 0.22 F supercapacitor (≈2.4 J usable)");
    println!("cannot bank enough on Friday to ride out the blinds-closed weekend, so");
    println!("the node browns out Sunday night. The 200 J battery ends the week");
    println!("FULLER than it started (≈193 J vs 100 J) at 100 % uptime — the paper's");
    println!("\"operate indefinitely\" in steady state.");
    Ok(())
}
