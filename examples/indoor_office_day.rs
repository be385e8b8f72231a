//! A wireless sensor node living on an office desk for 24 hours —
//! the indoor scenario from the paper's introduction: ~1 mW of cell
//! output at best, so the MPPT electronics must be ultra low-power.
//!
//! The node: AM-1815 cell, the proposed FOCV sample-and-hold tracker,
//! buck-boost converter, a 0.22 F supercapacitor and a duty-cycled
//! sense-and-transmit load.
//!
//! Run with `cargo run --example indoor_office_day`.

use pv_mppt_repro::core::baselines::FocvSampleHold;
use pv_mppt_repro::env::profiles;
use pv_mppt_repro::node::{ConcreteStore, DutyCycledLoad, NodeSimulation, Supercapacitor};
use pv_mppt_repro::pv::presets;
use pv_mppt_repro::units::{Farads, Seconds, Volts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let day = profiles::office_desk_mixed(42).decimate(5)?; // 5 s grid

    // Deployed with a charged store so the node survives the first night.
    let store = Supercapacitor::new(Farads::new(0.22), Volts::new(5.0), Volts::new(1.8))?
        .with_initial_voltage(Volts::new(4.0));
    let mut sim = NodeSimulation::default_for(presets::sanyo_am1815())?
        .with_store(ConcreteStore::Supercapacitor(store))
        .with_load(DutyCycledLoad::typical_sensor_node()?);
    let mut tracker = FocvSampleHold::paper_prototype()?;
    let report = sim.run(&mut tracker, &day, Seconds::new(5.0))?;

    println!("24 h on an office desk (mixed natural + artificial light)\n");
    println!("tracker              : {}", report.tracker);
    println!("gross harvest        : {}", report.gross_energy);
    println!("tracker overhead     : {}", report.overhead_energy);
    println!("net harvest          : {}", report.net_energy());
    println!("Voc samples taken    : {}", report.measurements);
    println!("load demand          : {}", report.load_demand);
    println!("load served          : {}", report.load_served);
    println!("uptime               : {}", report.uptime());
    println!("store at midnight    : {}", report.final_store_energy);
    println!();
    if report.uptime().value() > 0.99 {
        println!("The node ran through the whole day — energy-neutral operation,");
        println!("which is exactly what the paper's 8 µA tracker budget buys.");
    } else {
        println!("The node browned out for part of the day; try a larger cell or");
        println!("supercapacitor, or a lower duty cycle.");
    }
    Ok(())
}
