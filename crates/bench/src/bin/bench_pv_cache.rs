//! Benchmark — the PV operating-point cache vs the exact solver.
//!
//! The exact single-diode `current_at` bisects the implicit I-V equation
//! (100 iterations with an `exp` each) on every converter step, which
//! dominates closed-loop simulation time. [`CachedPvSurface`] replaces
//! the hot path with a bilinear table lookup; this bin measures
//!
//! 1. the one-off table build cost, and the worker threads the build
//!    solved its rows on (the host's available parallelism),
//! 2. the measured worst relative current error against the exact
//!    solver (must sit inside the documented 1e-3 bound),
//! 3. the measured worst `Vmpp` error and power loss of the `Vmpp(lux)`
//!    table against the exact golden-section solve, for the AM-1815 and
//!    the crystalline preset (must sit inside their documented bounds),
//!    and the per-call cost of a cached vs an exact MPP,
//! 4. the closed-loop circuit speedup (`FocvMpptSystem`, exact vs
//!    cached) with pulse/k/energy agreement,
//! 5. the node-day speedup (`NodeSimulation` over a seeded office day)
//!    with gross-energy agreement,
//!
//! and writes the numbers to `BENCH_pv_cache.json` at the repo root.
//!
//! Run with `cargo run -q --release -p eh-bench --bin bench_pv_cache`
//! (accepts `--smoke` for the fast CI profile: one repetition, fewer
//! validation probes and shorter runs — same assertions, no timing
//! claims).

use std::time::{Duration, Instant};

use eh_bench::{banner, fmt, smoke_mode};
use eh_core::baselines::FocvSampleHold;
use eh_core::{FocvMpptSystem, RunReport, SystemConfig};
use eh_env::profiles;
use eh_node::{NodeReport, NodeSimulation, SimConfig};
use eh_pv::{presets, CachedPvSurface, PvCell};
use eh_units::{Lux, Seconds, Volts};

/// Probe density for the validation sweep (off-grid by construction).
const LUX_PROBES: usize = 64;
/// Voltage probes per lux probe in the validation sweep.
const V_PROBES: usize = 129;
/// Illuminance probes of the `Vmpp` table validation sweep.
const MPP_PROBES: usize = 960;
/// Timed repetitions; the minimum wall-clock is reported.
const REPS: usize = 3;

fn best_of<T>(reps: usize, mut job: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = job();
        let elapsed = t0.elapsed();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, out));
        }
    }
    best.expect("at least one repetition")
}

/// A closed-loop circuit run; when caching, `warmed`'s already-built
/// surface is shared into the system (clones of a warmed cell share the
/// table) so the timed region holds lookups only, not the table build.
fn system_run(
    warmed: &PvCell,
    cache: bool,
    duration: Seconds,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_prototype()?;
    if cache {
        cfg.cell = warmed.clone();
    }
    cfg.cold_start.set_rail_voltage(Volts::new(3.3));
    let mut sys = FocvMpptSystem::new(cfg)?;
    Ok(sys.run_constant(Lux::new(1000.0), duration, Seconds::new(0.05))?)
}

fn node_run(
    warmed: &PvCell,
    cache: bool,
    decimate: usize,
) -> Result<NodeReport, Box<dyn std::error::Error>> {
    let trace = profiles::office_desk_mixed(2011).decimate(decimate)?;
    let cell = if cache {
        warmed.clone()
    } else {
        presets::sanyo_am1815()
    };
    let cfg = SimConfig::default_for(cell)?;
    let mut sim = NodeSimulation::new(cfg)?;
    let mut tracker = FocvSampleHold::paper_prototype()?;
    Ok(sim.run(&mut tracker, &trace, Seconds::new(decimate as f64))?)
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = smoke_mode();
    // The smoke profile (CI) keeps every assertion but shrinks the
    // timed work; its timings are not comparable to full-profile runs.
    let (reps, lux_probes, v_probes, mpp_probes) = if smoke {
        (1, 16, 33, 60)
    } else {
        (REPS, LUX_PROBES, V_PROBES, MPP_PROBES)
    };
    let sys_duration = Seconds::new(if smoke { 120.0 } else { 600.0 });
    let node_decimate = if smoke { 60 } else { 5 };

    banner("PV operating-point cache — build cost and measured error");
    let cell = presets::sanyo_am1815();
    let (build_time, surface) = best_of(reps, || {
        CachedPvSurface::build(cell.model(), cell.temperature()).expect("surface builds")
    });
    let (n_lux, n_v) = CachedPvSurface::grid_size();
    // The build solves its rows on the host's available parallelism,
    // one worker per row at most.
    let build_workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(n_lux);
    let (lux_lo, lux_hi) = CachedPvSurface::lux_domain();
    let max_rel_err = surface.validate_against_exact(lux_probes, v_probes)?;
    println!(
        "table {n_lux}x{n_v} over {lux_lo}..{lux_hi}: built in {build_time:?} \
         on {build_workers} worker(s), \
         worst |dI|/Isc over {lux_probes}x{v_probes} off-grid probes = {max_rel_err:.3e} \
         (documented bound 1.0e-3)"
    );
    assert!(
        max_rel_err < 1e-3,
        "measured error {max_rel_err:.3e} breaks the documented bound"
    );

    // The Vmpp table: worst case over both presets' surfaces (the
    // crystalline cell's sharper power peak is the binding one).
    let csi = presets::crystalline_outdoor();
    let csi_surface = CachedPvSurface::build(csi.model(), csi.temperature())?;
    let (mut vmpp_err, mut mpp_loss) = (0.0_f64, 0.0_f64);
    for (name, s) in [(cell.name(), &surface), (csi.name(), &csi_surface)] {
        let (dv, loss) = s.validate_mpp_against_exact(mpp_probes)?;
        println!(
            "{name}: worst |dVmpp| over {mpp_probes} off-grid probes = {dv:.3e} V, \
             worst power loss at the cached Vmpp = {loss:.3e}"
        );
        vmpp_err = vmpp_err.max(dv);
        mpp_loss = mpp_loss.max(loss);
    }
    assert!(
        vmpp_err < CachedPvSurface::VMPP_ERROR_BOUND_VOLTS,
        "measured Vmpp error {vmpp_err:.3e} V breaks the documented bound"
    );
    assert!(
        mpp_loss < CachedPvSurface::MPP_REL_POWER_LOSS_BOUND,
        "measured MPP power loss {mpp_loss:.3e} breaks the documented bound"
    );
    let mpp_luxes: Vec<Lux> = (0..mpp_probes)
        .map(|a| Lux::new(10f64.powf(-1.0 + 6.0 * a as f64 / mpp_probes as f64)))
        .collect();
    let per_call = |elapsed: Duration| elapsed.as_secs_f64() / mpp_probes as f64;
    let (mpp_exact_t, _) = best_of(reps, || {
        for &lux in &mpp_luxes {
            std::hint::black_box(cell.mpp(lux).expect("exact MPP"));
        }
    });
    let (mpp_cached_t, _) = best_of(reps, || {
        for &lux in &mpp_luxes {
            std::hint::black_box(surface.mpp(lux).expect("cached MPP"));
        }
    });
    let (mpp_exact_us, mpp_cached_ns) = (1e6 * per_call(mpp_exact_t), 1e9 * per_call(mpp_cached_t));
    println!(
        "MPP per call: exact golden-section {mpp_exact_us:.1} µs vs cached table {mpp_cached_ns:.0} ns \
         (bounds {:.0e} V, {:.0e} power loss)",
        CachedPvSurface::VMPP_ERROR_BOUND_VOLTS,
        CachedPvSurface::MPP_REL_POWER_LOSS_BOUND
    );

    banner(&format!(
        "Closed-loop circuit: FocvMpptSystem, {} s @ 1000 lux, dt 50 ms",
        sys_duration.value()
    ));
    let warmed = presets::sanyo_am1815().with_cache(true);
    warmed.cached()?;
    let (exact_t, exact) = best_of(reps, || {
        system_run(&warmed, false, sys_duration).expect("exact run")
    });
    let (cached_t, cached) = best_of(reps, || {
        system_run(&warmed, true, sys_duration).expect("cached run")
    });
    let sys_speedup = exact_t.as_secs_f64() / cached_t.as_secs_f64().max(1e-12);
    let k_diff = (exact.measured_k.value() - cached.measured_k.value()).abs();
    let stored_rel = rel_diff(cached.stored_energy.value(), exact.stored_energy.value());
    println!(
        "exact {exact_t:?} vs cached {cached_t:?}  (speedup x{})",
        fmt(sys_speedup, 1)
    );
    println!(
        "pulses {} vs {}, |dk| = {k_diff:.2e}, stored-energy rel diff = {stored_rel:.2e}",
        exact.pulses, cached.pulses
    );
    assert_eq!(exact.pulses, cached.pulses, "pulse counts must agree");
    assert!(k_diff < 1e-3, "measured k diverged: {k_diff:.3e}");
    assert!(
        stored_rel < 5e-3,
        "stored energy diverged: {stored_rel:.3e}"
    );

    banner(&format!(
        "Node day: NodeSimulation, seeded office day, dt {node_decimate} s"
    ));
    let (nexact_t, nexact) = best_of(reps, || {
        node_run(&warmed, false, node_decimate).expect("exact run")
    });
    let (ncached_t, ncached) = best_of(reps, || {
        node_run(&warmed, true, node_decimate).expect("cached run")
    });
    let node_speedup = nexact_t.as_secs_f64() / ncached_t.as_secs_f64().max(1e-12);
    let gross_rel = rel_diff(ncached.gross_energy.value(), nexact.gross_energy.value());
    println!(
        "exact {nexact_t:?} vs cached {ncached_t:?}  (speedup x{})",
        fmt(node_speedup, 1)
    );
    println!(
        "gross {} vs {}, measurements {} vs {}, gross rel diff = {gross_rel:.2e}",
        nexact.gross_energy, ncached.gross_energy, nexact.measurements, ncached.measurements
    );
    assert_eq!(
        nexact.measurements, ncached.measurements,
        "measurement counts must agree"
    );
    assert!(gross_rel < 5e-3, "gross energy diverged: {gross_rel:.3e}");

    let json = format!(
        r#"{{
  "bench": "pv_cache",
  "command": "cargo run -q --release -p eh-bench --bin bench_pv_cache",
  "smoke": {smoke},
  "surface": {{
    "grid_lux": {n_lux},
    "grid_v": {n_v},
    "lux_domain": [{lo}, {hi}],
    "build_ms": {build_ms:.3},
    "build_workers": {build_workers},
    "validation_probes": [{lux_probes}, {v_probes}],
    "max_rel_current_error": {max_rel_err:.6e},
    "documented_error_bound": 1e-3
  }},
  "mpp_table": {{
    "cells": ["{am_name}", "{csi_name}"],
    "validation_probes": {mpp_probes},
    "max_vmpp_error_v": {vmpp_err:.6e},
    "documented_vmpp_bound_v": {vmpp_bound:e},
    "max_rel_power_loss": {mpp_loss:.6e},
    "documented_power_loss_bound": {loss_bound:e},
    "exact_mpp_us_per_call": {mpp_exact_us:.3},
    "cached_mpp_ns_per_call": {mpp_cached_ns:.1}
  }},
  "closed_loop_system": {{
    "scenario": "FocvMpptSystem run_constant, 1000 lux, {sys_secs} s, dt 0.05 s",
    "exact_ms": {se_ms:.3},
    "cached_ms": {sc_ms:.3},
    "speedup": {sys_speedup:.2},
    "pulses_exact": {pe},
    "pulses_cached": {pc},
    "measured_k_abs_diff": {k_diff:.6e},
    "stored_energy_rel_diff": {stored_rel:.6e}
  }},
  "node_day": {{
    "scenario": "NodeSimulation, office_desk_mixed(2011) decimate {node_decimate}, dt {node_decimate} s",
    "exact_ms": {ne_ms:.3},
    "cached_ms": {nc_ms:.3},
    "speedup": {node_speedup:.2},
    "measurements_exact": {me},
    "measurements_cached": {mc},
    "gross_energy_exact_j": {ge:.9},
    "gross_energy_cached_j": {gc:.9},
    "gross_energy_rel_diff": {gross_rel:.6e}
  }},
  "tolerances": {{
    "pulse_counts": "exact match",
    "measurement_counts": "exact match",
    "measured_k_abs": 1e-3,
    "energy_rel": 5e-3
  }}
}}
"#,
        lo = lux_lo.value(),
        hi = lux_hi.value(),
        am_name = cell.name(),
        csi_name = csi.name(),
        vmpp_bound = CachedPvSurface::VMPP_ERROR_BOUND_VOLTS,
        loss_bound = CachedPvSurface::MPP_REL_POWER_LOSS_BOUND,
        sys_secs = sys_duration.value(),
        build_ms = build_time.as_secs_f64() * 1e3,
        se_ms = exact_t.as_secs_f64() * 1e3,
        sc_ms = cached_t.as_secs_f64() * 1e3,
        pe = exact.pulses,
        pc = cached.pulses,
        ne_ms = nexact_t.as_secs_f64() * 1e3,
        nc_ms = ncached_t.as_secs_f64() * 1e3,
        me = nexact.measurements,
        mc = ncached.measurements,
        ge = nexact.gross_energy.value(),
        gc = ncached.gross_energy.value(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pv_cache.json");
    std::fs::write(path, json)?;
    println!("\nwrote {path}");
    Ok(())
}
