//! Benchmark — fleet-scale simulation throughput and determinism.
//!
//! Runs the reference mixed indoor/outdoor fleet (day-scale light,
//! 1-minute grid) at several sizes and worker counts, recording
//! nodes/sec into `BENCH_fleet.json`, and asserts the eh-fleet
//! determinism contract on the way: the reference fleet must produce
//! **bit-identical** [`FleetReport`]s at every worker count. A compact
//! tracker comparison over a smaller replayed population closes the
//! report.
//!
//! Timings cover the simulation only: the shared fleet inputs
//! (population, base traces, warmed PV surfaces) are prepared once per
//! size via [`FleetContext`] outside the timed region. The full profile
//! includes a 100k-node fleet to show fleet scale.
//!
//! The worker sweep is clamped to the host's `available_parallelism`
//! (recorded as `workers_clamped` in the JSON): oversubscribed counts
//! cannot add speed and used to register as a phantom slowdown on the
//! 100k-node row when the hard-coded 4-worker rung ran on a smaller
//! container.
//!
//! A metrics pass re-runs the reference fleet with
//! [`FleetSpec::obs`] enabled: the merged metric store must be
//! bit-identical at 1/2/4 workers, its energy ledger must balance the
//! summed closed-loop node accounting within 1e-9 relative, and the
//! wall-clock overhead of metrics-on vs metrics-off is recorded (never
//! gated) in the JSON.
//!
//! Run with `cargo run -q --release -p eh-bench --bin bench_fleet`
//! (accepts `--workers N` / `EH_WORKERS` to set the top worker count,
//! and `--smoke` for the fast CI profile: one small fleet size on a
//! coarse grid, same code paths and assertions, no timing claims).

use std::time::Instant;

use eh_bench::{banner, clamp_worker_counts, fmt, render_table, smoke_mode, sweep_runner};
use eh_fleet::{
    compare_trackers_over_fleet, FleetContext, FleetReport, FleetRunner, FleetSpec, PlacementMix,
    TrackerKind,
};
use eh_units::{Joules, Seconds};

/// Fleet sizes for the scaling sweep (full profile).
const SIZES: [u32; 4] = [100, 1000, 10_000, 100_000];
/// The fleet size the determinism assertion and drill-down use.
const REFERENCE_SIZE: u32 = 1000;
/// Smoke-profile fleet size (also the smoke reference size).
const SMOKE_SIZE: u32 = 100;

fn day_spec(nodes: u32, smoke: bool) -> FleetSpec {
    let mut spec = FleetSpec::mixed_indoor_outdoor(nodes, 2011).expect("reference spec is valid");
    if smoke {
        // 10-minute grid: same physics and code paths, ~1/10 the steps.
        spec.trace_decimate = 600;
        spec.dt = Seconds::new(600.0);
    }
    spec
}

fn percentile_row(report: &FleetReport) -> (f64, f64, f64) {
    let p = report
        .net_energy_percentiles()
        .expect("non-empty fleet report");
    (p.p5, p.p50, p.p95)
}

/// Median gross harvest, metrology energy and compute energy — the
/// three columns whose difference is the net-energy ranking.
fn energy_columns(report: &FleetReport) -> (f64, f64, f64) {
    let p50 = |p: Option<eh_fleet::Percentiles>| p.expect("non-empty fleet report").p50;
    (
        p50(report.gross_energy_percentiles()),
        p50(report.overhead_percentiles()),
        p50(report.compute_energy_percentiles()),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let smoke = smoke_mode();
    let max_workers = sweep_runner().workers();
    let mut worker_counts = vec![1usize, 2, 4, max_workers];
    let workers_clamped = clamp_worker_counts(&mut worker_counts, host);
    let (sizes, reference_size): (Vec<u32>, u32) = if smoke {
        (vec![SMOKE_SIZE], SMOKE_SIZE)
    } else {
        (SIZES.to_vec(), REFERENCE_SIZE)
    };

    if smoke {
        banner("Fleet scaling — SMOKE profile, 10-minute grid (no timing claims)");
    } else {
        banner("Fleet scaling — mixed indoor/outdoor day, 1-minute grid");
    }
    println!(
        "host parallelism {host}, worker counts {worker_counts:?}{}, shard size {}\n\
         timings cover the simulation only: shared inputs are prepared once per size outside the timed region",
        if workers_clamped {
            " (clamped to host parallelism)"
        } else {
            ""
        },
        FleetRunner::DEFAULT_SHARD_SIZE
    );

    let mut scaling: Vec<(u32, usize, f64, f64)> = Vec::new();
    let mut reference_reports: Vec<(usize, FleetReport)> = Vec::new();
    let mut rows = Vec::new();
    for &nodes in &sizes {
        let spec = day_spec(nodes, smoke);
        let ctx = FleetContext::prepare(&spec)?;
        for &workers in &worker_counts {
            let runner = FleetRunner::new(workers);
            let t0 = Instant::now();
            let report = runner.run_prepared(&ctx)?;
            let elapsed = t0.elapsed().as_secs_f64();
            assert_eq!(report.nodes(), nodes as usize);
            let rate = f64::from(nodes) / elapsed.max(1e-12);
            scaling.push((nodes, workers, elapsed, rate));
            rows.push(vec![
                nodes.to_string(),
                workers.to_string(),
                fmt(elapsed, 3),
                fmt(rate, 1),
            ]);
            if nodes == reference_size {
                reference_reports.push((workers, report));
            }
        }
    }
    println!(
        "{}",
        render_table(&["nodes", "workers", "seconds", "nodes/sec"], &rows)
    );

    banner(&format!(
        "Determinism — {reference_size} nodes at every worker count"
    ));
    let (_, reference) = &reference_reports[0];
    for (workers, report) in &reference_reports[1..] {
        assert_eq!(
            report, reference,
            "{workers}-worker fleet diverged from the 1-worker run"
        );
    }
    let checked: Vec<usize> = reference_reports.iter().map(|(w, _)| *w).collect();
    println!("workers {checked:?}: bit-identical across worker counts");

    let (p5, p50, p95) = percentile_row(reference);
    let worst = reference.worst_node().expect("non-empty fleet");
    println!("{reference}");

    let rate_of = |workers: usize| {
        scaling
            .iter()
            .find(|(n, w, _, _)| *n == reference_size && *w == workers)
            .map(|(_, _, _, r)| *r)
    };

    banner(&format!(
        "Metrics — {reference_size} nodes with the eh-obs recorder enabled"
    ));
    let mut obs_spec = day_spec(reference_size, smoke);
    obs_spec.obs = true;
    let obs_ctx = FleetContext::prepare(&obs_spec)?;
    let mut obs_worker_counts = vec![1usize, 2, 4];
    obs_worker_counts.retain(|w| worker_counts.contains(w));
    let mut obs_reports: Vec<(usize, f64, FleetReport)> = Vec::new();
    for &workers in &obs_worker_counts {
        let t0 = Instant::now();
        let report = FleetRunner::new(workers).run_prepared(&obs_ctx)?;
        obs_reports.push((workers, t0.elapsed().as_secs_f64(), report));
    }
    let (_, obs_secs_1w, obs_ref) = &obs_reports[0];
    for (workers, _, report) in &obs_reports[1..] {
        assert_eq!(
            report.metrics, obs_ref.metrics,
            "{workers}-worker merged metrics diverged across workers"
        );
    }
    let metrics = obs_ref
        .metrics
        .as_ref()
        .expect("obs-enabled fleet carries a merged metric store");
    // Conservation: the five-bucket ledger vs the independently summed
    // per-node closed-loop accounting (overhead + losses + load served
    // + compute).
    let closed_loop: f64 = obs_ref
        .outcomes
        .iter()
        .map(|o| {
            o.report.overhead_energy.value()
                + o.report.loss_energy.value()
                + o.report.load_served.value()
                + o.report.compute_energy.value()
        })
        .sum();
    let ledger_rel_err = metrics.ledger().relative_error(Joules::new(closed_loop));
    assert!(
        ledger_rel_err < 1e-9,
        "fleet ledger drifts from closed-loop totals: {ledger_rel_err:.3e}"
    );
    // Overhead is measured against the metrics-off run at 1 worker and
    // recorded, never gated: CI containers make timing gates flaky.
    let plain_secs_1w = scaling
        .iter()
        .find(|(n, w, _, _)| *n == reference_size && *w == 1)
        .map(|(_, _, s, _)| *s)
        .expect("reference size measured at 1 worker");
    let obs_overhead_pct = (obs_secs_1w / plain_secs_1w.max(1e-12) - 1.0) * 100.0;
    let obs_checked: Vec<usize> = obs_reports.iter().map(|(w, _, _)| *w).collect();
    println!(
        "workers {obs_checked:?}: merged metric stores worker-invariant\n\
         ledger vs closed-loop rel error {ledger_rel_err:.3e} (bound 1e-9)\n\
         wall overhead vs metrics-off at 1 worker: {} % (recorded, not gated)",
        fmt(obs_overhead_pct, 1)
    );
    println!("{}", metrics.to_table());

    // Every tracker steps on the same node simulation, so the rows
    // compare trackers, not engines.
    let cmp_size = if smoke { 50 } else { 200 };
    banner(&format!(
        "Tracker comparison over one replayed {cmp_size}-node population"
    ));
    let mut cmp_spec = day_spec(cmp_size, false);
    cmp_spec.trace_decimate = 600; // 10-minute grid keeps 8 trackers tractable
    cmp_spec.dt = Seconds::new(600.0);
    let cmp_runner = FleetRunner::new(max_workers);
    let comparison = compare_trackers_over_fleet(&cmp_spec, &cmp_runner)?;
    let cmp_rows: Vec<Vec<String>> = comparison
        .iter()
        .map(|(kind, report)| {
            let (p5, p50, p95) = percentile_row(report);
            let (gross, metrology, compute) = energy_columns(report);
            vec![
                kind.label().to_owned(),
                fmt(gross, 3),
                fmt(metrology, 3),
                fmt(compute, 6),
                fmt(p5, 3),
                fmt(p50, 3),
                fmt(p95, 3),
                report.net_negative_count().to_string(),
                report.brown_out_count().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "tracker",
                "gross p50 (J)",
                "metrology p50 (J)",
                "compute p50 (J)",
                "net p5 (J)",
                "net p50 (J)",
                "net p95 (J)",
                "net-negative",
                "brown-outs"
            ],
            &cmp_rows
        )
    );

    banner("Volatile light — Eq. 2 variable hold vs the fixed 69 s schedule");
    // An outdoor-heavy (semi-mobile) population on the 1-minute grid:
    // the fixed tracker holds samples that go ~2 minutes stale between
    // PULSEs, while the Eq. 2 tracker shortens its hold period below the
    // step size and re-samples every connected minute for one extra
    // 39 ms dwell. The grid stays at dt = 60 s even in smoke — on a
    // 10-minute grid the shortened period cannot beat the step size and
    // the adaptation is invisible.
    let vol_size: u32 = if smoke { 24 } else { 120 };
    let mut vol_spec = FleetSpec::mixed_indoor_outdoor(vol_size, 2011)?;
    vol_spec.name = format!("outdoor-heavy volatile x{vol_size}");
    vol_spec.placements = PlacementMix::new(0.05, 0.05, 0.90)?;
    let vol_ctx = FleetContext::prepare(&vol_spec)?;
    let vol_runner = FleetRunner::new(max_workers);
    let vol_fixed = vol_runner.run_prepared(&vol_ctx)?;
    let vol_adaptive = vol_runner.run_tracker_prepared(&vol_ctx, TrackerKind::VariableHoldFocv)?;
    let vol_fixed_p50 = vol_fixed.net_energy_percentiles().expect("non-empty").p50;
    let vol_adaptive_p50 = vol_adaptive
        .net_energy_percentiles()
        .expect("non-empty")
        .p50;
    // Gate on the fleet-total net energy: the staleness win is a small
    // per-node margin that every node collects, so the sum is the
    // robust statistic (nearest-rank p50 is one node's value and can
    // sit on a node the adaptation barely touches).
    let fleet_net =
        |r: &FleetReport| -> f64 { r.outcomes.iter().map(|o| o.net_energy().value()).sum() };
    let vol_fixed_total = fleet_net(&vol_fixed);
    let vol_adaptive_total = fleet_net(&vol_adaptive);
    assert!(
        vol_adaptive_total > vol_fixed_total,
        "variable hold must beat fixed FOCV on a volatile fleet: {vol_adaptive_total} vs {vol_fixed_total} J total"
    );
    let vol_margin_pct =
        (vol_adaptive_total - vol_fixed_total) / vol_fixed_total.abs().max(1e-12) * 100.0;
    println!(
        "{vol_size} nodes, 90 % outdoor: fleet net {} J (variable hold) vs {} J (fixed 69 s) — +{} %\n\
         net p50 {} J vs {} J",
        fmt(vol_adaptive_total, 4),
        fmt(vol_fixed_total, 4),
        fmt(vol_margin_pct, 3),
        fmt(vol_adaptive_p50, 4),
        fmt(vol_fixed_p50, 4)
    );

    // Scaling headline: 1 worker vs the top worker count at the
    // reference size (honest numbers; ~1.0 expected on a 1-core host).
    let top_workers = *worker_counts.last().expect("non-empty");
    let worker_speedup = rate_of(top_workers)
        .expect("reference size measured at every worker count")
        / rate_of(1).expect("reference size measured at 1 worker");
    println!(
        "\n{reference_size}-node speedup x{} from 1 to {top_workers} workers on a {host}-core host",
        fmt(worker_speedup, 2),
    );

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(nodes, workers, secs, rate)| {
            format!(
                r#"    {{ "nodes": {nodes}, "workers": {workers}, "seconds": {secs:.3}, "nodes_per_sec": {rate:.1} }}"#
            )
        })
        .collect();
    let comparison_json: Vec<String> = comparison
        .iter()
        .map(|(kind, report)| {
            let (p5, p50, p95) = percentile_row(report);
            let (gross, metrology, compute) = energy_columns(report);
            format!(
                r#"    {{ "tracker": "{}", "gross_p50_j": {gross:.6}, "metrology_p50_j": {metrology:.6}, "compute_p50_j": {compute:.9}, "net_p5_j": {p5:.6}, "net_p50_j": {p50:.6}, "net_p95_j": {p95:.6}, "net_negative": {}, "brown_outs": {} }}"#,
                kind.label(),
                report.net_negative_count(),
                report.brown_out_count()
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "bench": "fleet",
  "command": "cargo run -q --release -p eh-bench --bin bench_fleet",
  "scenario": "FleetSpec::mixed_indoor_outdoor, seed 2011, {grid}, shard size {shard}",
  "smoke": {smoke},
  "host_parallelism": {host},
  "host_note": "worker counts beyond host_parallelism cannot add speed; on a 1-core host speedups of ~1.0 are the honest expectation",
  "timing_note": "nodes_per_sec covers the simulation only: population, base traces and PV surfaces are prepared once per size outside the timed region",
  "worker_counts": {workers:?},
  "workers_clamped": {workers_clamped},
  "workers_clamped_note": "requested counts above host_parallelism are dropped: oversubscription cannot add speed and reads as a phantom slowdown",
  "scaling": [
{scaling_rows}
  ],
  "speedup_1_to_max_workers_at_reference_size": {worker_speedup:.3},
  "determinism": {{
    "nodes": {ref_size},
    "worker_counts_checked": {checked:?},
    "bit_identical_across_workers": true
  }},
  "observability": {{
    "nodes": {ref_size},
    "worker_counts_checked": {obs_checked:?},
    "merged_metrics_worker_invariant": true,
    "ledger_rel_error_vs_closed_loop": {ledger_rel_err:.6e},
    "ledger_rel_error_bound": 1e-9,
    "wall_overhead_pct_vs_metrics_off_1_worker": {obs_overhead_pct:.2},
    "wall_overhead_note": "recorded only, never gated; container timing is too noisy for a CI gate",
    "metrics": {metrics_json}
  }},
  "reference_fleet": {{
    "nodes": {ref_size},
    "net_energy_p5_j": {p5:.6},
    "net_energy_p50_j": {p50:.6},
    "net_energy_p95_j": {p95:.6},
    "brown_outs": {brown},
    "cold_start_failures": {cold},
    "net_negative": {negative},
    "worst_node": {{ "id": {worst_id}, "placement": "{worst_place}", "net_j": {worst_net:.6} }}
  }},
  "tracker_comparison": {{
    "nodes": {cmp_size},
    "rows": [
{cmp_rows}
    ]
  }},
  "volatile_light": {{
    "nodes": {vol_size},
    "placement_mix": "window 0.05 / interior 0.05 / outdoor 0.90",
    "grid": "1-minute trace grid, dt 60 s (even in smoke)",
    "fixed_focv_net_total_j": {vol_fixed_total:.6},
    "variable_hold_net_total_j": {vol_adaptive_total:.6},
    "variable_hold_margin_pct": {vol_margin_pct:.4},
    "fixed_focv_net_p50_j": {vol_fixed_p50:.6},
    "variable_hold_net_p50_j": {vol_adaptive_p50:.6},
    "gate": "variable hold must beat fixed FOCV on fleet-total net energy (asserted)"
  }}
}}
"#,
        grid = if smoke {
            "10-minute trace grid, dt 600 s (smoke)"
        } else {
            "1-minute trace grid, dt 60 s"
        },
        shard = FleetRunner::DEFAULT_SHARD_SIZE,
        workers = worker_counts,
        scaling_rows = scaling_json.join(",\n"),
        ref_size = reference_size,
        metrics_json = metrics.to_json(),
        brown = reference.brown_out_count(),
        cold = reference.cold_start_failures(),
        negative = reference.net_negative_count(),
        worst_id = worst.id,
        worst_place = worst.placement.label(),
        worst_net = worst.net_energy().value(),
        cmp_rows = comparison_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, json)?;
    println!("wrote {path}");
    Ok(())
}
