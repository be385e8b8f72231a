//! Criterion benches for the PV operating-point cache: the same
//! closed-loop circuit run with the exact bisection solver and with the
//! memoized bilinear surface, plus the one-off table build.
//!
//! `cargo run -q --release -p eh-bench --bin bench_pv_cache` runs the
//! matching comparison with agreement checks and records the numbers in
//! `BENCH_pv_cache.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eh_core::{FocvMpptSystem, SystemConfig};
use eh_pv::{presets, CachedPvSurface, PvCell};
use eh_units::{Lux, Seconds, Volts};

fn run_system(warmed: &PvCell, cache: bool) {
    let mut cfg = SystemConfig::paper_prototype().expect("valid config");
    if cache {
        cfg.cell = warmed.clone();
    }
    cfg.cold_start.set_rail_voltage(Volts::new(3.3));
    let mut sys = FocvMpptSystem::new(cfg).expect("valid system");
    sys.run_constant(
        black_box(Lux::new(1000.0)),
        Seconds::new(120.0),
        Seconds::from_milli(50.0),
    )
    .expect("run succeeds");
}

fn bench_exact_vs_cached(c: &mut Criterion) {
    // Warmed outside the timed region: clones share the built surface.
    let warmed = presets::sanyo_am1815().with_cache(true);
    warmed.cached().expect("surface builds");

    let mut group = c.benchmark_group("pv_cache/closed_loop_120s");
    group.sample_size(20);
    group.bench_function("exact_solver", |b| b.iter(|| run_system(&warmed, false)));
    group.bench_function("cached_surface", |b| b.iter(|| run_system(&warmed, true)));
    group.finish();
}

fn bench_surface_build(c: &mut Criterion) {
    let cell = presets::sanyo_am1815();
    let mut group = c.benchmark_group("pv_cache/surface");
    group.sample_size(10);
    group.bench_function("build_121x513", |b| {
        b.iter(|| {
            CachedPvSurface::build(black_box(cell.model()), cell.temperature())
                .expect("surface builds")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exact_vs_cached, bench_surface_build);
criterion_main!(benches);
