//! Cached-vs-exact agreement for the PV operating-point cache: the
//! documented error bound must hold across the lux/voltage grid, at the
//! domain boundaries, in the dark, and beyond Voc.

use eh_pv::{presets, CachedPvSurface, PvCell};
use eh_units::{Celsius, Lux, Volts};
use proptest::prelude::*;

fn exact_cell() -> PvCell {
    presets::sanyo_am1815()
}

fn surface() -> &'static CachedPvSurface {
    static SURF: std::sync::OnceLock<CachedPvSurface> = std::sync::OnceLock::new();
    SURF.get_or_init(|| {
        let cell = exact_cell();
        CachedPvSurface::build(cell.model(), cell.temperature()).expect("build succeeds")
    })
}

/// Relative current error of the cache against the exact solver at one
/// `(v, lux)` point, normalized by the exact `Isc`.
fn rel_err(cell: &PvCell, surf: &CachedPvSurface, v: Volts, lux: Lux) -> f64 {
    let exact = cell.current_at(v, lux).expect("exact solve");
    let cached = surf.current_at(v, lux).expect("cached lookup");
    let isc = cell.short_circuit_current(lux).expect("isc solve");
    (cached - exact).value().abs() / isc.value()
}

#[test]
fn grid_sweep_stays_within_error_bound() {
    let cell = exact_cell();
    let surf = surface();
    let (lo, hi) = CachedPvSurface::lux_domain();
    let span = (hi.value() / lo.value()).ln();
    // 40 log-spaced illuminances including both domain edges, 33 voltage
    // fractions including 0 and Voc.
    for a in 0..40 {
        let lux = Lux::new(lo.value() * (span * a as f64 / 39.0).exp());
        let voc = surf.open_circuit_voltage(lux).expect("cached voc").value();
        for b in 0..33 {
            let v = Volts::new(voc * b as f64 / 32.0);
            let err = rel_err(&cell, surf, v, lux);
            assert!(
                err < CachedPvSurface::REL_CURRENT_ERROR_BOUND,
                "rel err {err:.2e} at lux={lux}, v={v}"
            );
        }
    }
}

#[test]
fn voc_and_isc_tables_stay_within_bounds() {
    let cell = exact_cell();
    let surf = surface();
    let (lo, hi) = CachedPvSurface::lux_domain();
    let span = (hi.value() / lo.value()).ln();
    for a in 0..200 {
        let lux = Lux::new(lo.value() * (span * (a as f64 + 0.37) / 200.0).exp());
        let voc_exact = cell.open_circuit_voltage(lux).unwrap();
        let voc_cached = surf.open_circuit_voltage(lux).unwrap();
        assert!(
            (voc_cached - voc_exact).value().abs() < CachedPvSurface::VOC_ERROR_BOUND_VOLTS,
            "voc off by {} at {lux}",
            (voc_cached - voc_exact).value().abs()
        );
        let isc_exact = cell.short_circuit_current(lux).unwrap();
        let isc_cached = surf.short_circuit_current(lux).unwrap();
        assert!(
            (isc_cached - isc_exact).value().abs() / isc_exact.value()
                < CachedPvSurface::REL_CURRENT_ERROR_BOUND,
            "isc off at {lux}"
        );
    }
}

#[test]
fn dark_and_out_of_domain_match_exact_solver() {
    let cell = exact_cell();
    let surf = surface();
    let (lo, hi) = CachedPvSurface::lux_domain();
    // Dark, dimmer-than-domain, and brighter-than-domain all fall back to
    // the exact solver, so agreement is bit-exact.
    for lux in [
        Lux::ZERO,
        Lux::new(lo.value() / 3.0),
        Lux::new(hi.value() * 2.0),
    ] {
        for v in [Volts::ZERO, Volts::new(1.0), Volts::new(4.0)] {
            assert_eq!(
                surf.current_at(v, lux).unwrap(),
                cell.current_at(v, lux).unwrap(),
                "fallback diverged at lux={lux}, v={v}"
            );
        }
        assert_eq!(
            surf.open_circuit_voltage(lux).unwrap(),
            cell.open_circuit_voltage(lux).unwrap()
        );
        assert_eq!(
            surf.short_circuit_current(lux).unwrap(),
            cell.short_circuit_current(lux).unwrap()
        );
    }
}

#[test]
fn beyond_voc_falls_back_to_exact_solver() {
    let cell = exact_cell();
    let surf = surface();
    for lux in [Lux::new(0.05), Lux::new(200.0), Lux::new(150_000.0)] {
        let voc = cell.open_circuit_voltage(lux).unwrap();
        for factor in [1.02, 1.2, 1.6] {
            let v = Volts::new(voc.value() * factor);
            assert_eq!(
                surf.current_at(v, lux).unwrap(),
                cell.current_at(v, lux).unwrap(),
                "beyond-Voc fallback diverged at lux={lux}, factor={factor}"
            );
        }
    }
}

#[test]
fn invalid_inputs_rejected_like_exact_solver() {
    let cell = exact_cell();
    let surf = surface();
    assert!(surf.current_at(Volts::new(-0.1), Lux::new(100.0)).is_err());
    assert!(surf.current_at(Volts::new(1.0), Lux::new(-5.0)).is_err());
    assert!(surf
        .current_at(Volts::new(f64::NAN), Lux::new(100.0))
        .is_err());
    assert!(surf.open_circuit_voltage(Lux::new(f64::NAN)).is_err());
    assert!(cell.current_at(Volts::new(-0.1), Lux::new(100.0)).is_err());
}

#[test]
fn self_validation_probe_stays_under_bound() {
    let worst = surface()
        .validate_against_exact(80, 48)
        .expect("validation probe succeeds");
    assert!(
        worst < CachedPvSurface::REL_CURRENT_ERROR_BOUND,
        "measured worst-case error {worst:.2e} exceeds the documented bound"
    );
}

#[test]
fn rebuilds_are_bit_identical() {
    let cell = exact_cell();
    let a = CachedPvSurface::build(cell.model(), cell.temperature()).expect("build succeeds");
    let b = CachedPvSurface::build(cell.model(), cell.temperature()).expect("build succeeds");
    let (lo, hi) = CachedPvSurface::lux_domain();
    let span = (hi.value() / lo.value()).ln();
    for i in 0..50 {
        let lux = Lux::new(lo.value() * (span * (i as f64 + 0.21) / 50.0).exp());
        let voc = a.open_circuit_voltage(lux).unwrap().value();
        let v = Volts::new(voc * 0.613);
        assert_eq!(
            a.current_at(v, lux).unwrap().value().to_bits(),
            b.current_at(v, lux).unwrap().value().to_bits()
        );
    }
}

#[test]
fn warm_cell_surface_respects_its_temperature() {
    let warm = exact_cell().with_temperature(Celsius::new(40.0));
    let surf = CachedPvSurface::build(warm.model(), warm.temperature()).expect("build succeeds");
    for lux in [Lux::new(20.0), Lux::new(1000.0), Lux::new(80_000.0)] {
        let voc = surf.open_circuit_voltage(lux).unwrap().value();
        let v = Volts::new(voc * 0.55);
        let err = rel_err(&warm, &surf, v, lux);
        assert!(
            err < CachedPvSurface::REL_CURRENT_ERROR_BOUND,
            "err {err:.2e} at {lux}"
        );
    }
}

/// Every field of an MPP answer, as bits.
fn mpp_bits(m: eh_pv::MppPoint) -> [u64; 4] {
    [
        m.voltage.value().to_bits(),
        m.current.value().to_bits(),
        m.power.value().to_bits(),
        m.open_circuit_voltage.value().to_bits(),
    ]
}

/// A dense log-spaced sweep keeps the cached MPP within its documented
/// bounds for both presets at every placement temperature.
#[test]
fn mpp_validation_probe_stays_under_bounds() {
    for (cell, surf) in mpp_surfaces() {
        let (dv, loss) = surf
            .validate_mpp_against_exact(240)
            .expect("validation probe succeeds");
        assert!(
            dv < CachedPvSurface::VMPP_ERROR_BOUND_VOLTS,
            "|dVmpp| {dv:.2e} V on {} at {}",
            cell.name(),
            cell.temperature()
        );
        assert!(
            loss < CachedPvSurface::MPP_REL_POWER_LOSS_BOUND,
            "power loss {loss:.2e} on {} at {}",
            cell.name(),
            cell.temperature()
        );
    }
}

/// Out of the cached domain the surface's MPP, and a cached cell's, is
/// the exact solve bit for bit; with the cache off a cell's MPP is the
/// exact solve everywhere, even when it shares an already-built table.
#[test]
fn mpp_falls_back_bitwise_out_of_domain() {
    let (lo, hi) = CachedPvSurface::lux_domain();
    for (cell, surf) in mpp_surfaces() {
        let cached_cell = cell.clone().with_cache(true);
        let uncached_cell = cached_cell.clone().with_cache(false);
        for l in [0.0, 0.01, lo.value() / 3.0, hi.value() * 2.0] {
            let lux = Lux::new(l);
            let exact = mpp_bits(cell.mpp(lux).unwrap());
            assert_eq!(mpp_bits(surf.mpp(lux).unwrap()), exact, "lux {l}");
            assert_eq!(mpp_bits(cached_cell.mpp(lux).unwrap()), exact, "lux {l}");
        }
        for l in [0.05, 200.0, 1.0e4, 2.0e5] {
            let lux = Lux::new(l);
            assert_eq!(
                mpp_bits(uncached_cell.mpp(lux).unwrap()),
                mpp_bits(cell.mpp(lux).unwrap()),
                "lux {l}"
            );
        }
        assert!(surf.mpp(Lux::new(-1.0)).is_err());
        assert!(surf.mpp(Lux::new(f64::NAN)).is_err());
    }
}

/// The fleet's placement temperatures (desk 25 °C, window 30 °C,
/// outdoor 35 °C): one warmed surface per temperature in a fleet run.
const PLACEMENT_TEMPERATURES_C: [f64; 3] = [25.0, 30.0, 35.0];

/// One surface per preset × placement temperature, built once, paired
/// with the exact (uncached) cell it mirrors.
fn mpp_surfaces() -> &'static [(PvCell, CachedPvSurface)] {
    static SURFS: std::sync::OnceLock<Vec<(PvCell, CachedPvSurface)>> = std::sync::OnceLock::new();
    SURFS.get_or_init(|| {
        [presets::sanyo_am1815(), presets::crystalline_outdoor()]
            .into_iter()
            .flat_map(|cell| {
                PLACEMENT_TEMPERATURES_C.map(|c| {
                    let cell = cell.clone().with_temperature(Celsius::new(c));
                    let surf = CachedPvSurface::build(cell.model(), cell.temperature())
                        .expect("build succeeds");
                    (cell, surf)
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The cached MPP stays within its documented voltage and power-loss
    /// bounds of the exact golden-section solve, for both presets at
    /// every placement temperature, over the whole cached domain.
    #[test]
    fn cached_mpp_stays_within_its_bounds(
        log_lux in -1.3f64..5.3,
        which in 0usize..6,
    ) {
        let (cell, surf) = &mpp_surfaces()[which];
        let lux = Lux::new(10f64.powf(log_lux).clamp(0.05, 2.0e5));
        let exact = cell.mpp(lux).unwrap();
        let cached = surf.mpp(lux).unwrap();
        let dv = (cached.voltage - exact.voltage).value().abs();
        prop_assert!(
            dv < CachedPvSurface::VMPP_ERROR_BOUND_VOLTS,
            "|dVmpp| {} V at lux={}, {}", dv, lux, cell.name()
        );
        let loss = 1.0 - cell.power_at(cached.voltage, lux).unwrap() / exact.power;
        prop_assert!(
            loss < CachedPvSurface::MPP_REL_POWER_LOSS_BOUND,
            "power loss {} at lux={}, {}", loss, lux, cell.name()
        );
    }

    /// Random in-domain probes respect the documented bound; lux is
    /// sampled log-uniformly over the full cached domain.
    #[test]
    fn random_probes_stay_within_error_bound(log_lux in -1.3f64..5.3, u in 0.0f64..1.0) {
        let cell = exact_cell();
        let surf = surface();
        let lux = Lux::new(10f64.powf(log_lux).clamp(0.05, 2.0e5));
        let voc = surf.open_circuit_voltage(lux).unwrap().value();
        let v = Volts::new(voc * u);
        let err = rel_err(&cell, surf, v, lux);
        prop_assert!(
            err < CachedPvSurface::REL_CURRENT_ERROR_BOUND,
            "rel err {} at lux={}, u={}", err, lux, u
        );
    }
}

/// `connect_point` must return exactly what the two-call sequence —
/// `open_circuit_voltage` then `current_at(min(target, voc))` — returns,
/// bit for bit, across the domain, in the dark, beyond the bright edge,
/// and for targets above Voc.
#[test]
fn connect_point_is_bit_identical_to_the_two_call_sequence() {
    let surf = surface();
    let (lo, hi) = CachedPvSurface::lux_domain();
    let span = (hi.value() / lo.value()).ln();
    let mut luxes: Vec<f64> = (0..25)
        .map(|a| lo.value() * (span * a as f64 / 24.0).exp())
        .collect();
    // Out-of-domain probes exercise the exact-solver fallback arm.
    luxes.extend([0.0, 0.01, 3.0e5]);
    for &l in &luxes {
        let lux = Lux::new(l);
        let voc_ref = surf.open_circuit_voltage(lux).expect("voc");
        for frac in [1e-6, 0.3, 0.596, 0.9, 1.0, 1.5] {
            let target = Volts::new((voc_ref.value() * frac).max(1e-9));
            let fused = surf.connect_point(target, lux).expect("connect point");
            assert_eq!(fused.voc.value().to_bits(), voc_ref.value().to_bits());
            let v_op_ref = target.min(voc_ref);
            assert_eq!(fused.v_op.value().to_bits(), v_op_ref.value().to_bits());
            if v_op_ref.value() > 0.0 {
                let i_ref = surf.current_at(v_op_ref, lux).expect("current");
                let i_fused = fused.current.expect("positive v_op has a current");
                assert_eq!(
                    i_fused.value().to_bits(),
                    i_ref.value().to_bits(),
                    "lux={l} frac={frac}"
                );
            } else {
                assert!(fused.current.is_none());
            }
        }
    }
}

/// A dark module (zero Voc) yields no current: the engine's
/// skip-the-harvest arm.
#[test]
fn connect_point_in_the_dark_has_no_current() {
    let surf = surface();
    let p = surf
        .connect_point(Volts::new(1.0), Lux::new(0.0))
        .expect("dark connect point");
    assert_eq!(p.voc, Volts::ZERO);
    assert_eq!(p.v_op, Volts::ZERO);
    assert!(p.current.is_none());
}

/// A walking illuminance drives the cursor through cursor hits and cell
/// crossings; at every point the lane read must agree with the scalar
/// `connect_point` to the documented < 3e-11 fractional-cell bound
/// (which maps to a comparable relative bound on Voc and current).
#[test]
fn connect_point_lane_tracks_the_scalar_query() {
    let surf = surface();
    let mut cursor = eh_pv::LuxCursor::new();
    // Sweep up and back down: ~0.3 % steps stay in-cell for many
    // consecutive queries, with periodic cell crossings.
    let mut lux = 10.0f64;
    for i in 0..4000 {
        lux *= if i < 2000 { 1.003 } else { 1.0 / 1.003 };
        let target = Volts::new(2.5);
        let lane = surf
            .connect_point_lane(&mut cursor, target, Lux::new(lux))
            .expect("lane query");
        let scalar = surf
            .connect_point(target, Lux::new(lux))
            .expect("scalar query");
        let dvoc = (lane.voc - scalar.voc).value().abs() / scalar.voc.value();
        assert!(dvoc < 1e-9, "voc diverged at lux {lux}: {dvoc}");
        match (lane.current, scalar.current) {
            (Some(a), Some(b)) => {
                let rel = (a - b).value().abs() / b.value().abs().max(1e-15);
                assert!(rel < 1e-8, "current diverged at lux {lux}: {rel}");
            }
            (a, b) => assert_eq!(a.is_some(), b.is_some(), "presence diverged at {lux}"),
        }
    }
}

/// Out-of-domain and invalid queries through the lane entry points are
/// bit-identical to the scalar path (exact-solver fallback), and a
/// fallback resets the cursor rather than leaving a stale cell armed.
#[test]
fn lane_queries_fall_back_bitwise_out_of_domain() {
    let surf = surface();
    let mut cursor = eh_pv::LuxCursor::new();
    for l in [0.0, 0.01, 3.0e5] {
        let lane = surf
            .connect_point_lane(&mut cursor, Volts::new(1.0), Lux::new(l))
            .expect("fallback query");
        let scalar = surf
            .connect_point(Volts::new(1.0), Lux::new(l))
            .expect("scalar query");
        assert_eq!(lane.voc.value().to_bits(), scalar.voc.value().to_bits());
        assert_eq!(lane.v_op.value().to_bits(), scalar.v_op.value().to_bits());
        assert_eq!(
            lane.current.map(|a| a.value().to_bits()),
            scalar.current.map(|a| a.value().to_bits()),
            "lux {l}"
        );
        let voc_lane = surf
            .open_circuit_voltage_lane(&mut cursor, Lux::new(l))
            .expect("fallback voc");
        let voc_scalar = surf.open_circuit_voltage(Lux::new(l)).expect("scalar voc");
        assert_eq!(voc_lane.value().to_bits(), voc_scalar.value().to_bits());
    }
    assert!(surf
        .connect_point_lane(&mut cursor, Volts::new(1.0), Lux::new(f64::NAN))
        .is_err());
    assert!(surf
        .open_circuit_voltage_lane(&mut cursor, Lux::new(-1.0))
        .is_err());
}
