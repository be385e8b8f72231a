//! Cell parameter sets fitted to the paper's measurements and datasheets.
//!
//! The fitting procedure (documented in `DESIGN.md`) minimises the error
//! against the Voc-vs-illuminance points of Table I of the paper and the
//! AM-1815 datasheet MPP (42 µA at 3.0 V at 200 lux) quoted in §IV-A.

use crate::cell::PvCell;
use crate::model::SingleDiodeModel;

/// SANYO Amorton AM-1815 — the 25 cm² a-Si cell the paper uses for the
/// complete-system evaluation (Table I, cold-start tests).
///
/// Fitted against Table I: `Voc(200 lx) ≈ 4.98 V`, `Voc(1000 lx) ≈ 5.44 V`,
/// `Voc(5000 lx) ≈ 5.91 V`, and the datasheet MPP of 42 µA at 3.0 V at
/// 200 lux. All Voc values reproduce within 2 %.
///
/// ```
/// use eh_pv::presets::sanyo_am1815;
/// use eh_units::Lux;
///
/// let cell = sanyo_am1815();
/// let voc = cell.open_circuit_voltage(Lux::new(200.0))?;
/// assert!((voc.value() - 4.978).abs() < 0.1);
/// # Ok::<(), eh_units::Error>(())
/// ```
pub fn sanyo_am1815() -> PvCell {
    PvCell::new(
        SingleDiodeModel::builder("SANYO Amorton AM-1815")
            .junctions(8)
            .ideality(1.6614)
            .saturation_current_amps(6.737_13e-12)
            .photocurrent_per_lux_amps(4.187_2e-7)
            .photo_shunt_ohms(75_092.2, 200.0)
            .series_resistance_ohms(208.746)
            .bandgap_ev(1.7)
            .area_cm2(25.0)
            .build()
            .expect("AM-1815 preset parameters are valid"),
    )
}

/// Schott Solar 1116929 — the a-Si module whose I-V curve is Fig. 1 and
/// whose 24-hour Voc log is Fig. 2 of the paper.
///
/// No datasheet survives for this part; the paper only shows its curves.
/// We model it as the same a-Si junction stack as the AM-1815 with
/// roughly twice the active area (scaled photocurrent and shunt, smaller
/// series resistance). The substitution is documented in `DESIGN.md`.
pub fn schott_asi_1116929() -> PvCell {
    PvCell::new(
        SingleDiodeModel::builder("Schott Solar 1116929")
            .junctions(8)
            .ideality(1.6614)
            .saturation_current_amps(1.35e-11)
            .photocurrent_per_lux_amps(8.4e-7)
            .photo_shunt_ohms(37_500.0, 200.0)
            .series_resistance_ohms(95.0)
            .bandgap_ev(1.7)
            .area_cm2(50.0)
            .build()
            .expect("Schott preset parameters are valid"),
    )
}

/// A generic crystalline-silicon outdoor module, for contrast experiments.
///
/// Crystalline cells have a *fixed* (non-photo) shunt, so `k = Vmpp/Voc`
/// sits near 0.8 and indoor output collapses — the regime the paper's
/// intro describes for conventional outdoor MPPT systems.
pub fn crystalline_outdoor() -> PvCell {
    PvCell::new(
        SingleDiodeModel::builder("generic c-Si outdoor module")
            .junctions(8)
            .ideality(1.1)
            .saturation_current_amps(2.5e-11)
            .photocurrent_per_lux_amps(4.0e-7)
            // Effectively a fixed large shunt: photo-scaling from an
            // enormous reference keeps it >10 MΩ below 20 klux.
            .photo_shunt_ohms(1.0e9, 200.0)
            .series_resistance_ohms(20.0)
            .bandgap_ev(1.12)
            .photocurrent_temp_coeff(5e-4)
            .area_cm2(50.0)
            .build()
            .expect("crystalline preset parameters are valid"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Lux;

    #[test]
    fn am1815_reproduces_table1_voc_within_2_percent() {
        let cell = sanyo_am1815();
        for (lux, voc_paper) in [
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
        ] {
            let voc = cell.open_circuit_voltage(Lux::new(lux)).unwrap().value();
            let rel = (voc - voc_paper).abs() / voc_paper;
            assert!(
                rel < 0.02,
                "Voc({lux}) = {voc:.3} vs {voc_paper} ({rel:.4})"
            );
        }
    }

    #[test]
    fn schott_is_a_larger_cell_than_am1815() {
        let schott = schott_asi_1116929();
        let sanyo = sanyo_am1815();
        let lux = Lux::new(1000.0);
        let p_schott = schott.mpp(lux).unwrap().power;
        let p_sanyo = sanyo.mpp(lux).unwrap().power;
        assert!(p_schott.value() > 1.5 * p_sanyo.value());
        assert!(schott.model().area_cm2() > sanyo.model().area_cm2());
    }

    #[test]
    fn crystalline_has_high_k_amorphous_has_low_k() {
        let csi = crystalline_outdoor();
        let asi = sanyo_am1815();
        let lux = Lux::new(1000.0);
        let k_csi = csi.mpp(lux).unwrap().focv_factor();
        let k_asi = asi.mpp(lux).unwrap().focv_factor();
        assert!(k_csi.value() > 0.72, "c-Si k = {k_csi}");
        assert!(k_asi.value() < 0.65, "a-Si k = {k_asi}");
    }

    #[test]
    fn amorphous_outperforms_crystalline_indoors_per_area() {
        // §II-A: a-Si has relatively high efficiency at low light.
        // With the photo-shunt fitted to indoor data, the a-Si presets
        // remain productive at 200 lux.
        let asi = sanyo_am1815();
        let p = asi.mpp(Lux::new(200.0)).unwrap().power;
        assert!(
            p.as_micro() > 100.0,
            "AM-1815 should produce >100 µW at 200 lux, got {p}"
        );
    }

    #[test]
    fn indoor_cell_produces_about_1mw_indoors() {
        // §I: "indoor PV cells typically produce ≤ 1 mW".
        let cell = sanyo_am1815();
        let p = cell.mpp(Lux::new(1000.0)).unwrap().power;
        assert!(
            p.as_milli() < 2.0,
            "indoor output should be of order 1 mW, got {p}"
        );
    }
}
