//! Design arithmetic for energy-neutral nodes.
//!
//! The paper's opening claim is that harvesting lets nodes "operate
//! indefinitely". Whether a *particular* node does depends on three
//! numbers this module computes: how long the store survives darkness,
//! what average harvest the day must deliver, and how much cell area
//! that takes at a given illuminance — including the tracker's own
//! overhead, which is exactly where the paper's 8 µA beats the 2 mW
//! state of the art.

use eh_core::MpptController;
use eh_pv::PvCell;
use eh_units::{Error, Joules, Lux, Seconds, Watts};

use crate::load::DutyCycledLoad;

/// How long a store of `available` energy powers the node through
/// darkness (load plus tracker overhead; nothing harvested).
///
/// Returns `Seconds` of survival; infinite demand is rejected.
///
/// # Errors
///
/// Rejects a non-positive total draw (nothing to compute).
///
/// ```
/// use eh_core::baselines::FocvSampleHold;
/// use eh_node::{sizing, DutyCycledLoad};
/// use eh_units::Joules;
///
/// let load = DutyCycledLoad::typical_sensor_node()?;
/// let tracker = FocvSampleHold::paper_prototype()?;
/// let t = sizing::dark_survival(Joules::new(2.4), &load, &tracker)?;
/// // A 2.4 J supercap carries a ~16 µW load + 26 µW tracker ≈ 16 h.
/// assert!(t.as_hours() > 10.0 && t.as_hours() < 24.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn dark_survival(
    available: Joules,
    load: &DutyCycledLoad,
    tracker: &dyn MpptController,
) -> Result<Seconds, Error> {
    let draw = load.average_power().value() + tracker.overhead_power().value();
    if !(draw.is_finite() && draw > 0.0) {
        return Err(Error::InvalidParameter {
            name: "total_draw",
            value: draw,
        });
    }
    Ok(Seconds::new(available.value().max(0.0) / draw))
}

/// The average harvested power the lit fraction of the day must deliver
/// for energy-neutral operation: the load and tracker run around the
/// clock, the harvest only while there is light.
///
/// # Errors
///
/// Rejects a lit fraction outside `(0, 1]`.
pub fn required_harvest_power(
    load: &DutyCycledLoad,
    tracker: &dyn MpptController,
    lit_fraction: f64,
) -> Result<Watts, Error> {
    if !(lit_fraction.is_finite() && lit_fraction > 0.0 && lit_fraction <= 1.0) {
        return Err(Error::InvalidParameter {
            name: "lit_fraction",
            value: lit_fraction,
        });
    }
    let draw = load.average_power().value() + tracker.overhead_power().value();
    Ok(Watts::new(draw / lit_fraction))
}

/// The minimum cell area (relative to the reference cell's area) for
/// energy-neutral operation at a steady illuminance, assuming the
/// tracker captures `capture` of the MPP and the converter delivers
/// `converter_efficiency` of it.
///
/// Returns the multiple of the reference cell; `1.0` means "the AM-1815
/// is exactly enough".
///
/// # Errors
///
/// Rejects non-positive efficiency/capture; propagates solver errors.
pub fn required_cell_scale(
    cell: &PvCell,
    lux: Lux,
    load: &DutyCycledLoad,
    tracker: &dyn MpptController,
    lit_fraction: f64,
    capture: f64,
    converter_efficiency: f64,
) -> Result<f64, Error> {
    if !(capture > 0.0 && capture <= 1.0) {
        return Err(Error::InvalidParameter {
            name: "capture",
            value: capture,
        });
    }
    if !(converter_efficiency > 0.0 && converter_efficiency <= 1.0) {
        return Err(Error::InvalidParameter {
            name: "converter_efficiency",
            value: converter_efficiency,
        });
    }
    let needed = required_harvest_power(load, tracker, lit_fraction)?;
    let per_cell = cell.mpp(lux)?.power.value() * capture * converter_efficiency;
    if per_cell <= 0.0 {
        return Err(Error::InvalidParameter {
            name: "cell_output",
            value: per_cell,
        });
    }
    Ok(needed.value() / per_cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_core::baselines::{FocvSampleHold, PerturbObserve};
    use eh_pv::presets;

    fn load() -> DutyCycledLoad {
        DutyCycledLoad::typical_sensor_node().unwrap()
    }

    #[test]
    fn dark_survival_scales_with_energy() {
        let tracker = FocvSampleHold::paper_prototype().unwrap();
        let t1 = dark_survival(Joules::new(1.0), &load(), &tracker).unwrap();
        let t2 = dark_survival(Joules::new(2.0), &load(), &tracker).unwrap();
        assert!((t2.value() / t1.value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_tracker_starves_the_night() {
        // Same store: the 2 mW hill climber dies ~50× sooner than the
        // 26 µW FOCV tracker.
        let focv = FocvSampleHold::paper_prototype().unwrap();
        let po = PerturbObserve::literature_default().unwrap();
        let store = Joules::new(2.4);
        let t_focv = dark_survival(store, &load(), &focv).unwrap();
        let t_po = dark_survival(store, &load(), &po).unwrap();
        assert!(
            t_focv.value() > 40.0 * t_po.value(),
            "FOCV {t_focv} vs P&O {t_po}"
        );
    }

    #[test]
    fn required_power_accounts_for_dark_hours() {
        let tracker = FocvSampleHold::paper_prototype().unwrap();
        let always_lit = required_harvest_power(&load(), &tracker, 1.0).unwrap();
        let half_lit = required_harvest_power(&load(), &tracker, 0.5).unwrap();
        assert!((half_lit.value() / always_lit.value() - 2.0).abs() < 1e-9);
        assert!(required_harvest_power(&load(), &tracker, 0.0).is_err());
    }

    #[test]
    fn one_am1815_suffices_on_an_office_desk() {
        // The paper's implicit sizing: a 25 cm² AM-1815 at office light
        // (≈500 lux for ~10 h/day) against a low-duty node — comfortably
        // below one cell with the FOCV tracker.
        let tracker = FocvSampleHold::paper_prototype().unwrap();
        let scale = required_cell_scale(
            &presets::sanyo_am1815(),
            Lux::new(500.0),
            &load(),
            &tracker,
            10.0 / 24.0,
            0.95,
            0.8,
        )
        .unwrap();
        assert!(scale < 1.0, "needs {scale:.2} cells");
        assert!(scale > 0.1, "but not absurdly less: {scale:.2}");
    }

    #[test]
    fn hill_climber_needs_many_cells_indoors() {
        let po = PerturbObserve::literature_default().unwrap();
        let scale = required_cell_scale(
            &presets::sanyo_am1815(),
            Lux::new(500.0),
            &load(),
            &po,
            10.0 / 24.0,
            0.98,
            0.8,
        )
        .unwrap();
        // 2 mW of tracker overhead demands an order of magnitude more
        // collector — "the tracking circuitry itself consumed all of the
        // power generated indoors".
        assert!(scale > 10.0, "P&O needs {scale:.1} cells");
    }

    #[test]
    fn validation() {
        let tracker = FocvSampleHold::paper_prototype().unwrap();
        assert!(required_cell_scale(
            &presets::sanyo_am1815(),
            Lux::new(500.0),
            &load(),
            &tracker,
            0.5,
            0.0,
            0.8
        )
        .is_err());
        assert!(required_cell_scale(
            &presets::sanyo_am1815(),
            Lux::new(500.0),
            &load(),
            &tracker,
            0.5,
            0.9,
            1.5
        )
        .is_err());
    }
}
