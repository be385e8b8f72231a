//! Calibration of a [`SingleDiodeModel`] from bench measurements.
//!
//! The presets in this crate were produced by exactly this procedure:
//! minimise the mismatch between the model and a set of measured
//! `(lux, Voc)` points plus one measured MPP, over the five free
//! parameters (ideality, saturation current, photocurrent density,
//! photo-shunt and series resistance), using Nelder-Mead. The module
//! exposes both the generic optimiser ([`nelder_mead`]) and the
//! cell-fitting front end ([`fit_cell`]), so a user with their own
//! bench data can build their own preset.

use eh_units::{Error, Kelvin, Lux, Volts};

use crate::cell::PvCell;
use crate::model::SingleDiodeModel;

/// One measured open-circuit-voltage point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VocPoint {
    /// Illuminance of the measurement.
    pub illuminance: Lux,
    /// Measured open-circuit voltage.
    pub open_circuit_voltage: Volts,
}

/// One measured maximum-power point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MppPointMeasurement {
    /// Illuminance of the measurement.
    pub illuminance: Lux,
    /// Measured MPP voltage.
    pub voltage: Volts,
    /// Measured MPP current in amps.
    pub current_amps: f64,
}

/// Options for [`fit_cell`].
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Number of series junctions (fixed during the fit; count the cell
    /// segments on the module).
    pub junctions: u32,
    /// Cell area in cm² (informational, copied to the result).
    pub area_cm2: f64,
    /// Maximum Nelder-Mead iterations.
    pub max_iterations: usize,
    /// Weight of the Voc residuals relative to the MPP residuals.
    pub voc_weight: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        Self {
            junctions: 8,
            area_cm2: 25.0,
            max_iterations: 400,
            voc_weight: 6.0,
        }
    }
}

/// Result of a cell fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The fitted model.
    pub model: SingleDiodeModel,
    /// Final cost (weighted sum of squared relative residuals).
    pub cost: f64,
    /// Worst relative Voc error across the supplied points.
    pub worst_voc_error: f64,
}

/// Minimises `f` over `x` with the Nelder-Mead simplex method.
///
/// A compact, dependency-free implementation adequate for the ≤6
/// dimensional, smooth problems in this crate. Returns the best point
/// and its cost.
///
/// # Examples
///
/// ```
/// use eh_pv::fit::nelder_mead;
/// // Minimise a shifted paraboloid.
/// let (x, cost) = nelder_mead(
///     |p| (p[0] - 3.0).powi(2) + (p[1] + 1.0).powi(2),
///     &[0.0, 0.0],
///     &[1.0, 1.0],
///     300,
/// );
/// assert!((x[0] - 3.0).abs() < 1e-3);
/// assert!((x[1] + 1.0).abs() < 1e-3);
/// assert!(cost < 1e-6);
/// ```
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    steps: &[f64],
    max_iterations: usize,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert_eq!(steps.len(), n, "steps must match dimension");
    let mut simplex: Vec<Vec<f64>> = vec![x0.to_vec()];
    for i in 0..n {
        let mut p = x0.to_vec();
        p[i] += steps[i];
        simplex.push(p);
    }
    let mut costs: Vec<f64> = simplex.iter().map(|p| f(p)).collect();

    for _ in 0..max_iterations {
        // Order ascending by cost.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
        let reordered: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
        let reordered_costs: Vec<f64> = order.iter().map(|&i| costs[i]).collect();
        simplex = reordered;
        costs = reordered_costs;

        if (costs[n] - costs[0]).abs() <= 1e-14 * (1.0 + costs[0].abs()) {
            break;
        }

        // Centroid of all but the worst.
        let centroid: Vec<f64> = (0..n)
            .map(|j| simplex[..n].iter().map(|p| p[j]).sum::<f64>() / n as f64)
            .collect();
        let worst = simplex[n].clone();
        let reflect: Vec<f64> = (0..n)
            .map(|j| centroid[j] + (centroid[j] - worst[j]))
            .collect();
        let f_reflect = f(&reflect);

        if f_reflect < costs[0] {
            // Try expansion.
            let expand: Vec<f64> = (0..n)
                .map(|j| centroid[j] + 2.0 * (centroid[j] - worst[j]))
                .collect();
            let f_expand = f(&expand);
            if f_expand < f_reflect {
                simplex[n] = expand;
                costs[n] = f_expand;
            } else {
                simplex[n] = reflect;
                costs[n] = f_reflect;
            }
        } else if f_reflect < costs[n - 1] {
            simplex[n] = reflect;
            costs[n] = f_reflect;
        } else {
            // Contraction.
            let contract: Vec<f64> = (0..n)
                .map(|j| centroid[j] + 0.5 * (worst[j] - centroid[j]))
                .collect();
            let f_contract = f(&contract);
            if f_contract < costs[n] {
                simplex[n] = contract;
                costs[n] = f_contract;
            } else {
                // Shrink toward the best.
                for i in 1..=n {
                    let best = simplex[0].clone();
                    for (x, b) in simplex[i].iter_mut().zip(&best) {
                        *x = b + 0.5 * (*x - b);
                    }
                    costs[i] = f(&simplex[i]);
                }
            }
        }
    }

    let mut best = 0;
    for i in 1..=n {
        if costs[i] < costs[best] {
            best = i;
        }
    }
    (simplex[best].clone(), costs[best])
}

/// Builds a candidate model from a parameter vector
/// `[ideality, log10(I0), photocurrent_per_lux, rsh_ref, rs]`.
fn candidate(params: &[f64], opts: &FitOptions) -> Option<SingleDiodeModel> {
    let [n, log_i0, c, rsh, rs] = params else {
        return None;
    };
    SingleDiodeModel::builder("fit candidate")
        .junctions(opts.junctions)
        .ideality(*n)
        .saturation_current_amps(10f64.powf(*log_i0))
        .photocurrent_per_lux_amps(*c)
        .photo_shunt_ohms(*rsh, 200.0)
        .series_resistance_ohms(*rs)
        .area_cm2(opts.area_cm2)
        .build()
        .ok()
}

/// Fits a single-diode model to measured Voc points and one MPP.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] if fewer than three Voc points
/// are supplied (the problem is under-determined below that), or if the
/// optimiser cannot produce a valid model.
pub fn fit_cell(
    voc_points: &[VocPoint],
    mpp: MppPointMeasurement,
    opts: &FitOptions,
) -> Result<FitResult, Error> {
    if voc_points.len() < 3 {
        return Err(Error::InvalidParameter {
            name: "voc_points",
            value: voc_points.len() as f64,
        });
    }

    let cost_fn = |params: &[f64]| -> f64 {
        let Some(model) = candidate(params, opts) else {
            return 1e9;
        };
        let cell = PvCell::new(model);
        let mut cost = 0.0;
        for p in voc_points {
            match cell.open_circuit_voltage(p.illuminance) {
                Ok(voc) => {
                    let rel = (voc.value() - p.open_circuit_voltage.value())
                        / p.open_circuit_voltage.value();
                    cost += opts.voc_weight * rel * rel;
                }
                Err(_) => return 1e9,
            }
        }
        match cell.mpp(mpp.illuminance) {
            Ok(m) => {
                let rel_v = (m.voltage.value() - mpp.voltage.value()) / mpp.voltage.value();
                let rel_i = (m.current.value() - mpp.current_amps) / mpp.current_amps;
                cost += rel_v * rel_v + rel_i * rel_i;
            }
            Err(_) => return 1e9,
        }
        cost
    };

    // Initial guess: order-of-magnitude physics.
    let isc_guess = mpp.current_amps * 1.2 / mpp.illuminance.value();
    let x0 = [1.6, -11.0, isc_guess, 7.5e4, 150.0];
    let steps = [0.3, 1.0, isc_guess * 0.5, 3.0e4, 100.0];
    let (best, cost) = nelder_mead(cost_fn, &x0, &steps, opts.max_iterations);

    let model = candidate(&best, opts).ok_or(Error::SolveFailed { what: "fit" })?;
    let cell = PvCell::new(model.clone());
    let mut worst = 0.0f64;
    for p in voc_points {
        let voc = cell.open_circuit_voltage(p.illuminance)?;
        let rel =
            ((voc.value() - p.open_circuit_voltage.value()) / p.open_circuit_voltage.value()).abs();
        worst = worst.max(rel);
    }
    let _ = Kelvin::STC; // fits are at the reference temperature
    Ok(FitResult {
        model,
        cost,
        worst_voc_error: worst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn nelder_mead_minimises_rosenbrock_ish() {
        let (x, cost) = nelder_mead(
            |p| {
                let a = 1.0 - p[0];
                let b = p[1] - p[0] * p[0];
                a * a + 10.0 * b * b
            },
            &[-1.0, 2.0],
            &[0.5, 0.5],
            2000,
        );
        assert!(cost < 1e-6, "cost = {cost}, x = {x:?}");
        assert!((x[0] - 1.0).abs() < 0.01);
    }

    #[test]
    fn refit_recovers_table1_behaviour() {
        // Feed the fitter the paper's own Table I data; the result must
        // reproduce those Voc values about as well as the shipped preset.
        let voc_points: Vec<VocPoint> = [
            (200.0, 4.978),
            (500.0, 5.242),
            (1000.0, 5.44),
            (2000.0, 5.64),
            (5000.0, 5.91),
        ]
        .iter()
        .map(|&(lux, v)| VocPoint {
            illuminance: Lux::new(lux),
            open_circuit_voltage: Volts::new(v),
        })
        .collect();
        let mpp = MppPointMeasurement {
            illuminance: Lux::new(200.0),
            voltage: Volts::new(3.0),
            current_amps: 42.1e-6,
        };
        let result = fit_cell(&voc_points, mpp, &FitOptions::default()).unwrap();
        assert!(
            result.worst_voc_error < 0.03,
            "worst Voc error {}",
            result.worst_voc_error
        );
        let cell = PvCell::new(result.model);
        let m = cell.mpp(Lux::new(200.0)).unwrap();
        assert!(
            (m.current.as_micro() - 42.1).abs() < 6.0,
            "fitted Impp = {}",
            m.current
        );
    }

    #[test]
    fn fit_rejects_too_few_points() {
        let mpp = MppPointMeasurement {
            illuminance: Lux::new(200.0),
            voltage: Volts::new(3.0),
            current_amps: 42e-6,
        };
        assert!(matches!(
            fit_cell(&[], mpp, &FitOptions::default()),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn fitted_model_close_to_shipped_preset() {
        // Generate synthetic measurements from the shipped preset and
        // refit; the round trip should land near the original.
        let truth = presets::sanyo_am1815();
        let voc_points: Vec<VocPoint> = [150.0, 400.0, 900.0, 2500.0, 6000.0]
            .iter()
            .map(|&lux| VocPoint {
                illuminance: Lux::new(lux),
                open_circuit_voltage: truth.open_circuit_voltage(Lux::new(lux)).unwrap(),
            })
            .collect();
        let true_mpp = truth.mpp(Lux::new(200.0)).unwrap();
        let mpp = MppPointMeasurement {
            illuminance: Lux::new(200.0),
            voltage: true_mpp.voltage,
            current_amps: true_mpp.current.value(),
        };
        let result = fit_cell(&voc_points, mpp, &FitOptions::default()).unwrap();
        assert!(
            result.worst_voc_error < 0.01,
            "worst = {}",
            result.worst_voc_error
        );
        // k of the refit matches the truth's k within a few points.
        let refit_k = PvCell::new(result.model)
            .mpp(Lux::new(1000.0))
            .unwrap()
            .focv_factor();
        let truth_k = truth.mpp(Lux::new(1000.0)).unwrap().focv_factor();
        assert!(
            (refit_k.value() - truth_k.value()).abs() < 0.05,
            "refit k {refit_k} vs truth {truth_k}"
        );
    }
}
