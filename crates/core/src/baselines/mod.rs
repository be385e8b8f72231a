//! Implementations of the proposed technique and the state of the art
//! the paper compares against.
//!
//! | Tracker | Paper reference | Quiescent overhead | Compute (ops/decision) |
//! |---|---|---|---|
//! | [`FocvSampleHold`] | this paper | 8 µA at 3.3 V ≈ 26 µW | 0 (analog) |
//! | [`VariableHoldFocv`] | this paper, Eq. 2 | ≈ 26 µW | 12 |
//! | [`AdaptiveKFocv`] | this paper + drift trim | ≈ 31 µW | 16 |
//! | [`PerturbObserve`] | hill-climbing, \[2\]; Simjee & Chou \[4\] | ~2 mW | 60 |
//! | [`GradientDescentMppt`] | adaptive-step, arXiv 2511.20895 | ~2 mW | 110 |
//! | [`IncrementalConductance`] | survey \[2\] | ~2 mW | 90 |
//! | [`FractionalIsc`] | survey \[2\] | ~1 mW | 40 |
//! | [`FixedVoltage`] | Weddell'08 \[8\] | reference IC, ~40 µW | 0 (analog) |
//! | [`PilotCell`] | Brunelli'08 \[5\] | ~300 µW "off" consumption | 0 (analog) |
//! | [`Photodetector`] | AmbiMax \[6\] | ~500 µA ≈ 1.65 mW | 0 (analog) |
//! | [`Oracle`] | ideal upper bound | zero | 0 |

mod adaptive_k_focv;
mod fixed_voltage;
mod focv_sample_hold;
mod fractional_isc;
mod gradient_descent;
mod incremental_conductance;
mod oracle;
mod perturb_observe;
mod photodetector;
mod pilot_cell;
mod sample_hold;
mod shared;
mod variable_hold_focv;

pub use adaptive_k_focv::AdaptiveKFocv;
pub use fixed_voltage::FixedVoltage;
pub use focv_sample_hold::FocvSampleHold;
pub use fractional_isc::FractionalIsc;
pub use gradient_descent::GradientDescentMppt;
pub use incremental_conductance::IncrementalConductance;
pub use oracle::Oracle;
pub use perturb_observe::PerturbObserve;
pub use photodetector::Photodetector;
pub use pilot_cell::PilotCell;
pub use variable_hold_focv::VariableHoldFocv;
