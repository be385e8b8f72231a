//! Deterministic instantiation of a heterogeneous node population.
//!
//! Every per-node variation — placement, divider trim, astable timing,
//! power-up phase, optics — is drawn serially from **one** seeded
//! generator with a **fixed number of draws per node**, so the
//! population is a pure function of `(spec, seed)`: node 517 of a
//! 10 000-node fleet has the same hardware whether it is simulated
//! alone, in a 4-worker shard, or as part of a different-size batch cut
//! from the same stream.

use eh_core::baselines::FocvSampleHold;
use eh_core::MpptController;
use eh_env::TracePerturbation;
use eh_units::{Error, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{FleetSpec, Placement};

/// One instantiated node: the base design plus this unit's drawn
/// variations. Construction happens only through
/// [`FleetSpec::population`], which enforces the tolerance budget.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node index within the fleet (also its input order in sweeps).
    pub id: u32,
    /// Where this unit is deployed.
    pub placement: Placement,
    /// This unit's trimmed FOCV factor.
    pub k: f64,
    /// This unit's astable hold period.
    pub sample_period: Seconds,
    /// This unit's PULSE width (also the simulation's measurement
    /// dwell).
    pub pulse_width: Seconds,
    /// Power-up stagger of the first PULSE into the hold period,
    /// in `[0, sample_period)`.
    pub phase_offset: Seconds,
    /// The illuminance transform this unit applies to its placement's
    /// shared base trace (optics × derating, plus placement offset).
    pub perturbation: TracePerturbation,
    /// Per-node storage override. `None` (the default for drawn
    /// populations) means the unit uses the fleet-wide
    /// [`FleetSpec::store`]; campaign epochs set this to carry each
    /// node's store state (and wear) across epoch boundaries.
    pub store: Option<eh_node::StoreSpec>,
}

impl NodeSpec {
    /// Builds this unit's FOCV tracker: the drawn divider/astable
    /// values, the paper's 8 µA × 3.3 V metrology overhead, and the
    /// drawn power-up phase.
    ///
    /// # Errors
    ///
    /// Propagates tracker parameter validation (unreachable for
    /// populations built from a validated spec).
    pub fn tracker(&self) -> Result<FocvSampleHold, Error> {
        let proto = FocvSampleHold::paper_prototype()?;
        FocvSampleHold::new(
            self.k,
            self.sample_period,
            self.pulse_width,
            proto.overhead_power(),
        )?
        .with_initial_phase(self.phase_offset)
    }
}

/// Maps a uniform draw `u ∈ [0, 1)` to a symmetric relative factor
/// `1 ± pct`.
fn symmetric(u: f64, pct: f64) -> f64 {
    1.0 + pct * (2.0 * u - 1.0)
}

impl FleetSpec {
    /// Instantiates the population: `nodes` units drawn serially from
    /// `StdRng::seed_from_u64(seed)`, nine draws per node in a fixed
    /// order regardless of placement (so streams never desynchronise).
    ///
    /// # Errors
    ///
    /// Propagates [`FleetSpec::validate`]; tracker construction from the
    /// drawn values cannot fail once the tolerance budget is validated.
    pub fn population(&self) -> Result<Vec<NodeSpec>, Error> {
        self.validate()?;
        let proto = FocvSampleHold::paper_prototype()?;
        let tol = &self.tolerances;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut nodes = Vec::with_capacity(self.nodes as usize);
        for id in 0..self.nodes {
            // Fixed draw order, nine per node. Draw everything before
            // branching on placement.
            let u_place: f64 = rng.gen();
            let u_k: f64 = rng.gen();
            let u_cap: f64 = rng.gen();
            let u_r_hold: f64 = rng.gen();
            let u_r_pulse: f64 = rng.gen();
            let u_phase: f64 = rng.gen();
            let u_optical: f64 = rng.gen();
            let u_derate: f64 = rng.gen();
            let u_offset: f64 = rng.gen();

            let placement = self.placements.pick(u_place);
            let k = proto.k() * symmetric(u_k, tol.divider_pct);
            // One film capacitor times the two astable path resistors:
            // the hold period and the PULSE width share the capacitor
            // spread but jitter independently through their resistors.
            let c = symmetric(u_cap, tol.capacitor_pct);
            let sample_period = proto.sample_period() * (c * symmetric(u_r_hold, tol.resistor_pct));
            let pulse_width = proto.pulse_width() * (c * symmetric(u_r_pulse, tol.resistor_pct));
            let phase_offset = sample_period * u_phase;

            let gain = symmetric(u_optical, tol.pv_optical_pct) * (1.0 - u_derate * tol.derate_max);
            let offset_lux = match placement {
                // By the window: extra skylight the logged desk misses.
                Placement::WindowDesk => u_offset * tol.offset_lux,
                // Deep in the room: strictly darker than the reference
                // desk (exercises the 0 lx clamp at night).
                Placement::InteriorDesk => -u_offset * tol.offset_lux,
                // Outdoors the offset is small against daylight; keep a
                // modest two-sided term for ground albedo / horizon.
                Placement::Outdoor => (2.0 * u_offset - 1.0) * 0.2 * tol.offset_lux,
            };

            nodes.push(NodeSpec {
                id,
                placement,
                k,
                sample_period,
                pulse_width,
                phase_offset,
                perturbation: TracePerturbation::new(gain, offset_lux)?,
                store: None,
            });
        }
        Ok(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Tolerances;

    fn spec(nodes: u32, seed: u64) -> FleetSpec {
        FleetSpec::mixed_indoor_outdoor(nodes, seed).unwrap()
    }

    #[test]
    fn population_is_a_pure_function_of_the_spec() {
        let a = spec(200, 42).population().unwrap();
        let b = spec(200, 42).population().unwrap();
        assert_eq!(a, b);
        let c = spec(200, 43).population().unwrap();
        assert_ne!(a, c, "a different seed must move the population");
    }

    #[test]
    fn prefix_stability_across_fleet_sizes() {
        // The first 50 nodes of a 200-node fleet are exactly the
        // 50-node fleet: draws are serial with a fixed count per node.
        let small = spec(50, 7).population().unwrap();
        let large = spec(200, 7).population().unwrap();
        assert_eq!(small[..], large[..50]);
    }

    #[test]
    fn zero_tolerance_population_is_the_golden_prototype() {
        let mut s = spec(20, 3);
        s.tolerances = Tolerances::none();
        let proto = FocvSampleHold::paper_prototype().unwrap();
        for node in s.population().unwrap() {
            assert_eq!(node.k, proto.k());
            assert_eq!(node.sample_period, proto.sample_period());
            assert_eq!(node.pulse_width, proto.pulse_width());
            assert_eq!(node.perturbation.gain(), 1.0);
            // Placement offsets vanish with a zero budget.
            assert_eq!(node.perturbation.offset_lux(), 0.0);
            // Phase stagger remains: it models power-up time, not a
            // component tolerance.
            assert!(node.phase_offset >= Seconds::ZERO);
            assert!(node.phase_offset < node.sample_period);
        }
    }

    #[test]
    fn all_placements_appear_in_a_modest_fleet() {
        let pop = spec(100, 11).population().unwrap();
        for p in Placement::ALL {
            assert!(
                pop.iter().any(|n| n.placement == p),
                "{} missing from 100 nodes",
                p.label()
            );
        }
    }

    #[test]
    fn trackers_build_from_every_drawn_node() {
        for node in spec(300, 5).population().unwrap() {
            let t = node.tracker().unwrap();
            assert_eq!(t.k(), node.k);
            assert_eq!(t.sample_period(), node.sample_period);
            assert_eq!(t.pulse_width(), node.pulse_width);
        }
    }

    #[test]
    fn interior_offsets_are_dimming_and_window_offsets_brightening() {
        for node in spec(400, 23).population().unwrap() {
            match node.placement {
                Placement::WindowDesk => assert!(node.perturbation.offset_lux() >= 0.0),
                Placement::InteriorDesk => assert!(node.perturbation.offset_lux() <= 0.0),
                Placement::Outdoor => {
                    assert!(node.perturbation.offset_lux().abs() <= 0.2 * 150.0 + 1e-9);
                }
            }
        }
    }
}
