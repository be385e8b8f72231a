//! The full Fig. 3 system composition.

use eh_analog::astable::{AstableConfig, AstableMultivibrator};
use eh_analog::components::MosfetSwitch;
use eh_analog::sample_hold::{SampleHold, SampleHoldConfig};
use eh_analog::{CurrentLedger, Trace};
use eh_converter::{ColdStart, InputRegulatedConverter};
use eh_env::TimeSeries;
use eh_obs::{EnergyBucket, Metrics};
use eh_pv::{presets, PvCell};
use eh_sim::{drive, Light, StepInput, Stepper};
use eh_units::{Amps, Coulombs, Error, Joules, Lux, Ratio, Seconds, Volts};

/// Configuration of the complete MPPT platform.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The PV module.
    pub cell: PvCell,
    /// Astable multivibrator configuration (PULSE timing).
    pub astable: AstableConfig,
    /// Sample-and-hold configuration (divider trim, buffers, hold cap).
    pub sample_hold: SampleHoldConfig,
    /// Cold-start circuit (C1/D1/threshold), in its initial state.
    pub cold_start: ColdStart,
    /// The input-regulated switching converter.
    pub converter: InputRegulatedConverter,
    /// The α of Eq. (3): the extra division applied on top of `k` for
    /// circuit-level representation. The converter holds the PV node at
    /// `HELD_SAMPLE / α = k·Voc`.
    pub alpha: f64,
    /// The single series MOSFET (M1) between the PV module and the
    /// converter — §IV-B: "with only one low on-resistance MOSFET in the
    /// line between the PV cell and the switching converter ... there is
    /// a negligible impact on the overall efficiency".
    pub series_switch: MosfetSwitch,
    /// Whether to record PULSE / HELD_SAMPLE / PV waveform traces
    /// (memory-heavy on day-scale runs).
    pub record_traces: bool,
    /// Whether to collect deterministic metrics (counters, spans, the
    /// per-bucket energy ledger) into an [`eh_obs::Metrics`] store. Off
    /// by default: uninstrumented runs pay only a branch per segment.
    pub obs: bool,
}

impl SystemConfig {
    /// The paper's prototype: SANYO AM-1815 cell, 39 ms / 69 s astable,
    /// divider trimmed to `k·α = 0.596·0.5 = 0.298`, 47 µF cold-start
    /// capacitor and the micropower buck-boost.
    ///
    /// # Errors
    ///
    /// Propagates sub-component validation failures.
    pub fn paper_prototype() -> Result<Self, Error> {
        Ok(Self {
            cell: presets::sanyo_am1815(),
            astable: AstableConfig::from_periods(
                Volts::new(3.3),
                eh_units::Farads::from_micro(1.0),
                eh_units::Ohms::from_mega(10.0),
                Seconds::from_milli(39.0),
                Seconds::new(69.0),
            )?,
            sample_hold: SampleHoldConfig::paper_configuration(0.298)?,
            cold_start: ColdStart::paper_prototype()?,
            converter: InputRegulatedConverter::paper_prototype()?,
            alpha: 0.5,
            series_switch: MosfetSwitch::logic_level_nmos(),
            record_traces: false,
            obs: false,
        })
    }

    /// Same prototype with the divider re-trimmed to a different `k`
    /// (the R2 potentiometer of §IV-A). `alpha` stays 0.5.
    ///
    /// # Errors
    ///
    /// Rejects `k` outside `(0, 1)`.
    pub fn paper_prototype_with_k(k: f64) -> Result<Self, Error> {
        if !(k.is_finite() && k > 0.0 && k < 1.0) {
            return Err(Error::InvalidParameter {
                name: "k",
                value: k,
            });
        }
        let mut cfg = Self::paper_prototype()?;
        cfg.sample_hold = SampleHoldConfig::paper_configuration(k * cfg.alpha)?;
        Ok(cfg)
    }
}

/// Discrete operating state of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemState {
    /// C1 charging; metrology rail off.
    ColdStarting,
    /// PULSE active: loads disconnected, Voc being sampled.
    Sampling,
    /// Converter regulating the PV node at `HELD_SAMPLE/α`.
    Harvesting,
    /// Rail on but converter idle (no valid sample yet, or operating
    /// point below the converter's minimum).
    Waiting,
}

/// Instantaneous result of one system step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemStep {
    /// Simulation time at the end of the step.
    pub time: Seconds,
    /// Operating state during the step.
    pub state: SystemState,
    /// PULSE line state.
    pub pulse: bool,
    /// ACTIVE line state.
    pub active: bool,
    /// PV module terminal voltage.
    pub pv_voltage: Volts,
    /// HELD_SAMPLE line voltage.
    pub held_sample: Volts,
    /// Metrology rail (C1) voltage.
    pub rail_voltage: Volts,
    /// Energy delivered to storage during the step.
    pub stored_energy: Joules,
    /// Charge drawn by the metrology chain during the step.
    pub metrology_charge: Coulombs,
}

/// Aggregated result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total simulated time.
    pub duration: Seconds,
    /// Completed PULSE sampling operations.
    pub pulses: u64,
    /// When the rail first came up (cold start complete), if it did.
    pub cold_start_time: Option<Seconds>,
    /// When the first PULSE fired, if it did.
    pub first_pulse_time: Option<Seconds>,
    /// HELD_SAMPLE at the end of the run.
    pub final_held_sample: Volts,
    /// The cell's true open-circuit voltage at the final illuminance.
    pub final_voc: Volts,
    /// The measured FOCV factor `k = HELD_SAMPLE/(α·Voc)` — the quantity
    /// Table I tabulates.
    pub measured_k: Ratio,
    /// Average metrology supply current over the run (the paper's 7.6 µA
    /// measurement in §IV-A).
    pub average_metrology_current: Amps,
    /// Total energy delivered to storage.
    pub stored_energy: Joules,
    /// Total electrical energy extracted from the PV module.
    pub pv_energy: Joules,
}

/// The complete steppable platform of Fig. 3.
#[derive(Debug, Clone)]
pub struct FocvMpptSystem {
    config: SystemConfig,
    astable: AstableMultivibrator,
    sample_hold: SampleHold,
    cold_start: ColdStart,
    converter: InputRegulatedConverter,
    cell: PvCell,
    time: Seconds,
    ledger: CurrentLedger,
    stored_energy: Joules,
    pv_energy: Joules,
    pulses: u64,
    switch_loss_energy: Joules,
    pulse_was_high: bool,
    rail_was_on: bool,
    cold_start_time: Option<Seconds>,
    first_pulse_time: Option<Seconds>,
    last_pv_voltage: Volts,
    last_lux: Lux,
    traces: Option<SystemTraces>,
    metrics: Option<Box<Metrics>>,
}

#[derive(Debug, Clone, Default)]
struct SystemTraces {
    pulse: Trace,
    held_sample: Trace,
    pv_voltage: Trace,
}

impl FocvMpptSystem {
    /// Builds the platform in the fully discharged (dead) state.
    ///
    /// # Errors
    ///
    /// Propagates sub-component validation failures.
    pub fn new(config: SystemConfig) -> Result<Self, Error> {
        let astable = AstableMultivibrator::new(config.astable.clone())?;
        let sample_hold = SampleHold::new(config.sample_hold.clone())?;
        if !(config.alpha.is_finite() && config.alpha > 0.0 && config.alpha <= 1.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                value: config.alpha,
            });
        }
        let traces = config.record_traces.then(|| SystemTraces {
            pulse: Trace::new("PULSE"),
            held_sample: Trace::new("HELD_SAMPLE"),
            pv_voltage: Trace::new("PV_IN"),
        });
        let cell = config.cell.clone();
        if cell.cache_enabled() {
            // Build the surface now so step timing is pure lookups (a
            // no-op for a warmed cell).
            cell.cached()?;
        }
        Ok(Self {
            cold_start: config.cold_start.clone(),
            converter: config.converter.clone(),
            cell,
            astable,
            sample_hold,
            time: Seconds::ZERO,
            ledger: CurrentLedger::new(),
            stored_energy: Joules::ZERO,
            pv_energy: Joules::ZERO,
            pulses: 0,
            switch_loss_energy: Joules::ZERO,
            pulse_was_high: false,
            rail_was_on: false,
            cold_start_time: None,
            first_pulse_time: None,
            last_pv_voltage: Volts::ZERO,
            last_lux: Lux::ZERO,
            traces,
            metrics: config.obs.then(Box::default),
            config,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Simulated time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Number of completed PULSE operations.
    pub fn pulses(&self) -> u64 {
        self.pulses
    }

    /// The metrology current ledger (per-consumer breakdown).
    pub fn ledger(&self) -> &CurrentLedger {
        &self.ledger
    }

    /// Cumulative energy delivered to storage.
    pub fn stored_energy(&self) -> Joules {
        self.stored_energy
    }

    /// Cumulative energy extracted from the PV module.
    pub fn pv_energy(&self) -> Joules {
        self.pv_energy
    }

    /// Cumulative energy dissipated in the series power-path MOSFET (M1)
    /// — the quantity §IV-B declares negligible.
    pub fn series_switch_loss(&self) -> Joules {
        self.switch_loss_energy
    }

    /// The recorded PULSE trace, if tracing is enabled.
    pub fn pulse_trace(&self) -> Option<&Trace> {
        self.traces.as_ref().map(|t| &t.pulse)
    }

    /// The recorded HELD_SAMPLE trace, if tracing is enabled.
    pub fn held_sample_trace(&self) -> Option<&Trace> {
        self.traces.as_ref().map(|t| &t.held_sample)
    }

    /// The recorded PV voltage trace, if tracing is enabled.
    pub fn pv_voltage_trace(&self) -> Option<&Trace> {
        self.traces.as_ref().map(|t| &t.pv_voltage)
    }

    /// The metric store, when [`SystemConfig::obs`] is enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref()
    }

    /// Takes the metric store out of the system (for folding into
    /// reports), first folding in the cold-start supervisor's cumulative
    /// event counters; subsequent steps run uninstrumented.
    pub fn take_metrics(&mut self) -> Option<Metrics> {
        let mut m = self.metrics.take().map(|b| *b)?;
        self.cold_start.observe(&mut m);
        Some(m)
    }

    /// Fault injection: forces the held sample to an arbitrary (possibly
    /// wrong) value, as a glitched switch or disturbed hold capacitor
    /// would. The system should recover at its next PULSE.
    pub fn inject_held_sample(&mut self, v: Volts) {
        self.sample_hold.force_held(v);
    }

    /// Fault injection: collapses the metrology rail (e.g. a brown-out
    /// from a sudden shadow), forcing a fresh cold start.
    pub fn collapse_rail(&mut self) {
        self.cold_start.set_rail_voltage(Volts::ZERO);
    }

    /// Solves the PV operating point while the measurement divider is the
    /// only load: `I_cell(v) = v / R_divider` — the (slightly loaded)
    /// "open-circuit" voltage the sample-and-hold actually sees.
    fn loaded_voc(&self, lux: Lux) -> Result<Volts, Error> {
        let voc = self.cell.open_circuit_voltage(lux)?;
        if voc.value() <= 0.0 {
            return Ok(Volts::ZERO);
        }
        let r_total =
            self.sample_hold.config().divider.top() + self.sample_hold.config().divider.bottom();
        let g = |v: Volts| -> Result<f64, Error> {
            Ok(self.cell.current_at(v, lux)?.value() - (v / r_total).value())
        };
        let (mut lo, mut hi) = (0.0, voc.value());
        if g(voc)? >= 0.0 {
            return Ok(voc);
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if g(Volts::new(mid))? > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Volts::new(0.5 * (lo + hi)))
    }

    /// Advances the platform by `dt` under illuminance `lux`.
    ///
    /// The step is internally segmented at astable transitions, so PULSE
    /// edges are honoured exactly regardless of the caller's step size.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or non-positive `dt` with
    /// [`Error::InvalidParameter`] (matching `NodeSimulation`'s
    /// validation); propagates PV solver failures.
    pub fn step(&mut self, lux: Lux, dt: Seconds) -> Result<SystemStep, Error> {
        if !(dt.value().is_finite() && dt.value() > 0.0) {
            return Err(Error::InvalidParameter {
                name: "dt",
                value: dt.value(),
            });
        }
        self.last_lux = lux;
        let mut remaining = dt.value();
        let mut stored = Joules::ZERO;
        let mut metrology = Coulombs::ZERO;
        let mut last_state = if self.cold_start.rail_on() {
            SystemState::Waiting
        } else {
            SystemState::ColdStarting
        };

        while remaining > 0.0 {
            let rail_on = self.cold_start.rail_on();

            // Rail power-up edge: the metrology comes up from reset — the
            // astable fires its first PULSE immediately (§IV-B: the system
            // "quickly generates a signal on the PULSE line").
            if rail_on && !self.rail_was_on {
                self.astable = AstableMultivibrator::new(self.config.astable.clone())?;
                self.sample_hold = SampleHold::new(self.config.sample_hold.clone())?;
                if self.cold_start_time.is_none() {
                    self.cold_start_time = Some(self.time);
                }
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.add_counter("core.rail_up", 1);
                }
            }
            // Rail collapse: the astable dies with the rail, so PULSE is no
            // longer high — forget the edge state, or the power-up PULSE
            // after recovery would be miscounted as no rising edge.
            if !rail_on && self.rail_was_on {
                self.pulse_was_high = false;
                if let Some(m) = self.metrics.as_deref_mut() {
                    m.add_counter("core.rail_collapse", 1);
                }
            }
            self.rail_was_on = rail_on;

            let seg = if rail_on {
                let horizon = self.astable.time_to_next_transition().value();
                remaining.min(horizon.max(1e-6))
            } else {
                // Cold-start charging: C1 dynamics are slow; cap segments
                // at 100 ms so the charging knee tracks the rising rail.
                remaining.min(0.1)
            };
            let seg_s = Seconds::new(seg);

            let step_state = if !rail_on {
                self.cold_start_segment(lux, seg_s)?
            } else {
                self.powered_segment(lux, seg_s, &mut stored, &mut metrology)?
            };
            last_state = step_state;

            self.time += seg_s;
            remaining -= seg;

            if let Some(traces) = self.traces.as_mut() {
                let pulse_v = if self.cold_start.rail_on() && self.astable.output_high() {
                    self.config.astable.supply_voltage.value()
                } else {
                    0.0
                };
                traces.pulse.record(self.time, pulse_v);
                traces
                    .held_sample
                    .record(self.time, self.sample_hold.held_sample().value());
                traces
                    .pv_voltage
                    .record(self.time, self.last_pv_voltage.value());
            }
        }

        self.ledger.advance(dt);
        Ok(SystemStep {
            time: self.time,
            state: last_state,
            pulse: self.cold_start.rail_on() && self.astable.output_high(),
            active: self.sample_hold.is_active(),
            pv_voltage: self.last_pv_voltage,
            held_sample: self.sample_hold.held_sample(),
            rail_voltage: self.cold_start.rail_voltage(),
            stored_energy: stored,
            metrology_charge: metrology,
        })
    }

    /// One cold-start segment: PV charges C1 through D1; everything else
    /// is dark.
    fn cold_start_segment(&mut self, lux: Lux, seg: Seconds) -> Result<SystemState, Error> {
        let voc = self.cell.open_circuit_voltage(lux)?;
        let knee = self.cold_start.charging_knee().min(voc);
        let i_charge = if voc.value() <= 0.0 {
            Amps::ZERO
        } else {
            self.cell.current_at(knee, lux)?.max(Amps::ZERO)
        };
        self.pv_energy += knee * i_charge * seg;
        self.cold_start.step(i_charge, Amps::ZERO, seg);
        // The hold capacitor keeps leaking while the rail is dark, but
        // nothing draws supply current.
        let _ = self.sample_hold.step(Volts::ZERO, false, seg);
        self.last_pv_voltage = knee;
        if let Some(m) = self.metrics.as_deref_mut() {
            m.record_span_stats("core.cold_start", 1, seg.value(), 0.0);
        }
        Ok(SystemState::ColdStarting)
    }

    /// One powered segment (constant PULSE state throughout).
    fn powered_segment(
        &mut self,
        lux: Lux,
        seg: Seconds,
        stored: &mut Joules,
        metrology: &mut Coulombs,
    ) -> Result<SystemState, Error> {
        let pulse = self.astable.output_high();

        // Count a completed pulse on the rising edge.
        if pulse && !self.pulse_was_high {
            self.pulses += 1;
            if self.first_pulse_time.is_none() {
                self.first_pulse_time = Some(self.time);
            }
            if let Some(m) = self.metrics.as_deref_mut() {
                m.add_counter("core.pulses", 1);
            }
        }
        self.pulse_was_high = pulse;

        // Conversion losses this segment (converter dissipation plus the
        // series MOSFET), tracked for the metric ledger.
        let mut seg_loss = Joules::ZERO;

        let astable_step = self.astable.step(seg);
        let (state, sh_charge, harvest_energy) = if pulse {
            // Loads disconnected: the S&H divider is the only load.
            let v_meas = self.loaded_voc(lux)?;
            let sh = self.sample_hold.step(v_meas, true, seg);
            self.pv_energy += Joules::new(sh.pv_charge.value() * v_meas.value());
            self.last_pv_voltage = v_meas;
            (SystemState::Sampling, sh.supply_charge, Joules::ZERO)
        } else {
            let sh = self.sample_hold.step(Volts::ZERO, false, seg);
            if sh.active {
                let v_ref = Volts::new(self.sample_hold.held_sample().value() / self.config.alpha);
                let voc = self.cell.open_circuit_voltage(lux)?;
                let v_op = v_ref.min(voc);
                let i_pv = if v_op.value() > 0.0 {
                    self.cell.current_at(v_op, lux)?.max(Amps::ZERO)
                } else {
                    Amps::ZERO
                };
                let harvest = self.converter.harvest(v_op, i_pv, seg);
                // §IV-B: the single series MOSFET drops i²·Ron — track it
                // so the "negligible impact" claim is measurable.
                let ron = self
                    .config
                    .series_switch
                    .channel_resistance(self.cold_start.rail_voltage());
                let switch_loss = eh_units::Watts::new(i_pv.value() * i_pv.value() * ron.value());
                self.switch_loss_energy += switch_loss * seg;
                seg_loss = harvest.losses * seg + switch_loss * seg;
                self.pv_energy += harvest.input_power * seg;
                self.last_pv_voltage = if harvest.input_power.value() > 0.0 {
                    v_op
                } else {
                    voc
                };
                let st = if harvest.output_energy.value() > 0.0 {
                    SystemState::Harvesting
                } else {
                    SystemState::Waiting
                };
                (st, sh.supply_charge, harvest.output_energy)
            } else {
                self.last_pv_voltage = self.cell.open_circuit_voltage(lux)?;
                (SystemState::Waiting, sh.supply_charge, Joules::ZERO)
            }
        };

        // Metrology accounting.
        self.ledger
            .accumulate("astable", astable_step.supply_charge / seg, seg);
        self.ledger
            .accumulate("sample-and-hold", sh_charge / seg, seg);
        let load_q = astable_step.supply_charge + sh_charge;
        *metrology += load_q;

        // Metric attribution: supply charges convert to energy at the
        // configured metrology supply voltage — the same convention
        // `CurrentLedger::energy_from_supply` uses, so the bucket sums
        // can be checked against the closed-loop ledger. The converter's
        // delivered energy lands in the load bucket (the core layer has
        // no node load; storage is its delivery point).
        if let Some(m) = self.metrics.as_deref_mut() {
            let vdd = self.config.astable.supply_voltage;
            m.charge(
                EnergyBucket::Astable,
                Joules::new(astable_step.supply_charge.value() * vdd.value()),
            );
            m.charge(
                EnergyBucket::SampleHold,
                Joules::new(sh_charge.value() * vdd.value()),
            );
            m.charge(EnergyBucket::ConverterSwitching, seg_loss);
            m.charge(EnergyBucket::Load, harvest_energy);
            if pulse {
                m.record_span_stats("core.sampling", 1, seg.value(), 0.0);
            } else if state == SystemState::Harvesting {
                m.record_span_stats("core.harvesting", 1, seg.value(), harvest_energy.value());
            }
        }

        // Rail maintenance: harvested energy tops the rail up first, the
        // surplus goes to storage.
        let v_rail = self.cold_start.rail_voltage().max(Volts::new(0.5));
        let avail_q = Coulombs::new(harvest_energy.value() / v_rail.value());
        // Top the rail up to the configured astable supply (the rail IS the
        // metrology supply), sized by the configured C1 — not the paper's
        // 3.3 V / 47 µF, which would mis-account any re-trimmed build.
        let top_up_needed = Coulombs::new(
            (self.config.astable.supply_voltage - self.cold_start.rail_voltage())
                .max(Volts::ZERO)
                .value()
                * self.cold_start.capacitance().value(),
        );
        let used_for_rail = avail_q.min(load_q + top_up_needed);
        self.cold_start.step(used_for_rail / seg, load_q / seg, seg);
        let surplus = Joules::new((avail_q - used_for_rail).value() * v_rail.value());
        *stored += surplus;
        self.stored_energy += surplus;

        Ok(state)
    }

    /// Runs at constant illuminance and summarises, driven by the shared
    /// engine in [`eh_sim`].
    ///
    /// # Errors
    ///
    /// Propagates step errors; rejects non-positive `duration`/`dt`.
    pub fn run_constant(
        &mut self,
        lux: Lux,
        duration: Seconds,
        dt: Seconds,
    ) -> Result<RunReport, Error> {
        let light = Light::constant(lux, duration);
        drive(self, &light, dt)?;
        self.report(lux)
    }

    /// Runs over an illuminance trace (values in lux) and summarises,
    /// driven by the shared engine in [`eh_sim`].
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_trace(&mut self, trace: &TimeSeries, dt: Seconds) -> Result<RunReport, Error> {
        let light = Light::trace(trace);
        drive(self, &light, dt)?;
        self.report(self.last_lux)
    }

    /// Builds the summary for the run so far, evaluating the true Voc at
    /// the given (final) illuminance.
    ///
    /// # Errors
    ///
    /// Propagates PV solver errors.
    pub fn report(&self, final_lux: Lux) -> Result<RunReport, Error> {
        let voc = self.cell.open_circuit_voltage(final_lux)?;
        let held = self.sample_hold.held_sample();
        let measured_k = if voc.value() > 0.0 {
            Ratio::new(held.value() / (voc.value() * self.config.alpha))
        } else {
            Ratio::ZERO
        };
        Ok(RunReport {
            duration: self.time,
            pulses: self.pulses,
            cold_start_time: self.cold_start_time,
            first_pulse_time: self.first_pulse_time,
            final_held_sample: held,
            final_voc: voc,
            measured_k,
            average_metrology_current: self.ledger.average_current_elapsed(),
            stored_energy: self.stored_energy,
            pv_energy: self.pv_energy,
        })
    }
}

/// The full platform as a steppable system: the engine hands it time
/// slices and illuminance samples; PULSE-edge segmentation happens
/// inside [`FocvMpptSystem::step`].
impl Stepper for FocvMpptSystem {
    fn step(&mut self, _t: Seconds, dt: Seconds, input: &StepInput) -> Result<(), Error> {
        FocvMpptSystem::step(self, input.lux, dt)?;
        Ok(())
    }

    fn recorder(&mut self) -> Option<&mut Metrics> {
        self.metrics.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charged_system() -> FocvMpptSystem {
        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.cold_start.set_rail_voltage(Volts::new(3.3));
        FocvMpptSystem::new(cfg).unwrap()
    }

    #[test]
    fn paper_prototype_builds_dead() {
        let sys = FocvMpptSystem::new(SystemConfig::paper_prototype().unwrap()).unwrap();
        assert_eq!(sys.pulses(), 0);
        assert_eq!(sys.stored_energy(), Joules::ZERO);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.alpha = 0.0;
        assert!(FocvMpptSystem::new(cfg).is_err());
        assert!(SystemConfig::paper_prototype_with_k(1.5).is_err());
    }

    #[test]
    fn cold_start_at_1000_lux_then_samples() {
        let mut sys = FocvMpptSystem::new(SystemConfig::paper_prototype().unwrap()).unwrap();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(60.0), Seconds::new(0.05))
            .unwrap();
        assert!(
            report.cold_start_time.is_some(),
            "system must cold start at 1000 lux"
        );
        assert!(report.pulses >= 1, "first PULSE fires soon after power-up");
        let t_cs = report.cold_start_time.unwrap().value();
        assert!(t_cs < 10.0, "cold start took {t_cs} s");
    }

    #[test]
    fn cold_start_works_down_to_200_lux() {
        // §IV-B: "the cold-start of the system has been observed down to
        // light levels of 200 lux".
        let mut sys = FocvMpptSystem::new(SystemConfig::paper_prototype().unwrap()).unwrap();
        let report = sys
            .run_constant(Lux::new(200.0), Seconds::new(120.0), Seconds::new(0.05))
            .unwrap();
        assert!(
            report.cold_start_time.is_some(),
            "must cold start at 200 lux"
        );
        assert!(report.pulses >= 1);
    }

    #[test]
    fn tracking_accuracy_at_1000_lux() {
        // Table I row: 1000 lux → Voc 5.44 V, HELD 1.624 V, k 59.7 %.
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(150.0), Seconds::new(0.01))
            .unwrap();
        assert!(
            (report.final_voc.value() - 5.44).abs() < 0.1,
            "Voc = {}",
            report.final_voc
        );
        assert!(
            (report.final_held_sample.value() - 1.624).abs() < 0.05,
            "HELD = {}",
            report.final_held_sample
        );
        let k = report.measured_k.as_percent();
        assert!((57.0..61.0).contains(&k), "k = {k}%");
    }

    #[test]
    fn harvests_energy_between_pulses() {
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(200.0), Seconds::new(0.01))
            .unwrap();
        assert!(
            report.stored_energy.value() > 0.0,
            "stored = {}",
            report.stored_energy
        );
        // Stored energy must be bounded by the MPP energy over the run.
        let mpp = sys.cell.mpp(Lux::new(1000.0)).unwrap();
        let bound = mpp.power.value() * 200.0;
        assert!(report.stored_energy.value() < bound);
    }

    #[test]
    fn metrology_current_near_paper_value() {
        // §IV-A: astable + S&H measured at 7.6 µA average.
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(300.0), Seconds::new(0.02))
            .unwrap();
        let avg = report.average_metrology_current.as_micro();
        assert!((6.5..8.6).contains(&avg), "metrology average = {avg} µA");
    }

    #[test]
    fn pulse_period_matches_astable() {
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(350.0), Seconds::new(0.05))
            .unwrap();
        // 350 s / 69 s ≈ 5 pulses (plus the power-up pulse).
        assert!(
            (5..=7).contains(&report.pulses),
            "pulses = {}",
            report.pulses
        );
    }

    #[test]
    fn dark_system_never_starts() {
        // 0.5 lux: the cell's ~0.2 µA cannot outrun the 0.4 µA cold-start
        // supervisor, so C1 never reaches the enable threshold.
        let mut sys = FocvMpptSystem::new(SystemConfig::paper_prototype().unwrap()).unwrap();
        let report = sys
            .run_constant(Lux::new(0.5), Seconds::new(300.0), Seconds::new(0.1))
            .unwrap();
        assert!(
            report.cold_start_time.is_none(),
            "0.5 lux must not cold start"
        );
        assert_eq!(report.pulses, 0);
        assert_eq!(report.stored_energy, Joules::ZERO);
    }

    #[test]
    fn dim_light_trips_but_cannot_sustain() {
        // 5 lux can eventually trip the threshold, but the ~25 µW
        // metrology load out-eats the few-µW harvest: the rail collapses
        // and nothing reaches storage.
        let mut sys = FocvMpptSystem::new(SystemConfig::paper_prototype().unwrap()).unwrap();
        let report = sys
            .run_constant(Lux::new(5.0), Seconds::new(240.0), Seconds::new(0.1))
            .unwrap();
        assert!(
            report.stored_energy.value() < 1e-6,
            "no sustained harvest at 5 lux, stored = {}",
            report.stored_energy
        );
    }

    #[test]
    fn traces_record_when_enabled() {
        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.record_traces = true;
        cfg.cold_start.set_rail_voltage(Volts::new(3.3));
        let mut sys = FocvMpptSystem::new(cfg).unwrap();
        sys.run_constant(Lux::new(1000.0), Seconds::new(80.0), Seconds::new(0.005))
            .unwrap();
        let pulse = sys.pulse_trace().expect("traces enabled");
        assert!(!pulse.is_empty());
        let highs = pulse.high_durations(1.65);
        assert!(!highs.is_empty(), "at least one complete PULSE recorded");
        for h in highs {
            assert!((h.as_milli() - 39.0).abs() < 8.0, "pulse width {h}");
        }
        assert!(sys.held_sample_trace().unwrap().len() > 100);
    }

    #[test]
    fn k_trim_changes_held_sample() {
        for k in [0.55, 0.65, 0.75] {
            let mut cfg = SystemConfig::paper_prototype_with_k(k).unwrap();
            cfg.cold_start.set_rail_voltage(Volts::new(3.3));
            let mut sys = FocvMpptSystem::new(cfg).unwrap();
            let report = sys
                .run_constant(Lux::new(1000.0), Seconds::new(100.0), Seconds::new(0.02))
                .unwrap();
            let measured = report.measured_k.value();
            assert!(
                (measured - k).abs() < 0.02,
                "trimmed {k}, measured {measured}"
            );
        }
    }

    #[test]
    fn series_mosfet_impact_is_negligible() {
        // §IV-B: "negligible impact on the overall efficiency" from the
        // single low-Ron MOSFET in the power path. At indoor currents
        // (hundreds of µA through 2 Ω) the loss is sub-nanowatt against
        // a sub-milliwatt harvest.
        let mut sys = charged_system();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(250.0), Seconds::new(0.05))
            .unwrap();
        let loss = sys.series_switch_loss();
        assert!(loss.value() > 0.0, "loss must be tracked");
        let fraction = loss.value() / report.pv_energy.value();
        // 2 Ω at ~200 µA against a ~650 µW harvest: ~0.01 % of the energy.
        assert!(
            fraction < 1e-3,
            "switch loss fraction {fraction:.2e} is not negligible"
        );
    }

    #[test]
    fn step_size_does_not_change_pulse_count() {
        let run = |dt: f64| {
            let mut sys = charged_system();
            sys.run_constant(Lux::new(1000.0), Seconds::new(150.0), Seconds::new(dt))
                .unwrap()
                .pulses
        };
        assert_eq!(run(0.5), run(0.013));
    }

    #[test]
    fn non_positive_or_nan_dt_rejected() {
        let mut sys = charged_system();
        for dt in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = sys.step(Lux::new(500.0), Seconds::new(dt));
            assert!(
                matches!(err, Err(Error::InvalidParameter { name: "dt", .. })),
                "dt = {dt} must be rejected, got {err:?}"
            );
        }
        // A rejected step must not have advanced time or state.
        assert_eq!(sys.time(), Seconds::ZERO);
        assert_eq!(sys.pulses(), 0);
    }

    #[test]
    fn rail_top_up_respects_configured_supply_voltage() {
        // Re-trim the astable supply to 2.5 V. The rail top-up must then
        // stop near 2.5 V; with the hard-coded 3.3 V target the rail is
        // driven all the way to C1's clamp.
        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.astable = AstableConfig::from_periods(
            Volts::new(2.5),
            eh_units::Farads::from_micro(1.0),
            eh_units::Ohms::from_mega(10.0),
            Seconds::from_milli(39.0),
            Seconds::new(69.0),
        )
        .unwrap();
        cfg.cold_start.set_rail_voltage(Volts::new(2.5));
        let mut sys = FocvMpptSystem::new(cfg).unwrap();
        let mut last = Volts::ZERO;
        let mut t = 0.0;
        while t < 150.0 {
            last = sys
                .step(Lux::new(1000.0), Seconds::new(0.05))
                .unwrap()
                .rail_voltage;
            t += 0.05;
        }
        assert!(
            last.value() < 2.7,
            "rail climbed to {last} despite a 2.5 V configured supply"
        );
    }

    #[test]
    fn rail_top_up_respects_configured_capacitance() {
        // With a 1 µF C1, the hard-coded 47 µF top-up requests ~47× the
        // charge the rail can absorb; C1 clamps at v_max and the excess is
        // silently burned every segment instead of being stored. Stored
        // energy must be (nearly) independent of C1 once the rail is up.
        // A 0.1 µF astable timing cap keeps the PULSE recharge draw small
        // enough that a 1 µF rail rides through the pulse on its own.
        let run = |cap_uf: f64| {
            let mut cfg = SystemConfig::paper_prototype().unwrap();
            cfg.astable = AstableConfig::from_periods(
                Volts::new(3.3),
                eh_units::Farads::from_micro(0.1),
                eh_units::Ohms::from_mega(10.0),
                Seconds::from_milli(39.0),
                Seconds::new(69.0),
            )
            .unwrap();
            cfg.cold_start = ColdStart::new(
                eh_units::Farads::from_micro(cap_uf),
                Volts::new(2.2),
                Volts::new(1.8),
                Volts::new(3.3),
                Volts::new(0.3),
            )
            .unwrap();
            cfg.cold_start.set_rail_voltage(Volts::new(3.3));
            let mut sys = FocvMpptSystem::new(cfg).unwrap();
            sys.run_constant(Lux::new(1000.0), Seconds::new(150.0), Seconds::new(0.05))
                .unwrap()
                .stored_energy
                .value()
        };
        let small = run(1.0);
        let paper = run(47.0);
        let rel = (small - paper).abs() / paper;
        assert!(
            rel < 0.02,
            "stored energy depends on C1 size: {small} J vs {paper} J (rel {rel:.3})"
        );
    }

    #[test]
    fn metrics_are_off_by_default_and_opt_in() {
        let sys = charged_system();
        assert!(sys.metrics().is_none(), "obs must be opt-in");

        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.obs = true;
        let mut sys = FocvMpptSystem::new(cfg).unwrap();
        let report = sys
            .run_constant(Lux::new(1000.0), Seconds::new(150.0), Seconds::new(0.05))
            .unwrap();
        let m = sys.take_metrics().expect("obs enabled");
        assert!(sys.metrics().is_none(), "take_metrics empties the slot");

        // Counters agree with the closed-loop report.
        assert_eq!(m.counter("core.pulses"), report.pulses);
        assert_eq!(m.counter("core.rail_up"), 1);
        assert_eq!(m.counter("coldstart.enable_events"), 1);
        // Sampling span: a 39 ms dwell per pulse (the first pulse after
        // an astable reset charges its timing cap from 0 V and runs
        // ln 3 / ln 2 ≈ 1.58× longer).
        let sampling = m.span_stats("core.sampling").expect("pulses fired");
        let floor = report.pulses as f64 * 0.039;
        let t_sampling = sampling.sim_time().value();
        assert!(
            t_sampling >= floor - 2e-3 && t_sampling <= floor + 0.03,
            "sampling time {t_sampling} vs {} pulses x 39 ms",
            report.pulses
        );
        // Cold start span covers the time before the rail came up.
        let cs = m
            .span_stats("core.cold_start")
            .expect("system cold started");
        let t_cs = report.cold_start_time.unwrap().value();
        assert!((cs.sim_time().value() - t_cs).abs() < 0.2);
    }

    /// Golden bits of the circuit-level metric store. The run fires
    /// every record site of the platform: the cold-start, sampling and
    /// harvesting spans, the rail-up, rail-collapse and pulse counters,
    /// the four ledger buckets, the engine's step counter and drive span,
    /// and the cold-start supervisor's counters and gauge. The digest is
    /// FNV-1a over the store's JSON export, which renders each `f64` in
    /// shortest round-trip form, so an equal digest means equal bits.
    /// It was re-recorded when the never-recorded histogram map left the
    /// store, as the old export's digest with its empty
    /// `"histograms":{}` member taken out.
    #[test]
    fn circuit_metric_store_matches_its_recorded_golden_bits() {
        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.obs = true;
        let mut sys = FocvMpptSystem::new(cfg).unwrap();
        let (lux, half, dt) = (Lux::new(1000.0), Seconds::new(100.0), Seconds::new(0.05));
        sys.run_constant(lux, half, dt).unwrap();
        sys.collapse_rail();
        let report = sys.run_constant(lux, half, dt).unwrap();
        let m = sys.take_metrics().expect("obs enabled");
        assert_eq!(m.counter("core.rail_up"), 2);
        assert_eq!(m.counter("core.rail_collapse"), 1);
        assert_eq!(m.counter("core.pulses"), report.pulses);
        for name in ["core.cold_start", "core.sampling", "core.harvesting"] {
            assert!(m.span_stats(name).is_some(), "{name} never recorded");
        }
        let json = m.to_json();
        let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, 0x90f6_cd1f_4031_c828, "{json}");
    }

    #[test]
    fn metrology_buckets_conserve_against_the_current_ledger() {
        // Two-path invariant: the metric ledger charges the astable and
        // S&H buckets segment by segment at the supply voltage; the
        // closed-loop CurrentLedger accumulates the same charges as
        // currents and converts once at the end. The groupings (and thus
        // the float rounding) differ, so agreement is a real check.
        let mut cfg = SystemConfig::paper_prototype().unwrap();
        cfg.obs = true;
        cfg.cold_start.set_rail_voltage(Volts::new(3.3));
        let mut sys = FocvMpptSystem::new(cfg).unwrap();
        sys.run_constant(Lux::new(1000.0), Seconds::new(300.0), Seconds::new(0.02))
            .unwrap();
        let closed_loop = sys
            .ledger()
            .energy_from_supply(sys.config().astable.supply_voltage);
        let m = sys.metrics().unwrap();
        let metrology = m.ledger().energy(eh_obs::EnergyBucket::Astable)
            + m.ledger().energy(eh_obs::EnergyBucket::SampleHold);
        let rel = (metrology.value() - closed_loop.value()).abs()
            / closed_loop.value().max(f64::MIN_POSITIVE);
        assert!(
            rel < 1e-9,
            "metrology buckets {} J vs closed loop {} J (rel {rel:.3e})",
            metrology,
            closed_loop
        );
        // The converter path also booked losses and deliveries.
        assert!(
            m.ledger()
                .energy(eh_obs::EnergyBucket::ConverterSwitching)
                .value()
                > 0.0
        );
        assert!(m.ledger().energy(eh_obs::EnergyBucket::Load).value() > 0.0);
    }

    #[test]
    fn metrics_do_not_change_physics() {
        let run = |obs: bool| {
            let mut cfg = SystemConfig::paper_prototype().unwrap();
            cfg.obs = obs;
            cfg.cold_start.set_rail_voltage(Volts::new(3.3));
            let mut sys = FocvMpptSystem::new(cfg).unwrap();
            sys.run_constant(Lux::new(1000.0), Seconds::new(150.0), Seconds::new(0.05))
                .unwrap()
        };
        assert_eq!(run(false), run(true), "observation must be passive");
    }

    #[test]
    fn cached_system_matches_exact_tracking() {
        // A warmed cell must not move the paper's headline numbers: same
        // pulse count, measured k within the documented error bound's
        // effect, energies within a fraction of a percent.
        let run = |cached: bool| {
            let mut cfg = SystemConfig::paper_prototype().unwrap();
            if cached {
                cfg.cell = cfg.cell.warmed().unwrap();
            }
            cfg.cold_start.set_rail_voltage(Volts::new(3.3));
            let mut sys = FocvMpptSystem::new(cfg).unwrap();
            sys.run_constant(Lux::new(1000.0), Seconds::new(150.0), Seconds::new(0.05))
                .unwrap()
        };
        let exact = run(false);
        let cached = run(true);
        assert_eq!(exact.pulses, cached.pulses);
        assert!(
            (exact.measured_k.value() - cached.measured_k.value()).abs() < 1e-3,
            "k diverged: exact {} vs cached {}",
            exact.measured_k,
            cached.measured_k
        );
        let e_rel = (exact.stored_energy.value() - cached.stored_energy.value()).abs()
            / exact.stored_energy.value();
        assert!(e_rel < 5e-3, "stored energy diverged by {e_rel:.2e}");
    }
}
