//! What-if request validation, canonicalization and hashing.
//!
//! A request body is parsed into a [`WhatIfRequest`] with every
//! omitted field filled from the reference deployment's defaults, then
//! re-serialized as **canonical JSON** ([`WhatIfRequest::canonical_json`])
//! and hashed. Hashing the *validated* request rather than the raw
//! bytes is what makes the cache key semantic: key order, whitespace,
//! number spelling, and explicitly-spelled defaults all collapse onto
//! one key.
//!
//! [`WhatIfRequest::hash`] covers every field including the operation,
//! tracker, engine and shard size; it keys the response cache and
//! addresses a stream's spill directory.
//!
//! **Shard grouping is part of cache identity.** Percentiles are
//! sharding-independent, but when `obs` is enabled the merged metric
//! store contains f64 folds performed per shard, so reports produced
//! under different `shard_size` values may differ in low-order ledger
//! bits. `shard_size` is therefore hashed with the request rather than
//! treated as an execution detail.

use eh_campaign::{CampaignSpec, Climate, DriftRates, FaultPlan, LoadClass};
use eh_fleet::{Engine, FleetRunner, FleetSpec, PlacementMix, Tolerances, TrackerKind};
use eh_units::Seconds;

use crate::error::ServeError;
use crate::hash::fnv1a;
use crate::json::Json;

/// The operation a request body was posted to. Part of the canonical
/// hash so `/whatif`, `/compare` and `/whatif/stream` bodies never
/// collide on a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// One tracker over one fleet → one report summary.
    WhatIf,
    /// Every tracker over one fleet → eleven report summaries.
    Compare,
    /// One tracker over one fleet, streamed per shard with
    /// checkpoint/resume.
    Stream,
}

impl Op {
    /// Stable label, used in the canonical rendering.
    pub fn label(self) -> &'static str {
        match self {
            Op::WhatIf => "whatif",
            Op::Compare => "compare",
            Op::Stream => "stream",
        }
    }
}

/// The tolerance budget presets a request may name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TolerancePreset {
    /// [`Tolerances::production_batch`].
    Production,
    /// [`Tolerances::none`] (every node is the golden prototype).
    None,
}

impl TolerancePreset {
    /// Stable label, used in the canonical rendering.
    pub fn label(self) -> &'static str {
        match self {
            TolerancePreset::Production => "production",
            TolerancePreset::None => "none",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "production" | "production-batch" | "production_batch" => {
                Some(TolerancePreset::Production)
            }
            "none" | "golden" => Some(TolerancePreset::None),
            _ => None,
        }
    }

    fn build(self) -> Tolerances {
        match self {
            TolerancePreset::Production => Tolerances::production_batch(),
            TolerancePreset::None => Tolerances::none(),
        }
    }
}

/// A validated what-if request: every field explicit, defaults filled.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfRequest {
    /// Which operation the body was posted to.
    pub op: Op,
    /// Fleet size.
    pub nodes: u32,
    /// Population seed.
    pub seed: u64,
    /// The tracker to run (`/compare` ignores it when executing but it
    /// stays in the hash — it is part of what the client asked).
    pub tracker: TrackerKind,
    /// Engine label: both labels run the one node stepper, and the label
    /// stays a member of the canonical request.
    pub engine: Engine,
    /// Placement weights `[window, interior, outdoor]` (any scale).
    pub weights: [f64; 3],
    /// Tolerance budget preset.
    pub tolerances: TolerancePreset,
    /// Simulation step, seconds.
    pub dt_s: f64,
    /// Trace decimation factor; must divide 86 400, the day's seconds.
    pub trace_decimate: usize,
    /// Whether nodes answer PV queries from the shared memoized
    /// surface.
    pub pv_cache: bool,
    /// Whether per-node deterministic metrics are collected and folded.
    pub obs: bool,
    /// Nodes per shard: every op runs its fleet in shards of this size
    /// (the streaming path also emits and spills one line per shard),
    /// so it is hashed for every op — see the module docs on shard
    /// grouping.
    pub shard_size: usize,
}

/// Service defaults: the 10-minute grid the workspace's fast profiles
/// use, so an unadorned request answers interactively.
const DEFAULT_NODES: u64 = 100;
const DEFAULT_SEED: u64 = 2011;
const DEFAULT_DT_S: f64 = 600.0;
const DEFAULT_TRACE_DECIMATE: u64 = 600;

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest(message.into())
}

/// The finest simulation step the service accepts, in seconds: the
/// fastest control period of any tracker prototype, the hill climbers'
/// 100 ms. A finer step resolves no control decision, and a tiny one
/// would hold a worker for billions of slices per node-day.
const MIN_DT_S: f64 = 0.1;

/// A request body: a JSON object whose every member is a known field,
/// read one member at a time, an omitted member taking its default.
/// Both request kinds read their bodies through it, so a field they
/// share is read, bounded and reported alike.
struct Body<'a>(&'a Json);

impl<'a> Body<'a> {
    /// Checks that `body` is an object whose every member is in `known`
    /// (a typoed knob must not silently fall back to its default).
    fn new(body: &'a Json, known: &[&str]) -> Result<Self, ServeError> {
        let members = body
            .as_obj()
            .ok_or_else(|| bad("request body must be a JSON object"))?;
        for (key, _) in members {
            if !known.contains(&key.as_str()) {
                return Err(bad(format!(
                    "unknown field {key:?}; known fields: {}",
                    known.join(", ")
                )));
            }
        }
        Ok(Self(body))
    }

    /// The member `name` read by `read`, `default` when it is absent;
    /// a member `read` refuses is a 400 saying it must be `what`.
    fn get<T>(
        &self,
        name: &str,
        default: T,
        read: impl FnOnce(&'a Json) -> Option<T>,
        what: &str,
    ) -> Result<T, ServeError> {
        match self.0.get(name) {
            None => Ok(default),
            Some(v) => read(v).ok_or_else(|| bad(format!("{name} must be {what}"))),
        }
    }

    fn u64(&self, name: &str, default: u64) -> Result<u64, ServeError> {
        self.get(name, default, Json::as_u64, "a non-negative integer")
    }

    fn f64(&self, name: &str, default: f64) -> Result<f64, ServeError> {
        self.get(name, default, Json::as_f64, "a number")
    }

    fn bool(&self, name: &str, default: bool) -> Result<bool, ServeError> {
        self.get(name, default, Json::as_bool, "a boolean")
    }

    /// An integer member bounded to `1..=max`, reported as sent.
    fn count(&self, name: &str, default: u64, max: u64) -> Result<u64, ServeError> {
        let n = self.u64(name, default)?;
        if n == 0 || n > max {
            return Err(bad(format!("{name} must be in 1..={max}, got {n}")));
        }
        Ok(n)
    }

    /// A string member parsed by `parse`, `default` when it is absent; a
    /// spelling `parse` refuses is a 400 with `unknown`'s message.
    fn parsed<T>(
        &self,
        name: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
        unknown: impl FnOnce(&str) -> String,
    ) -> Result<T, ServeError> {
        match self.get(name, None, |v| v.as_str().map(Some), "a string")? {
            None => Ok(default),
            Some(s) => parse(s).ok_or_else(|| bad(unknown(s))),
        }
    }

    fn nodes(&self, default: u64, max_nodes: u32) -> Result<u32, ServeError> {
        // Bounded by a u32, so the cast is exact.
        Ok(self.count("nodes", default, u64::from(max_nodes))? as u32)
    }

    fn shard_size(&self) -> Result<usize, ServeError> {
        let default = FleetRunner::DEFAULT_SHARD_SIZE as u64;
        Ok(self.count("shard_size", default, 4096)? as usize)
    }

    fn tracker(&self, default: TrackerKind) -> Result<TrackerKind, ServeError> {
        self.parsed("tracker", default, TrackerKind::parse, |s| {
            format!("unknown tracker {s:?}")
        })
    }

    /// The engine, naming the known engines on a miss.
    fn engine(&self, default: Engine) -> Result<Engine, ServeError> {
        self.parsed("engine", default, Engine::parse, |s| {
            let known: Vec<&str> = Engine::ALL.iter().map(|e| e.label()).collect();
            format!("unknown engine {s:?}; known: {}", known.join(", "))
        })
    }

    fn dt_s(&self, default: f64) -> Result<f64, ServeError> {
        let dt_s = self.f64("dt_s", default)?;
        if dt_s.is_finite() && dt_s >= MIN_DT_S {
            Ok(dt_s)
        } else {
            Err(bad(format!(
                "dt_s must be a finite number of seconds, at least {MIN_DT_S}, got {dt_s}"
            )))
        }
    }
}

impl WhatIfRequest {
    /// Builds a validated request from a parsed body, filling every
    /// omitted field with the service default and bounding the fleet
    /// size by `max_nodes`.
    ///
    /// # Errors
    ///
    /// Rejects non-object bodies, unknown fields (a typoed knob must
    /// not silently fall back to its default), out-of-range values,
    /// and unknown tracker/engine/tolerance spellings.
    pub fn from_json(op: Op, body: &Json, max_nodes: u32) -> Result<Self, ServeError> {
        let fields = Body::new(
            body,
            &[
                "nodes",
                "seed",
                "tracker",
                "engine",
                "placements",
                "tolerances",
                "dt_s",
                "trace_decimate",
                "pv_cache",
                "obs",
                "shard_size",
            ],
        )?;
        let nodes = fields.nodes(DEFAULT_NODES, max_nodes)?;
        let seed = fields.u64("seed", DEFAULT_SEED)?;
        let tracker = fields.tracker(TrackerKind::Focv)?;
        let engine = fields.engine(Engine::default())?;
        let tolerances = fields.parsed(
            "tolerances",
            TolerancePreset::Production,
            TolerancePreset::parse,
            |s| format!("unknown tolerances preset {s:?} (production|none)"),
        )?;

        let weights = match body.get("placements") {
            None => [0.25, 0.60, 0.15],
            Some(v) => {
                let obj = v
                    .as_obj()
                    .ok_or_else(|| bad("placements must be an object of weights"))?;
                const SLOTS: [&str; 3] = ["window", "interior", "outdoor"];
                for (key, _) in obj {
                    if !SLOTS.contains(&key.as_str()) {
                        return Err(bad(format!(
                            "unknown placement {key:?}; known: window, interior, outdoor"
                        )));
                    }
                }
                let weight = |name: &str| -> Result<f64, ServeError> {
                    match v.get(name) {
                        None => Ok(0.0),
                        Some(w) => w
                            .as_f64()
                            .ok_or_else(|| bad(format!("placements.{name} must be a number"))),
                    }
                };
                [weight("window")?, weight("interior")?, weight("outdoor")?]
            }
        };
        // Early, named validation; `to_spec` re-runs it structurally.
        PlacementMix::new(weights[0], weights[1], weights[2])
            .map_err(|e| bad(format!("invalid placements: {e}")))?;

        let dt_s = fields.dt_s(DEFAULT_DT_S)?;

        let trace_decimate = fields.u64("trace_decimate", DEFAULT_TRACE_DECIMATE)?;
        // A day profile spans both midnights; only a divisor of its
        // 86 400 s keeps the closing sample (see `FleetSpec`).
        if !86_400_u64.is_multiple_of(trace_decimate) {
            return Err(bad(format!(
                "trace_decimate must divide 86400, got {trace_decimate}"
            )));
        }

        let request = Self {
            op,
            nodes,
            seed,
            tracker,
            engine,
            weights,
            tolerances,
            dt_s,
            trace_decimate: trace_decimate as usize,
            pv_cache: fields.bool("pv_cache", true)?,
            obs: fields.bool("obs", false)?,
            shard_size: fields.shard_size()?,
        };
        // Final structural check through the fleet layer's own
        // validation, so the service can never cache a spec the
        // runner would reject.
        request.to_spec()?.validate()?;
        Ok(request)
    }

    /// The canonical JSON rendering of the validated request: every
    /// field explicit, keys sorted, shortest-round-trip numbers.
    pub fn canonical_json(&self) -> String {
        Json::Obj(vec![
            ("dt_s".to_owned(), Json::Num(self.dt_s)),
            ("nodes".to_owned(), Json::Num(f64::from(self.nodes))),
            ("obs".to_owned(), Json::Bool(self.obs)),
            (
                "placements".to_owned(),
                Json::Obj(vec![
                    ("window".to_owned(), Json::Num(self.weights[0])),
                    ("interior".to_owned(), Json::Num(self.weights[1])),
                    ("outdoor".to_owned(), Json::Num(self.weights[2])),
                ]),
            ),
            ("pv_cache".to_owned(), Json::Bool(self.pv_cache)),
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            (
                "tolerances".to_owned(),
                Json::Str(self.tolerances.label().to_owned()),
            ),
            (
                "trace_decimate".to_owned(),
                Json::Num(self.trace_decimate as f64),
            ),
            ("op".to_owned(), Json::Str(self.op.label().to_owned())),
            (
                "tracker".to_owned(),
                Json::Str(self.tracker.label().to_owned()),
            ),
            (
                "engine".to_owned(),
                Json::Str(self.engine.label().to_owned()),
            ),
            ("shard_size".to_owned(), Json::Num(self.shard_size as f64)),
        ])
        .to_canonical_string()
    }

    /// The request hash: response-cache key and spill-directory
    /// address.
    pub fn hash(&self) -> u64 {
        fnv1a(self.canonical_json().as_bytes())
    }

    /// Materializes the fleet spec this request describes.
    ///
    /// # Errors
    ///
    /// Propagates the fleet layer's constructor validation.
    pub fn to_spec(&self) -> Result<FleetSpec, ServeError> {
        let mut spec = FleetSpec::mixed_indoor_outdoor(self.nodes, self.seed)?;
        spec.placements = PlacementMix::new(self.weights[0], self.weights[1], self.weights[2])?;
        spec.tolerances = self.tolerances.build();
        spec.dt = Seconds::new(self.dt_s);
        spec.trace_decimate = self.trace_decimate;
        spec.pv_cache = self.pv_cache;
        spec.obs = self.obs;
        Ok(spec)
    }
}

/// A validated endurance-campaign request: every field explicit,
/// defaults filled from [`CampaignSpec::smoke`]'s setting. Campaigns
/// share the service's response cache; the literal `"op":"campaign"`
/// member in the canonical rendering keeps their hashes disjoint from
/// every what-if key.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRequest {
    /// Fleet size.
    pub nodes: u32,
    /// Seed fixing population, weather and every drift/fault schedule.
    pub seed: u64,
    /// Campaign length in simulated days.
    pub days: u32,
    /// Degradation-epoch length in days.
    pub epoch_days: u32,
    /// Deployment latitude in degrees (positive north).
    pub latitude_deg: f64,
    /// Climate regime.
    pub climate: Climate,
    /// Node load class.
    pub load: LoadClass,
    /// Tracker under test.
    pub tracker: TrackerKind,
    /// Engine label (see [`WhatIfRequest::engine`]).
    pub engine: Engine,
    /// Whether the reference drift rates apply (false = no drift).
    pub drift: bool,
    /// Per-node fault probability over the whole campaign.
    pub fault_probability: f64,
    /// Simulation step, seconds.
    pub dt_s: f64,
    /// Nodes per shard (hashed — see the module docs on shard
    /// grouping).
    pub shard_size: usize,
}

/// The longest campaign the service accepts: ten simulated years.
const MAX_CAMPAIGN_DAYS: u64 = 3650;

impl CampaignRequest {
    /// Builds a validated campaign request from a parsed body, filling
    /// every omitted field with the smoke-campaign default and bounding
    /// the fleet size by `max_nodes`.
    ///
    /// # Errors
    ///
    /// Rejects non-object bodies, unknown fields, out-of-range values,
    /// and unknown climate/load/tracker/engine spellings.
    pub fn from_json(body: &Json, max_nodes: u32) -> Result<Self, ServeError> {
        let fields = Body::new(
            body,
            &[
                "nodes",
                "seed",
                "days",
                "epoch_days",
                "latitude",
                "climate",
                "load",
                "tracker",
                "engine",
                "drift",
                "fault_probability",
                "dt_s",
                "shard_size",
            ],
        )?;
        let smoke = CampaignSpec::smoke(DEFAULT_SEED);
        let nodes = fields.nodes(u64::from(smoke.nodes), max_nodes)?;
        // Bounded by MAX_CAMPAIGN_DAYS, and the epoch by the campaign,
        // so both casts are exact.
        let days = fields.count("days", u64::from(smoke.days), MAX_CAMPAIGN_DAYS)? as u32;
        let epoch_days =
            fields.count("epoch_days", u64::from(smoke.epoch_days), u64::from(days))? as u32;
        let climate = fields.parsed("climate", smoke.climate, Climate::parse, |s| {
            format!("unknown climate {s:?} (temperate|monsoon|arid)")
        })?;
        let load = fields.parsed("load", smoke.load, LoadClass::parse, |s| {
            format!("unknown load {s:?} (sensor|radio|motor)")
        })?;

        let request = Self {
            nodes,
            seed: fields.u64("seed", DEFAULT_SEED)?,
            days,
            epoch_days,
            latitude_deg: fields.f64("latitude", smoke.latitude_deg)?,
            climate,
            load,
            tracker: fields.tracker(smoke.tracker)?,
            engine: fields.engine(smoke.engine)?,
            drift: fields.bool("drift", true)?,
            fault_probability: fields.f64("fault_probability", smoke.faults.probability)?,
            dt_s: fields.dt_s(smoke.dt.value())?,
            shard_size: fields.shard_size()?,
        };
        // Validate through the campaign layer's own rules (epoch fit,
        // dt-divides-day, latitude, fault probability), surfaced as a
        // client error naming the field.
        request
            .to_spec()
            .validate()
            .map_err(|e| bad(e.to_string()))?;
        Ok(request)
    }

    /// The canonical JSON rendering: every field explicit, keys sorted,
    /// the op pinned to `"campaign"`.
    pub fn canonical_json(&self) -> String {
        Json::Obj(vec![
            (
                "climate".to_owned(),
                Json::Str(self.climate.label().to_owned()),
            ),
            ("days".to_owned(), Json::Num(f64::from(self.days))),
            ("drift".to_owned(), Json::Bool(self.drift)),
            ("dt_s".to_owned(), Json::Num(self.dt_s)),
            (
                "engine".to_owned(),
                Json::Str(self.engine.label().to_owned()),
            ),
            (
                "epoch_days".to_owned(),
                Json::Num(f64::from(self.epoch_days)),
            ),
            (
                "fault_probability".to_owned(),
                Json::Num(self.fault_probability),
            ),
            ("latitude".to_owned(), Json::Num(self.latitude_deg)),
            ("load".to_owned(), Json::Str(self.load.label().to_owned())),
            ("nodes".to_owned(), Json::Num(f64::from(self.nodes))),
            ("op".to_owned(), Json::Str("campaign".to_owned())),
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            ("shard_size".to_owned(), Json::Num(self.shard_size as f64)),
            (
                "tracker".to_owned(),
                Json::Str(self.tracker.label().to_owned()),
            ),
        ])
        .to_canonical_string()
    }

    /// The response-cache key.
    pub fn hash(&self) -> u64 {
        fnv1a(self.canonical_json().as_bytes())
    }

    /// Materializes the campaign spec this request describes (validated
    /// separately — see [`CampaignRequest::from_json`]).
    pub fn to_spec(&self) -> CampaignSpec {
        let mut spec = CampaignSpec::reference(self.nodes, self.seed);
        spec.name = format!(
            "campaign x{} {}d {}",
            self.nodes,
            self.days,
            self.climate.label()
        );
        spec.days = self.days;
        spec.epoch_days = self.epoch_days;
        spec.latitude_deg = self.latitude_deg;
        spec.climate = self.climate;
        spec.load = self.load;
        spec.drift = if self.drift {
            DriftRates::reference()
        } else {
            DriftRates::none()
        };
        spec.faults = FaultPlan {
            probability: self.fault_probability,
        };
        spec.tracker = self.tracker;
        spec.engine = self.engine;
        spec.dt = Seconds::new(self.dt_s);
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(op: Op, body: &str) -> Result<WhatIfRequest, ServeError> {
        WhatIfRequest::from_json(op, &Json::parse(body).unwrap(), 10_000)
    }

    #[test]
    fn defaults_fill_an_empty_body() {
        let r = parse(Op::WhatIf, "{}").unwrap();
        assert_eq!(r.nodes, 100);
        assert_eq!(r.seed, 2011);
        assert_eq!(r.tracker, TrackerKind::Focv);
        assert_eq!(r.engine, Engine::Vectorized);
        assert_eq!(r.tolerances, TolerancePreset::Production);
        assert!(r.pv_cache);
        assert!(!r.obs);
        assert_eq!(r.shard_size, 32);
    }

    #[test]
    fn explicit_defaults_hash_like_omitted_defaults() {
        let omitted = parse(Op::WhatIf, "{}").unwrap();
        let spelled = parse(
            Op::WhatIf,
            r#"{"nodes":100,"seed":2011,"tracker":"focv","engine":"vectorized",
                "tolerances":"production","dt_s":6e2,"trace_decimate":600,
                "pv_cache":true,"obs":false,"shard_size":32,
                "placements":{"window":0.25,"interior":0.6,"outdoor":0.15}}"#,
        )
        .unwrap();
        assert_eq!(omitted, spelled);
        assert_eq!(omitted.hash(), spelled.hash());
        assert_eq!(omitted.canonical_json(), spelled.canonical_json());
    }

    #[test]
    fn default_engine_is_vectorized_in_the_canonical_json() {
        let r = parse(Op::WhatIf, "{}").unwrap();
        assert!(
            r.canonical_json().contains(r#""engine":"vectorized""#),
            "{}",
            r.canonical_json()
        );
        let c = parse_campaign("{}").unwrap();
        assert_eq!(c.engine, Engine::Vectorized);
        assert!(c.canonical_json().contains(r#""engine":"vectorized""#));
    }

    #[test]
    fn the_removed_batch_engine_is_a_400_naming_the_known_engines() {
        for body in [r#"{"engine":"batch"}"#, r#"{"engine":"batched"}"#] {
            let err = parse(Op::WhatIf, body).unwrap_err();
            assert_eq!(err.status(), 400);
            let msg = err.to_string();
            assert!(
                msg.contains("per-node") && msg.contains("vectorized"),
                "{msg}"
            );
            let err = parse_campaign(body).unwrap_err();
            assert_eq!(err.status(), 400);
            assert!(err.to_string().contains("per-node, vectorized"));
        }
    }

    #[test]
    fn op_tracker_engine_and_shard_size_separate_hashes() {
        let base = parse(Op::WhatIf, "{}").unwrap();
        assert_ne!(base.hash(), parse(Op::Compare, "{}").unwrap().hash());
        assert_ne!(
            base.hash(),
            parse(Op::WhatIf, r#"{"tracker":"oracle"}"#).unwrap().hash()
        );
        assert_ne!(
            base.hash(),
            parse(Op::WhatIf, r#"{"engine":"per-node"}"#)
                .unwrap()
                .hash()
        );
        assert_ne!(
            base.hash(),
            parse(Op::WhatIf, r#"{"shard_size":16}"#).unwrap().hash()
        );
    }

    #[test]
    fn rejects_unknown_fields_and_bad_values() {
        assert!(parse(Op::WhatIf, r#"{"nodez":5}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"nodes":0}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"nodes":10001}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"tracker":"warp"}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"engine":"gpu"}"#).is_err());
        assert!(parse_campaign(r#"{"engine":"gpu"}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"tolerances":"loose"}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"dt_s":0}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"dt_s":"fast"}"#).is_err());
        // A step finer than any tracker's control period is refused
        // before it can hold a worker for ~10^17 slices.
        for op in [Op::WhatIf, Op::Compare, Op::Stream] {
            for body in [r#"{"dt_s":1e-12}"#, r#"{"dt_s":0.05}"#] {
                let err = parse(op, body).unwrap_err();
                assert_eq!(err.status(), 400, "{err}");
                assert!(err.to_string().contains("dt_s"), "{err}");
            }
            assert!(parse(op, r#"{"dt_s":0.1}"#).is_ok());
        }
        for factor in [0, 7, 50_000, 86_401] {
            let body = format!(r#"{{"trace_decimate":{factor}}}"#);
            let err = parse(Op::WhatIf, &body).unwrap_err();
            assert_eq!(err.status(), 400, "{err}");
            assert!(err.to_string().contains("trace_decimate"), "{err}");
        }
        assert!(parse(Op::WhatIf, r#"{"trace_decimate":86400}"#).is_ok());
        assert!(parse(Op::WhatIf, r#"{"shard_size":0}"#).is_err());
        assert!(parse(Op::WhatIf, r#"{"placements":{"roof":1}}"#).is_err());
        assert!(parse(
            Op::WhatIf,
            r#"{"placements":{"window":0,"interior":0,"outdoor":0}}"#
        )
        .is_err());
        // Finite weights whose sum overflows used to put every node
        // outdoors.
        let err = parse(
            Op::WhatIf,
            r#"{"placements":{"window":1e308,"interior":1e308}}"#,
        )
        .unwrap_err();
        assert_eq!(err.status(), 400, "{err}");
        assert!(err.to_string().contains("placement_weight_sum"), "{err}");
        assert!(parse(Op::WhatIf, "[]").is_err());
    }

    #[test]
    fn a_seed_the_f64_cannot_hold_is_a_400_for_both_request_kinds() {
        // 2^53 - 1 is the largest seed an f64 holds exactly; 2^53 + 1
        // parses to 2^53, and 2^53 may itself be such a rounding.
        for seed in ["9007199254740992", "9007199254740993", "1e16"] {
            let body = format!(r#"{{"seed":{seed}}}"#);
            let whatif = parse(Op::WhatIf, &body).unwrap_err();
            for err in [whatif, parse_campaign(&body).unwrap_err()] {
                assert_eq!(err.status(), 400, "{err}");
                let msg = err.to_string();
                assert!(msg.contains("seed must be a non-negative integer"), "{msg}");
            }
        }
        let max = r#"{"seed":9007199254740991}"#;
        assert_eq!(parse(Op::WhatIf, max).unwrap().seed, (1 << 53) - 1);
        assert_eq!(parse_campaign(max).unwrap().seed, (1 << 53) - 1);
    }

    #[test]
    fn to_spec_matches_the_request() {
        let r = parse(Op::WhatIf, r#"{"nodes":24,"seed":9,"tolerances":"none"}"#).unwrap();
        let spec = r.to_spec().unwrap();
        assert_eq!(spec.nodes, 24);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.tolerances, Tolerances::none());
        assert_eq!(spec.dt.value(), 600.0);
        assert!(spec.validate().is_ok());
    }

    fn parse_campaign(body: &str) -> Result<CampaignRequest, ServeError> {
        CampaignRequest::from_json(&Json::parse(body).unwrap(), 10_000)
    }

    #[test]
    fn campaign_defaults_fill_an_empty_body() {
        let r = parse_campaign("{}").unwrap();
        assert_eq!(r.nodes, 48);
        assert_eq!(r.seed, 2011);
        assert_eq!(r.days, 91);
        assert_eq!(r.epoch_days, 13);
        assert_eq!(r.climate, Climate::Temperate);
        assert_eq!(r.load, LoadClass::DutyCycledRadio);
        assert!(r.drift);
        assert_eq!(r.fault_probability, 0.15);
        assert_eq!(r.shard_size, 32);
        assert!(r.to_spec().validate().is_ok());
    }

    #[test]
    fn campaign_explicit_defaults_hash_like_omitted_defaults() {
        let omitted = parse_campaign("{}").unwrap();
        let spelled = parse_campaign(
            r#"{"nodes":48,"seed":2011,"days":91,"epoch_days":13,"latitude":52,
                "climate":"temperate","load":"radio","tracker":"focv","engine":"vectorized",
                "drift":true,"fault_probability":0.15,"dt_s":600,"shard_size":32}"#,
        )
        .unwrap();
        assert_eq!(omitted, spelled);
        assert_eq!(omitted.hash(), spelled.hash());
    }

    #[test]
    fn campaign_hash_never_collides_with_whatif() {
        // Same knobs where they overlap; the op member keeps the keys
        // disjoint.
        let campaign = parse_campaign(r#"{"nodes":100}"#).unwrap();
        let whatif = parse(Op::WhatIf, r#"{"nodes":100}"#).unwrap();
        assert_ne!(campaign.hash(), whatif.hash());
        assert!(campaign.canonical_json().contains("\"op\":\"campaign\""));
    }

    #[test]
    fn campaign_rejects_unknown_fields_and_bad_values() {
        assert!(parse_campaign(r#"{"dayz":5}"#).is_err());
        assert!(parse_campaign(r#"{"nodes":0}"#).is_err());
        assert!(parse_campaign(r#"{"days":0}"#).is_err());
        assert!(parse_campaign(r#"{"days":4000}"#).is_err());
        assert!(parse_campaign(r#"{"epoch_days":0}"#).is_err());
        assert!(parse_campaign(r#"{"epoch_days":92}"#).is_err());
        assert!(parse_campaign(r#"{"climate":"hurricane"}"#).is_err());
        assert!(parse_campaign(r#"{"load":"toaster"}"#).is_err());
        assert!(parse_campaign(r#"{"latitude":80}"#).is_err());
        assert!(parse_campaign(r#"{"fault_probability":1.5}"#).is_err());
        assert!(
            parse_campaign(r#"{"dt_s":7}"#).is_err(),
            "dt must divide the day"
        );
        for body in [r#"{"dt_s":1e-12}"#, r#"{"dt_s":0.05}"#] {
            let err = parse_campaign(body).unwrap_err();
            assert_eq!(err.status(), 400, "{err}");
            assert!(err.to_string().contains("dt_s"), "{err}");
        }
        assert!(parse_campaign(r#"{"shard_size":0}"#).is_err());
        assert!(parse_campaign("[]").is_err());
        // An epoch past u32 is refused with the value the client sent.
        let err = parse_campaign(r#"{"epoch_days":5000000000}"#).unwrap_err();
        assert_eq!(err.status(), 400, "{err}");
        assert!(err.to_string().contains("5000000000"), "{err}");
    }

    #[test]
    fn campaign_to_spec_carries_every_field() {
        let r = parse_campaign(
            r#"{"nodes":20,"seed":7,"days":30,"epoch_days":10,"latitude":15,
                "climate":"monsoon","load":"motor","drift":false,
                "fault_probability":0,"dt_s":1800}"#,
        )
        .unwrap();
        let spec = r.to_spec();
        assert_eq!(spec.nodes, 20);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.days, 30);
        assert_eq!(spec.epoch_days, 10);
        assert_eq!(spec.climate, Climate::MonsoonSeason);
        assert_eq!(spec.load, LoadClass::IntermittentMotor);
        assert_eq!(spec.drift, DriftRates::none());
        assert_eq!(spec.faults.probability, 0.0);
        assert_eq!(spec.dt.value(), 1800.0);
        assert!(spec.validate().is_ok());
    }
}
