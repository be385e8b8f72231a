//! The compute side of the service: the three fleet operations, the
//! campaign operation, and deterministic response rendering.
//!
//! A [`ComputeEngine`] owns the sized [`FleetRunner`] and the
//! [`SpillStore`] for streamed what-ifs. Each computation prepares
//! its own [`FleetContext`] (`/compare` prepares once for all eleven
//! trackers) and drops it when its response is rendered; the warmed PV
//! surface tables behind it are shared process-wide by
//! [`eh_pv::registry`], so a prepare builds none the process already
//! has. Repeated requests are the response cache's to answer, upstream
//! in the server. Responses are rendered through
//! [`Json::to_canonical_string`], so a recomputed response is always
//! byte-identical to its first rendering — the property the response
//! cache's correctness tests pin down.

use std::sync::Arc;

use eh_campaign::{CampaignReport, CampaignRunner};
use eh_fleet::{FleetContext, FleetReport, FleetRunner, Percentiles, Placement, TrackerKind};
use eh_sim::Mergeable as _;
use eh_units::Error;

use crate::checkpoint::{SpillStore, OBS_REFUSAL};
use crate::error::ServeError;
use crate::hash::hex;
use crate::json::Json;
use crate::metrics::{names, ServiceMetrics};
use crate::request::{CampaignRequest, WhatIfRequest};

/// Builds an object from `(&str, Json)` pairs.
fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn pct_json(p: Option<Percentiles>) -> Json {
    match p {
        None => Json::Null,
        Some(p) => obj(vec![
            ("p5", Json::Num(p.p5)),
            ("p50", Json::Num(p.p50)),
            ("p95", Json::Num(p.p95)),
        ]),
    }
}

/// Runs validated requests against the fleet layer.
#[derive(Debug)]
pub struct ComputeEngine {
    runner: FleetRunner,
    sim_workers: usize,
    spill: SpillStore,
    metrics: Arc<ServiceMetrics>,
}

impl ComputeEngine {
    /// An engine with `sim_workers` simulation threads and spills under
    /// `spill_dir`.
    pub fn new(
        sim_workers: usize,
        spill_dir: impl Into<std::path::PathBuf>,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        Self {
            runner: FleetRunner::new(sim_workers),
            sim_workers,
            spill: SpillStore::new(spill_dir),
            metrics,
        }
    }

    /// Prepares the fleet a request describes, counted in
    /// [`names::CONTEXT_MISSES`].
    fn context(&self, req: &WhatIfRequest) -> Result<FleetContext, ServeError> {
        let ctx = FleetContext::prepare(&req.to_spec()?)?;
        self.metrics.incr(names::CONTEXT_MISSES);
        Ok(ctx)
    }

    fn account(&self, report: &FleetReport) {
        self.metrics.add(names::SIM_NODES, report.nodes() as u64);
        if let Some(m) = report.metrics.clone() {
            self.metrics.absorb(m);
        }
    }

    /// One tracker over one fleet → the rendered response body.
    ///
    /// # Errors
    ///
    /// Propagates spec preparation and simulation failures.
    pub fn whatif(&self, req: &WhatIfRequest) -> Result<String, ServeError> {
        let ctx = self.context(req)?;
        let report = self
            .runner
            .with_shard_size(req.shard_size)
            .run_engine_prepared(&ctx, req.tracker, req.engine)?;
        self.account(&report);
        Ok(self.envelope(req, vec![("report", Self::summary(&report))]))
    }

    /// Every tracker over one fleet → the rendered response body, one
    /// summary per kind in [`TrackerKind::ALL`] order.
    ///
    /// # Errors
    ///
    /// As [`ComputeEngine::whatif`].
    pub fn compare(&self, req: &WhatIfRequest) -> Result<String, ServeError> {
        let ctx = self.context(req)?;
        let runner = self.runner.with_shard_size(req.shard_size);
        let mut trackers = Vec::with_capacity(TrackerKind::ALL.len());
        for kind in TrackerKind::ALL {
            let report = runner.run_engine_prepared(&ctx, kind, req.engine)?;
            self.account(&report);
            trackers.push(Self::summary(&report));
        }
        Ok(self.envelope(req, vec![("trackers", Json::Arr(trackers))]))
    }

    /// One tracker over one fleet, folded shard by shard: `emit` is
    /// called with one JSON line per completed shard (a running
    /// snapshot) and finally with the full response body. Completed
    /// shards spill to the checkpoint store as they finish, and a
    /// restarted request with the same hash reloads them
    /// instead of recomputing; the spill directory is cleared after
    /// the final line is emitted.
    ///
    /// The shard fold reproduces [`FleetRunner`]'s merged report bit
    /// for bit at equal shard grouping (see
    /// [`FleetContext::simulate_shard`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] for obs-carrying requests (metric
    /// stores have no spill encoding); otherwise as
    /// [`ComputeEngine::whatif`], plus whatever `emit` raises.
    pub fn stream(
        &self,
        req: &WhatIfRequest,
        emit: &mut dyn FnMut(&str) -> Result<(), ServeError>,
    ) -> Result<(), ServeError> {
        if req.obs {
            return Err(ServeError::Unsupported(OBS_REFUSAL));
        }
        let ctx = self.context(req)?;
        let request_hex = hex(req.hash());
        let population = ctx.population().to_vec();
        let shard_count = population.len().div_ceil(req.shard_size);
        let mut merged: Option<FleetReport> = None;
        for (idx, shard) in population.chunks(req.shard_size).enumerate() {
            let shard_report = match self.spill.load_shard(&request_hex, idx)? {
                Some(report) => {
                    self.metrics.incr(names::CHECKPOINT_LOADED);
                    report
                }
                None => {
                    let report = ctx.simulate_shard(req.tracker, req.engine, shard.to_vec())?;
                    self.account(&report);
                    self.spill.save_shard(&request_hex, idx, &report)?;
                    self.metrics.incr(names::CHECKPOINT_SAVED);
                    report
                }
            };
            match merged.as_mut() {
                None => merged = Some(shard_report),
                Some(m) => m.merge(shard_report),
            }
            let running = merged.as_ref().expect("just merged");
            let snapshot = obj(vec![
                ("shards_done", Json::Num((idx + 1) as f64)),
                ("shards", Json::Num(shard_count as f64)),
                ("nodes_done", Json::Num(running.nodes() as f64)),
                ("net_j", pct_json(running.net_energy_percentiles())),
            ]);
            emit(&snapshot.to_canonical_string())?;
        }
        let report = merged.ok_or(Error::EmptyFleet)?.with_fleet_counters();
        emit(&self.envelope(req, vec![("report", Self::summary(&report))]))?;
        self.spill.clear(&request_hex);
        Ok(())
    }

    /// One endurance campaign → the rendered response body. Campaigns
    /// prepare their own per-epoch contexts (epoch traces depend on the
    /// campaign calendar); the response cache still applies upstream.
    ///
    /// # Errors
    ///
    /// Propagates campaign preparation and simulation failures.
    pub fn campaign(&self, req: &CampaignRequest) -> Result<String, ServeError> {
        let spec = req.to_spec();
        let report = CampaignRunner::new(self.sim_workers)
            .with_shard_size(req.shard_size)
            .run(&spec)?;
        self.metrics.add(names::SIM_NODES, report.nodes() as u64);
        self.metrics.with(|m| report.record_into(m));
        Ok(Self::render_envelope(
            &req.canonical_json(),
            req.hash(),
            vec![("report", Self::campaign_summary(&report))],
        ))
    }

    /// Wraps payload members with the canonical request echo and its
    /// hash, rendered canonically (deterministic bytes).
    fn envelope(&self, req: &WhatIfRequest, payload: Vec<(&str, Json)>) -> String {
        Self::render_envelope(&req.canonical_json(), req.hash(), payload)
    }

    fn render_envelope(canonical: &str, hash: u64, payload: Vec<(&str, Json)>) -> String {
        let request = Json::parse(canonical).expect("canonical request rendering is valid JSON");
        let mut members = vec![("request", request), ("request_hash", Json::Str(hex(hash)))];
        members.extend(payload);
        obj(members).to_canonical_string()
    }

    /// One campaign's summary object: identity, survival counts,
    /// survival/time-to-first-brownout/net-energy percentiles, and the
    /// per-placement survivor breakdown.
    fn campaign_summary(report: &CampaignReport) -> Json {
        let by_placement = Placement::ALL
            .into_iter()
            .map(|p| {
                (
                    p.label().to_owned(),
                    Json::Num(report.survivors_at(p) as f64),
                )
            })
            .collect();
        obj(vec![
            ("name", Json::Str(report.name.clone())),
            ("nodes", Json::Num(report.nodes() as f64)),
            ("days", Json::Num(f64::from(report.days))),
            ("survivors", Json::Num(report.survivors() as f64)),
            ("browned_out", Json::Num(report.browned_out() as f64)),
            ("faulted", Json::Num(report.faulted() as f64)),
            ("survival_days", pct_json(report.survival_percentiles())),
            (
                "time_to_first_brownout_days",
                pct_json(report.time_to_first_brownout_percentiles()),
            ),
            ("net_j", pct_json(report.net_energy_percentiles())),
            ("survivors_by_placement", Json::Obj(by_placement)),
        ])
    }

    /// One report's summary object: identity, percentiles, population
    /// counts, the worst-node drill-down, and the merged metric store
    /// when the request enabled obs.
    fn summary(report: &FleetReport) -> Json {
        let worst = match report.worst_node() {
            None => Json::Null,
            Some(w) => obj(vec![
                ("id", Json::Num(f64::from(w.id))),
                ("placement", Json::Str(w.placement.label().to_owned())),
                ("net_j", Json::Num(w.net_energy().value())),
                ("uptime", Json::Num(w.report.uptime().value())),
                ("cold_start_ok", Json::Bool(w.cold_start_ok)),
            ]),
        };
        let mut members = vec![
            ("name", Json::Str(report.name.clone())),
            ("tracker", Json::Str(report.tracker.clone())),
            ("nodes", Json::Num(report.nodes() as f64)),
            ("net_j", pct_json(report.net_energy_percentiles())),
            ("gross_j", pct_json(report.gross_energy_percentiles())),
            ("overhead_j", pct_json(report.overhead_percentiles())),
            ("compute_j", pct_json(report.compute_energy_percentiles())),
            ("brown_outs", Json::Num(report.brown_out_count() as f64)),
            (
                "cold_start_failures",
                Json::Num(report.cold_start_failures() as f64),
            ),
            (
                "net_negative",
                Json::Num(report.net_negative_count() as f64),
            ),
            ("worst_node", worst),
        ];
        if let Some(m) = report.metrics.as_ref() {
            members.push((
                "metrics",
                Json::parse(&m.to_json()).expect("obs exporter emits valid JSON"),
            ));
        }
        obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Op;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir() -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eh-serve-engine-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine() -> (ComputeEngine, Arc<ServiceMetrics>, PathBuf) {
        let metrics = Arc::new(ServiceMetrics::new());
        let dir = scratch_dir();
        (
            ComputeEngine::new(2, &dir, Arc::clone(&metrics)),
            metrics,
            dir,
        )
    }

    fn request(op: Op, body: &str) -> WhatIfRequest {
        WhatIfRequest::from_json(op, &Json::parse(body).unwrap(), 10_000).unwrap()
    }

    #[test]
    fn whatif_is_deterministic_and_prepares_each_computation() {
        let (engine, metrics, dir) = engine();
        let req = request(Op::WhatIf, r#"{"nodes":12}"#);
        let first = engine.whatif(&req).unwrap();
        let second = engine.whatif(&req).unwrap();
        assert_eq!(first, second, "recompute must be byte-identical");
        assert_eq!(metrics.counter(names::CONTEXT_MISSES), 2);
        assert_eq!(metrics.counter(names::SIM_NODES), 24);
        let parsed = Json::parse(&first).unwrap();
        assert_eq!(
            parsed.get("request_hash").and_then(Json::as_str),
            Some(hex(req.hash()).as_str())
        );
        assert!(parsed.get("report").unwrap().get("net_j").is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compare_covers_every_tracker() {
        let (engine, _metrics, dir) = engine();
        let body = engine
            .compare(&request(Op::Compare, r#"{"nodes":6}"#))
            .unwrap();
        let parsed = Json::parse(&body).unwrap();
        let trackers = match parsed.get("trackers").unwrap() {
            Json::Arr(items) => items,
            other => panic!("trackers must be an array, got {other:?}"),
        };
        assert_eq!(trackers.len(), TrackerKind::ALL.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stream_final_report_matches_whatif() {
        let (engine, _metrics, dir) = engine();
        // Same fleet through both paths; only the op differs.
        let stream_req = request(Op::Stream, r#"{"nodes":12,"shard_size":5}"#);
        let whatif_req = request(Op::WhatIf, r#"{"nodes":12,"shard_size":5}"#);
        let mut lines = Vec::new();
        engine
            .stream(&stream_req, &mut |line| {
                lines.push(line.to_owned());
                Ok(())
            })
            .unwrap();
        assert_eq!(lines.len(), 4, "3 shard snapshots + final body");
        let final_report = Json::parse(lines.last().unwrap())
            .unwrap()
            .get("report")
            .unwrap()
            .to_canonical_string();
        let whatif_report = Json::parse(&engine.whatif(&whatif_req).unwrap())
            .unwrap()
            .get("report")
            .unwrap()
            .to_canonical_string();
        assert_eq!(
            final_report, whatif_report,
            "shard fold must reproduce the runner bit for bit"
        );
        // Snapshots carry running progress.
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("shards_done").and_then(Json::as_u64), Some(1));
        assert_eq!(first.get("shards").and_then(Json::as_u64), Some(3));
        assert_eq!(first.get("nodes_done").and_then(Json::as_u64), Some(5));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interrupted_stream_resumes_from_checkpoints_bit_identically() {
        let (engine, metrics, dir) = engine();
        let req = request(Op::Stream, r#"{"nodes":12,"shard_size":4}"#);

        // Die after the second shard, as an abandoned request would.
        let mut emitted = 0;
        let died = engine.stream(&req, &mut |_line| {
            emitted += 1;
            if emitted == 2 {
                Err(ServeError::Io("client went away".into()))
            } else {
                Ok(())
            }
        });
        assert!(died.is_err());
        assert_eq!(metrics.counter(names::CHECKPOINT_SAVED), 2);

        // The restarted request reloads the finished shards...
        let mut lines = Vec::new();
        engine
            .stream(&req, &mut |line| {
                lines.push(line.to_owned());
                Ok(())
            })
            .unwrap();
        assert_eq!(metrics.counter(names::CHECKPOINT_LOADED), 2);
        assert_eq!(metrics.counter(names::CHECKPOINT_SAVED), 3);

        // ...and the resumed result is byte-identical to a fresh run.
        let (fresh_engine, _m, fresh_dir) = tests_fresh();
        let mut fresh = Vec::new();
        fresh_engine
            .stream(&req, &mut |line| {
                fresh.push(line.to_owned());
                Ok(())
            })
            .unwrap();
        assert_eq!(lines, fresh, "resume must not change a single byte");

        // The completed request cleared its spill directory.
        assert!(!engine.spill.request_dir(&hex(req.hash())).exists());
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(fresh_dir);
    }

    fn tests_fresh() -> (ComputeEngine, Arc<ServiceMetrics>, PathBuf) {
        engine()
    }

    #[test]
    fn campaign_is_deterministic_and_renders_survival() {
        let (engine, metrics, dir) = engine();
        let req = CampaignRequest::from_json(
            &Json::parse(r#"{"nodes":4,"days":6,"epoch_days":3,"dt_s":3600}"#).unwrap(),
            10_000,
        )
        .unwrap();
        let first = engine.campaign(&req).unwrap();
        let second = engine.campaign(&req).unwrap();
        assert_eq!(first, second, "recompute must be byte-identical");
        let parsed = Json::parse(&first).unwrap();
        assert_eq!(
            parsed.get("request_hash").and_then(Json::as_str),
            Some(hex(req.hash()).as_str())
        );
        let report = parsed.get("report").unwrap();
        assert_eq!(report.get("nodes").and_then(Json::as_u64), Some(4));
        assert_eq!(report.get("days").and_then(Json::as_u64), Some(6));
        assert!(report.get("survival_days").is_some());
        assert!(report.get("survivors_by_placement").is_some());
        assert_eq!(metrics.counter("campaign.nodes"), 8, "both runs recorded");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn obs_streams_are_refused() {
        let (engine, _metrics, dir) = engine();
        let req = request(Op::Stream, r#"{"nodes":4,"obs":true}"#);
        let err = engine.stream(&req, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, ServeError::Unsupported(_)), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn obs_whatif_folds_the_ledger_into_service_metrics() {
        let (engine, metrics, dir) = engine();
        let body = engine
            .whatif(&request(Op::WhatIf, r#"{"nodes":4,"obs":true}"#))
            .unwrap();
        let parsed = Json::parse(&body).unwrap();
        assert!(
            parsed.get("report").unwrap().get("metrics").is_some(),
            "obs request must echo its merged metric store"
        );
        let rendered = metrics.render();
        assert!(rendered.contains("\"fleet.nodes\":4"), "{rendered}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
