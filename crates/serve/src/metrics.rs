//! Live service metrics, backed by the workspace's `eh-obs` store.
//!
//! One shared [`ServiceMetrics`] instance counts HTTP traffic, cache
//! outcomes, single-flight coalescing and checkpoint activity, and
//! absorbs the **simulated** energy ledgers of obs-enabled requests, so
//! `/metrics` exposes both service health and the cumulative simulated
//! energy the service has accounted. Everything rides in an
//! [`eh_obs::Metrics`] behind a mutex; the exported document inherits
//! its deterministic key order. Each render also reads the process-wide
//! PV surface registry's counters ([`eh_pv::registry::stats`]) at
//! request time, under `pv.surface_registry.*`.

use std::sync::Mutex;

use eh_obs::Metrics;

/// Counter names the service increments (exposed for tests and docs).
pub mod names {
    /// Accepted connections.
    pub const HTTP_CONNECTIONS: &str = "serve.http.connections";
    /// Requests answered with 2xx.
    pub const HTTP_OK: &str = "serve.http.ok";
    /// Requests answered with 4xx.
    pub const HTTP_CLIENT_ERROR: &str = "serve.http.client_error";
    /// Requests answered with 408 because their read outlasted
    /// [`crate::http::REQUEST_DEADLINE`] (also counted as client
    /// errors). The counter appears with its first expiry.
    pub const HTTP_DEADLINE_EXPIRED: &str = "serve.http.deadline_expired";
    /// Requests answered with 5xx (including 503 sheds).
    pub const HTTP_SERVER_ERROR: &str = "serve.http.server_error";
    /// Connections shed with 503 because the queue was full.
    pub const HTTP_SHED: &str = "serve.http.shed";
    /// Response-cache hits.
    pub const CACHE_HITS: &str = "serve.cache.hits";
    /// Response-cache misses.
    pub const CACHE_MISSES: &str = "serve.cache.misses";
    /// Response-cache evictions.
    pub const CACHE_EVICTIONS: &str = "serve.cache.evictions";
    /// Fleets prepared (a population stamped and its light traces
    /// synthesized), one per `/whatif`, `/compare` or `/whatif/stream`
    /// computation. The string keeps its context-cache name because the
    /// benchmark reads it as `serve.context_misses`.
    pub const CONTEXT_MISSES: &str = "serve.context_cache.misses";
    /// Requests that led a single-flight computation.
    pub const SF_LEADER: &str = "serve.singleflight.leader";
    /// Requests coalesced onto another caller's computation.
    pub const SF_COALESCED: &str = "serve.singleflight.coalesced";
    /// Shard checkpoints written to the spill directory.
    pub const CHECKPOINT_SAVED: &str = "serve.checkpoint.shards_saved";
    /// Shard checkpoints resumed from the spill directory.
    pub const CHECKPOINT_LOADED: &str = "serve.checkpoint.shards_loaded";
    /// Nodes simulated on behalf of requests (cache misses only).
    pub const SIM_NODES: &str = "serve.sim.nodes";
    /// Current connection-queue depth gauge.
    pub const QUEUE_DEPTH: &str = "serve.queue.depth";
    /// PV surface tables the process built (process-wide).
    pub const REGISTRY_BUILDS: &str = "pv.surface_registry.builds";
    /// Surface lookups the process answered with a built table.
    pub const REGISTRY_HITS: &str = "pv.surface_registry.hits";
    /// Surface tables the process evicted to stay within capacity.
    pub const REGISTRY_EVICTIONS: &str = "pv.surface_registry.evictions";
    /// Surface tables the process holds now (gauge).
    pub const REGISTRY_ENTRIES: &str = "pv.surface_registry.entries";
    /// How many surface tables the process keeps (gauge).
    pub const REGISTRY_CAPACITY: &str = "pv.surface_registry.capacity";
}

/// The service-wide shared metric store.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    inner: Mutex<Metrics>,
}

impl ServiceMetrics {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps a counter by `delta`.
    pub fn add(&self, name: &'static str, delta: u64) {
        self.lock().add_counter(name, delta);
    }

    /// Bumps a counter by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets a gauge.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.lock().set_gauge(name, value);
    }

    /// Classifies a response status into the ok/client/server counters.
    pub fn count_status(&self, status: u16) {
        let name = match status {
            200..=299 => names::HTTP_OK,
            400..=499 => names::HTTP_CLIENT_ERROR,
            _ => names::HTTP_SERVER_ERROR,
        };
        self.incr(name);
    }

    /// Absorbs a request's simulated-energy metrics (ledger, spans,
    /// engine counters) into the service-wide store.
    pub fn absorb(&self, request_metrics: Metrics) {
        self.lock().merge_from(request_metrics);
    }

    /// Runs `f` against the underlying store (for multi-field updates
    /// such as [`eh_campaign::CampaignReport::record_into`]).
    pub fn with<T>(&self, f: impl FnOnce(&mut Metrics) -> T) -> T {
        f(&mut self.lock())
    }

    /// Reads a counter's current value.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counter(name)
    }

    /// Renders the `/metrics` response body: a stable envelope around
    /// the deterministic `eh-obs` JSON export, with the surface
    /// registry's counters as of now. They go into a copy of the store:
    /// they are the process's, not this service's to accumulate.
    pub fn render(&self) -> String {
        let mut m = self.lock().clone();
        let registry = eh_pv::registry::stats();
        m.add_counter(names::REGISTRY_BUILDS, registry.builds);
        m.add_counter(names::REGISTRY_HITS, registry.hits);
        m.add_counter(names::REGISTRY_EVICTIONS, registry.evictions);
        m.set_gauge(names::REGISTRY_ENTRIES, registry.entries as f64);
        m.set_gauge(names::REGISTRY_CAPACITY, registry.capacity as f64);
        format!("{{\"service\":\"eh-serve\",\"metrics\":{}}}", m.to_json())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Metrics> {
        self.inner.lock().expect("metrics lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::Joules;

    #[test]
    fn counts_and_renders() {
        let m = ServiceMetrics::new();
        m.incr(names::HTTP_CONNECTIONS);
        m.add(names::SIM_NODES, 128);
        m.gauge(names::QUEUE_DEPTH, 3.0);
        m.count_status(200);
        m.count_status(404);
        m.count_status(503);
        assert_eq!(m.counter(names::HTTP_OK), 1);
        assert_eq!(m.counter(names::HTTP_CLIENT_ERROR), 1);
        assert_eq!(m.counter(names::HTTP_SERVER_ERROR), 1);
        let body = m.render();
        assert!(body.starts_with("{\"service\":\"eh-serve\",\"metrics\":{"));
        assert!(body.contains("\"serve.sim.nodes\":128"));
        assert!(body.contains("\"serve.queue.depth\":3.0"));
        assert!(body.contains(&format!(
            "\"pv.surface_registry.capacity\":{:?}",
            eh_pv::registry::CAPACITY as f64
        )));
    }

    #[test]
    fn absorbs_request_ledgers() {
        let m = ServiceMetrics::new();
        let mut per_request = Metrics::new();
        per_request.charge(eh_obs::EnergyBucket::Load, Joules::new(2.5));
        m.absorb(per_request);
        assert!(m.render().contains("\"load\":2.5"));
    }
}
