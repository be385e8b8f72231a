//! In-memory spans around the calls the harness makes into each layer,
//! and their self-time attribution.
//!
//! Spans are kept in memory while the traced run measures and written
//! out when it ends. A span's self time is the part of its interval in
//! which none of its children run. Children on parallel threads overlap;
//! wherever several spans are the innermost ones running, they share
//! that wall time equally, so the self times of one operation's spans
//! always sum to its root span's duration.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use eh_serve::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `fleet.shard`.
    pub name: String,
    /// The operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the span that made this call, `None` for an operation root.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

/// Thread-safe in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced call panicked")
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Runs `f` inside a span; `f` receives the span's index so it can
    /// parent the spans of its own calls.
    pub fn span<T>(
        &self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start = self.secs(Instant::now());
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name: name.into(),
                op,
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.secs(Instant::now());
        self.lock()[id].end = end;
        out
    }

    /// Records an interval timed elsewhere (a client's send and reply
    /// instants) and returns its index.
    pub fn interval(
        &self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.secs(start), self.secs(end));
        let mut spans = self.lock();
        spans.push(Span {
            name: name.into(),
            op,
            parent,
            start,
            end: end.max(start),
        });
        spans.len() - 1
    }

    /// The recorded spans, in start order of their calls.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a traced call panicked")
    }
}

/// Self time of every span (see the module docs), in seconds.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out = vec![0.0; spans.len()];
    let mut by_op: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_op.entry(s.op).or_default().push(i);
    }
    for ids in by_op.values() {
        let local: HashMap<usize, usize> = ids.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        let mut edges: Vec<f64> = ids
            .iter()
            .flat_map(|&i| [spans[i].start, spans[i].end])
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        let mut running = vec![false; ids.len()];
        let mut has_running_child = vec![false; ids.len()];
        for w in edges.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            running.fill(false);
            has_running_child.fill(false);
            for (l, &i) in ids.iter().enumerate() {
                if spans[i].start <= t0 && spans[i].end > t0 {
                    running[l] = true;
                    if let Some(p) = spans[i].parent.and_then(|p| local.get(&p)) {
                        has_running_child[*p] = true;
                    }
                }
            }
            let innermost: Vec<usize> = (0..ids.len())
                .filter(|&l| running[l] && !has_running_child[l])
                .collect();
            let share = (t1 - t0) / innermost.len().max(1) as f64;
            for l in innermost {
                out[ids[l]] += share;
            }
        }
    }
    out
}

/// Where a traced run's operation time went, summed over operations.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    /// Operations traced.
    pub ops: usize,
    /// Σ traced end-to-end seconds of those operations.
    pub e2e_s: f64,
    /// Σ self seconds per layer; `harness` is the roots' own time, in
    /// which no layer call ran.
    pub layers: BTreeMap<String, f64>,
    /// Σ seconds of layer time measured directly rather than derived.
    pub attributed_s: f64,
}

impl Breakdown {
    /// The attribution of `spans` whose roots are the operations.
    pub fn from_spans(spans: &[Span], selfs: &[f64]) -> Self {
        let mut b = Self::default();
        for (s, &own) in spans.iter().zip(selfs) {
            if s.parent.is_none() {
                b.ops += 1;
                b.e2e_s += s.end - s.start;
                b.add("harness", own);
            } else {
                b.add(&s.name, own);
                b.attributed_s += own;
            }
        }
        b
    }

    /// Adds `seconds` of self time to `layer`.
    pub fn add(&mut self, layer: &str, seconds: f64) {
        *self.layers.entry(layer.to_owned()).or_default() += seconds;
    }

    /// A layer's share of the end-to-end time (0 when it never ran).
    pub fn share(&self, layer: &str) -> f64 {
        crate::stats::ratio(self.layers.get(layer).copied().unwrap_or(0.0), self.e2e_s)
    }

    /// The directly measured share of the end-to-end time.
    pub fn attributed_frac(&self) -> f64 {
        crate::stats::ratio(self.attributed_s, self.e2e_s)
    }

    /// One line per layer: mean self ms per operation and its share.
    pub fn lines(&self) -> Vec<String> {
        let per_op = |s: f64| 1e3 * s / self.ops.max(1) as f64;
        let mut out = vec![format!(
            "traced: {} ops, {:.3} ms/op end to end, {:.1}% of it measured directly by layer spans",
            self.ops,
            per_op(self.e2e_s),
            100.0 * self.attributed_frac()
        )];
        for (layer, &s) in &self.layers {
            out.push(format!(
                "  self {layer:<34} {:>12.3} ms/op {:>7.2}%",
                per_op(s),
                100.0 * self.share(layer)
            ));
        }
        out
    }
}

/// Writes the spans and their self times as a JSON array.
pub fn write(path: &Path, spans: &[Span], selfs: &[f64]) -> std::io::Result<()> {
    let items = spans
        .iter()
        .zip(selfs)
        .map(|(s, &own)| {
            Json::Obj(vec![
                ("name".to_owned(), Json::Str(s.name.clone())),
                ("op".to_owned(), Json::Num(s.op as f64)),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_s".to_owned(), Json::Num(s.start)),
                ("end_s".to_owned(), Json::Num(s.end)),
                ("self_s".to_owned(), Json::Num(own)),
            ])
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, Json::Arr(items).to_canonical_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, op: u64, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            op,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nested_self_time_excludes_children() {
        // root [0,10) ⊃ a [1,4) ⊃ b [2,3); c [5,9)
        let spans = vec![
            span("root", 0, None, 0.0, 10.0),
            span("a", 0, Some(0), 1.0, 4.0),
            span("b", 0, Some(1), 2.0, 3.0),
            span("c", 0, Some(0), 5.0, 9.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![3.0, 2.0, 1.0, 4.0]);
        let b = Breakdown::from_spans(&spans, &s);
        assert_eq!(b.ops, 1);
        assert_eq!(b.e2e_s, 10.0);
        assert_eq!(b.attributed_s, 7.0);
        assert_eq!(b.layers["harness"], 3.0);
        assert_eq!(b.layers.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn parallel_children_share_wall_time() {
        // Two workers: x [0,4) and y [2,6) under root [0,7), then z [6,7).
        let spans = vec![
            span("root", 3, None, 0.0, 7.0),
            span("x", 3, Some(0), 0.0, 4.0),
            span("y", 3, Some(0), 2.0, 6.0),
            span("z", 3, Some(0), 6.0, 7.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![0.0, 3.0, 3.0, 1.0]);
        assert_eq!(s.iter().sum::<f64>(), 7.0);
    }

    #[test]
    fn operations_are_attributed_independently() {
        // Two overlapping operations (requests from two clients) each
        // keep their own full duration.
        let spans = vec![
            span("req", 1, None, 0.0, 4.0),
            span("serve.hit", 1, Some(0), 1.0, 4.0),
            span("req", 2, None, 2.0, 5.0),
            span("serve.hit", 2, Some(2), 2.0, 5.0),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![1.0, 3.0, 0.0, 3.0]);
        let b = Breakdown::from_spans(&spans, &s);
        assert_eq!(b.e2e_s, 7.0);
        assert!((b.share("serve.hit") - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!(b.share("fleet.shard"), 0.0);
    }

    #[test]
    fn tracer_records_nesting() {
        let t = Tracer::new();
        let v = t.span("root", 5, None, |root| {
            t.span("child", 5, Some(root), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            7
        });
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end - spans[1].start >= 0.002);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
