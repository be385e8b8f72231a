//! Checkpoint/resume for endurance campaigns.
//!
//! The streaming endpoint folds a fleet shard by shard; a long
//! campaign that dies mid-run should not re-pay the shards it already
//! finished. Each completed shard's [`FleetReport`] is spilled to disk
//! under the request's canonical hash, and a restarted campaign for
//! the same request reloads those shards instead of recomputing them.
//! Because the fleet pipeline is deterministic, a reloaded shard is
//! **bit-identical** to a recomputed one — resume changes cost, never
//! answers — provided the serialization round-trips `f64`s exactly,
//! which is why every float is stored as the hex of its IEEE-754 bit
//! pattern rather than a decimal rendering.
//!
//! Obs-carrying campaigns (`"obs": true`) are not checkpointable: a
//! metric store's histograms and spans have no spill encoding here, so
//! saving one is refused rather than silently dropped.

use std::io::Write as _;
use std::path::PathBuf;

use eh_fleet::{FleetReport, NodeOutcome, Placement};
use eh_node::NodeReport;
use eh_units::{Joules, Seconds};

use crate::error::ServeError;

/// How every spill's header line starts: the format name, then the
/// version after the `v`.
const MAGIC_NAME: &str = "eh-serve shard checkpoint v";

/// The checkpoint version, bumped whenever the node stepper's output
/// bits change, since spills are keyed by the request hash alone. A
/// spill written under another version holds shards stepped the old
/// way, so a resume treats it as absent: the shard is recomputed and
/// its spill overwritten.
const MAGIC: &str = "eh-serve shard checkpoint v2";

/// A directory of spilled shard checkpoints, one subdirectory per
/// request hash.
#[derive(Debug, Clone)]
pub struct SpillStore {
    root: PathBuf,
}

fn corrupt(message: impl Into<String>) -> ServeError {
    ServeError::Checkpoint(message.into())
}

/// Encodes an `f64` as the 16-hex-digit form of its bit pattern —
/// exact for every value, including negative zero and subnormals.
fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Result<f64, ServeError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| corrupt(format!("bad f64 bits {s:?}")))
}

/// Encodes a string as lowercase hex of its UTF-8 bytes, so names with
/// spaces or newlines never break the line-oriented format.
fn str_hex(s: &str) -> String {
    s.bytes().fold(String::new(), |mut out, b| {
        out.push_str(&format!("{b:02x}"));
        out
    })
}

fn parse_str_hex(s: &str) -> Result<String, ServeError> {
    if !s.len().is_multiple_of(2) {
        return Err(corrupt("odd-length string encoding"));
    }
    let bytes: Result<Vec<u8>, _> = (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16))
        .collect();
    let bytes = bytes.map_err(|_| corrupt("bad string encoding"))?;
    String::from_utf8(bytes).map_err(|_| corrupt("non-UTF-8 string encoding"))
}

impl SpillStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { root: dir.into() }
    }

    /// The spill directory of one request hash.
    pub fn campaign_dir(&self, request_hex: &str) -> PathBuf {
        self.root.join(request_hex)
    }

    fn shard_path(&self, request_hex: &str, shard_index: usize) -> PathBuf {
        self.campaign_dir(request_hex)
            .join(format!("shard-{shard_index:06}.ckpt"))
    }

    /// Spills one completed shard, atomically (write-temp-then-rename,
    /// so a crash mid-write never leaves a half shard a resume would
    /// trust).
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] for obs-carrying reports; IO errors
    /// otherwise.
    pub fn save_shard(
        &self,
        request_hex: &str,
        shard_index: usize,
        report: &FleetReport,
    ) -> Result<(), ServeError> {
        if report.metrics.is_some() {
            return Err(ServeError::Unsupported(
                "checkpointing obs-carrying campaigns (metric stores have no spill encoding)",
            ));
        }
        let dir = self.campaign_dir(request_hex);
        std::fs::create_dir_all(&dir)?;

        let mut text = String::new();
        text.push_str(MAGIC);
        text.push('\n');
        text.push_str(&format!("fleet {}\n", str_hex(&report.name)));
        text.push_str(&format!("tracker {}\n", str_hex(&report.tracker)));
        text.push_str(&format!("nodes {}\n", report.outcomes.len()));
        for o in &report.outcomes {
            let r = &o.report;
            text.push_str(&format!(
                "node {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                o.id,
                o.placement.index(),
                u8::from(o.cold_start_ok),
                str_hex(&r.tracker),
                f64_hex(r.duration.value()),
                f64_hex(r.gross_energy.value()),
                f64_hex(r.overhead_energy.value()),
                f64_hex(r.load_demand.value()),
                f64_hex(r.load_served.value()),
                f64_hex(r.final_store_energy.value()),
                f64_hex(r.loss_energy.value()),
                f64_hex(r.compute_energy.value()),
                r.measurements,
                r.decisions,
            ));
        }

        let tmp = dir.join(format!("shard-{shard_index:06}.tmp"));
        let final_path = self.shard_path(request_hex, shard_index);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &final_path)?;
        Ok(())
    }

    /// Loads a previously spilled shard; `Ok(None)` when it was never
    /// saved, or was saved under another checkpoint version.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] on a corrupt file (a resume must
    /// fail loudly, not fold garbage into a deterministic report).
    pub fn load_shard(
        &self,
        request_hex: &str,
        shard_index: usize,
    ) -> Result<Option<FleetReport>, ServeError> {
        let path = self.shard_path(request_hex, shard_index);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let header = text.lines().next().unwrap_or_default();
        if header != MAGIC && header.starts_with(MAGIC_NAME) {
            return Ok(None);
        }
        Self::decode(&text).map(Some)
    }

    fn decode(text: &str) -> Result<FleetReport, ServeError> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(corrupt("bad checkpoint magic"));
        }
        let field = |line: Option<&str>, tag: &str| -> Result<String, ServeError> {
            line.and_then(|l| l.strip_prefix(tag))
                .and_then(|l| l.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| corrupt(format!("missing {tag} line")))
        };
        let name = parse_str_hex(&field(lines.next(), "fleet")?)?;
        let tracker = parse_str_hex(&field(lines.next(), "tracker")?)?;
        let count: usize = field(lines.next(), "nodes")?
            .parse()
            .map_err(|_| corrupt("bad node count"))?;

        let mut outcomes = Vec::with_capacity(count);
        for _ in 0..count {
            let line = lines.next().ok_or_else(|| corrupt("truncated shard"))?;
            let parts: Vec<&str> = line.split(' ').collect();
            if parts.len() != 15 || parts[0] != "node" {
                return Err(corrupt(format!("bad node line {line:?}")));
            }
            let placement_idx: usize = parts[2]
                .parse()
                .map_err(|_| corrupt("bad placement index"))?;
            let placement = *Placement::ALL
                .get(placement_idx)
                .ok_or_else(|| corrupt("placement index out of range"))?;
            outcomes.push(NodeOutcome {
                id: parts[1].parse().map_err(|_| corrupt("bad node id"))?,
                placement,
                cold_start_ok: match parts[3] {
                    "0" => false,
                    "1" => true,
                    other => return Err(corrupt(format!("bad cold-start flag {other:?}"))),
                },
                report: NodeReport {
                    tracker: parse_str_hex(parts[4])?,
                    duration: Seconds::new(parse_f64_hex(parts[5])?),
                    gross_energy: Joules::new(parse_f64_hex(parts[6])?),
                    overhead_energy: Joules::new(parse_f64_hex(parts[7])?),
                    load_demand: Joules::new(parse_f64_hex(parts[8])?),
                    load_served: Joules::new(parse_f64_hex(parts[9])?),
                    final_store_energy: Joules::new(parse_f64_hex(parts[10])?),
                    loss_energy: Joules::new(parse_f64_hex(parts[11])?),
                    compute_energy: Joules::new(parse_f64_hex(parts[12])?),
                    measurements: parts[13]
                        .parse()
                        .map_err(|_| corrupt("bad measurement count"))?,
                    decisions: parts[14]
                        .parse()
                        .map_err(|_| corrupt("bad decision count"))?,
                    metrics: None,
                },
            });
        }
        if lines.next().is_some() {
            return Err(corrupt("trailing lines after last node"));
        }
        Ok(FleetReport {
            name,
            tracker,
            outcomes,
            metrics: None,
        })
    }

    /// Removes a finished campaign's spill directory (best-effort: a
    /// missing directory is fine).
    pub fn clear(&self, request_hex: &str) {
        let _ = std::fs::remove_dir_all(self.campaign_dir(request_hex));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_fleet::{Engine, FleetContext, FleetSpec, TrackerKind};
    use eh_units::Seconds as S;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir() -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eh-serve-ckpt-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn shard_report(obs: bool) -> FleetReport {
        let mut spec = FleetSpec::mixed_indoor_outdoor(6, 2011).unwrap();
        spec.trace_decimate = 600;
        spec.dt = S::new(600.0);
        spec.obs = obs;
        let ctx = FleetContext::prepare(&spec).unwrap();
        ctx.simulate_shard(
            TrackerKind::Focv,
            Engine::PerNode,
            ctx.population().to_vec(),
        )
        .unwrap()
    }

    #[test]
    fn shard_round_trips_bit_for_bit() {
        let store = SpillStore::new(scratch_dir());
        let report = shard_report(false);
        assert!(store.load_shard("abcd", 0).unwrap().is_none());
        store.save_shard("abcd", 0, &report).unwrap();
        let loaded = store.load_shard("abcd", 0).unwrap().unwrap();
        assert_eq!(loaded, report, "resume must be bit-identical");
        // Exact bits, not approximate values.
        for (a, b) in loaded.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(
                a.report.gross_energy.value().to_bits(),
                b.report.gross_energy.value().to_bits()
            );
        }
        store.clear("abcd");
        assert!(store.load_shard("abcd", 0).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&store.root);
    }

    #[test]
    fn obs_reports_are_refused() {
        let store = SpillStore::new(scratch_dir());
        let report = shard_report(true);
        assert!(report.metrics.is_some());
        let err = store.save_shard("ffff", 0, &report).unwrap_err();
        assert!(matches!(err, ServeError::Unsupported(_)), "{err}");
    }

    #[test]
    fn corrupt_files_error_loudly() {
        let store = SpillStore::new(scratch_dir());
        let report = shard_report(false);
        store.save_shard("eeee", 3, &report).unwrap();
        let path = store.campaign_dir("eeee").join("shard-000003.ckpt");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 20);
        std::fs::write(&path, text).unwrap();
        assert!(store.load_shard("eeee", 3).is_err());
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        assert!(store.load_shard("eeee", 3).is_err());
        let _ = std::fs::remove_dir_all(&store.root);
    }

    #[test]
    fn spills_of_another_version_are_not_resumed() {
        let store = SpillStore::new(scratch_dir());
        let report = shard_report(false);
        store.save_shard("dddd", 2, &report).unwrap();
        let path = store.campaign_dir("dddd").join("shard-000002.ckpt");
        let current = std::fs::read_to_string(&path).unwrap();
        // A shard spilled by the previous stepper: same request hash,
        // well-formed, but a v1 header.
        let v1 = current.replacen(MAGIC, "eh-serve shard checkpoint v1", 1);
        assert_ne!(v1, current);
        std::fs::write(&path, &v1).unwrap();
        assert!(store.load_shard("dddd", 2).unwrap().is_none());
        // The recomputed shard overwrites it and resumes from then on.
        store.save_shard("dddd", 2, &report).unwrap();
        assert_eq!(store.load_shard("dddd", 2).unwrap(), Some(report));
        // A header that names no version stays corrupt.
        let unversioned = current.replacen(MAGIC, "eh-serve shard checkpoint", 1);
        std::fs::write(&path, unversioned).unwrap();
        assert!(store.load_shard("dddd", 2).is_err());
        let _ = std::fs::remove_dir_all(&store.root);
    }

    #[test]
    fn encodings_round_trip_edge_values() {
        for v in [0.0, -0.0, 1.5, -3.25e-300, f64::MIN_POSITIVE] {
            assert_eq!(parse_f64_hex(&f64_hex(v)).unwrap().to_bits(), v.to_bits());
        }
        for s in ["", "plain", "with space\nand newline", "ünïcödé"] {
            assert_eq!(parse_str_hex(&str_hex(s)).unwrap(), s);
        }
        assert!(parse_str_hex("abc").is_err());
        assert!(parse_f64_hex("xyz").is_err());
    }
}
