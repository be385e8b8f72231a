//! JSON and human-readable exporters for [`Metrics`].

use std::fmt::Write as _;

use crate::ledger::EnergyBucket;
use crate::metrics::Metrics;

/// Formats an `f64` for JSON: `{:?}` is Rust's shortest round-trip
/// rendering, so equal stores export byte-identical documents. Inputs
/// are finite by construction (non-finite values are rejected at record
/// time).
fn json_f64(v: f64) -> String {
    format!("{v:?}")
}

fn json_str_escape(s: &str) -> String {
    // Metric names are static identifiers; escape the JSON specials
    // anyway so the exporter can never emit an invalid document.
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl Metrics {
    /// Serialises the store as one compact JSON object with
    /// deterministic key order, suitable for embedding into the bench
    /// bins' `BENCH_*.json` reports.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");

        out.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", json_str_escape(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_str_escape(name), json_f64(v));
        }
        out.push_str("},\"spans\":{");
        for (i, (name, s)) in self.spans().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sim_time_s\":{},\"energy_j\":{}}}",
                json_str_escape(name),
                s.count,
                json_f64(s.sim_time().value()),
                json_f64(s.energy().value())
            );
        }
        out.push_str("},\"energy_ledger_j\":{");
        for (i, bucket) in EnergyBucket::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                bucket.key(),
                json_f64(self.ledger().energy(bucket).value())
            );
        }
        let _ = write!(
            out,
            ",\"total\":{}",
            json_f64(self.ledger().total().value())
        );
        out.push_str("}}");
        out
    }

    /// Renders the store as an aligned, human-readable plain-text
    /// report (sections are omitted when empty).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.counters().next().is_some() {
            out.push_str("counters\n");
            for (name, v) in self.counters() {
                let _ = writeln!(out, "  {name:<32} {v:>14}");
            }
        }
        if self.gauges().next().is_some() {
            out.push_str("gauges\n");
            for (name, v) in self.gauges() {
                let _ = writeln!(out, "  {name:<32} {v:>14.6}");
            }
        }
        if self.spans().next().is_some() {
            out.push_str("spans (simulated time)\n");
            for (name, s) in self.spans() {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>10} x {:>14.3} s {:>14.6e} J",
                    s.count,
                    s.sim_time().value(),
                    s.energy().value()
                );
            }
        }
        if !self.ledger().is_empty() {
            out.push_str("energy ledger\n");
            let total = self.ledger().total().value();
            for bucket in EnergyBucket::ALL {
                let j = self.ledger().energy(bucket).value();
                let pct = if total != 0.0 { 100.0 * j / total } else { 0.0 };
                let _ = writeln!(out, "  {:<32} {j:>14.6e} J {pct:>6.2} %", bucket.label());
            }
            let _ = writeln!(out, "  {:<32} {total:>14.6e} J", "total");
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_units::{Joules, Seconds};

    fn sample() -> Metrics {
        let mut m = Metrics::new();
        m.add_counter("engine.steps", 42);
        m.set_gauge("rail_v", 3.3);
        m.record_span_stats("pulse", 1, Seconds::from_milli(39.0).value(), 0.0);
        m.charge(EnergyBucket::Astable, Joules::new(0.25));
        m.charge(EnergyBucket::Load, Joules::new(0.75));
        m
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b, "equal stores must export byte-identical JSON");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"engine.steps\":42"));
        assert!(a.contains("\"astable\":0.25"));
        assert!(a.contains("\"total\":1.0"));
        // Balanced braces and brackets (cheap well-formedness check).
        let depth = a.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    /// The whole document of an empty store: every member the exporter
    /// renders, in order, and nothing else.
    #[test]
    fn empty_store_exports_valid_skeleton() {
        assert_eq!(
            Metrics::new().to_json(),
            "{\"counters\":{},\"gauges\":{},\"spans\":{},\"energy_ledger_j\":{\
             \"astable\":0.0,\"sample_hold\":0.0,\"converter_switching\":0.0,\
             \"load\":0.0,\"compute\":0.0,\"total\":0.0}}"
        );
        assert!(Metrics::new().to_table().contains("no metrics recorded"));
    }

    #[test]
    fn table_renders_every_section() {
        let t = sample().to_table();
        assert!(t.contains("counters"));
        assert!(t.contains("engine.steps"));
        assert!(t.contains("spans"));
        assert!(t.contains("energy ledger"));
        assert!(t.contains("sample-and-hold"));
        assert!(t.contains("total"));
    }

    #[test]
    fn json_escapes_are_safe() {
        assert_eq!(json_str_escape("plain"), "plain");
        assert_eq!(json_str_escape("a\"b"), "a\\\"b");
        assert_eq!(json_str_escape("a\\b"), "a\\\\b");
        assert_eq!(json_str_escape("a\nb"), "a\\u000ab");
    }
}
