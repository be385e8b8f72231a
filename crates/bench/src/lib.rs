//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). The helpers here render
//! aligned plain-text tables and simple ASCII sparklines so the output
//! is readable in a terminal and diffable in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Returns whether a bare long flag (e.g. `--smoke`) is present in the
/// arguments.
pub fn parse_flag<I, S>(args: I, name: &str) -> bool
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    args.into_iter().any(|a| a.as_ref() == name)
}

/// Whether this invocation asked for the CI smoke profile (`--smoke`):
/// the same code paths and assertions at a fraction of the problem
/// size, so a push gets end-to-end coverage without bench-scale
/// wall-clock. Smoke runs never gate on timing.
pub fn smoke_mode() -> bool {
    parse_flag(std::env::args().skip(1), "--smoke")
}

/// Clamps a worker-count sweep to the host's available parallelism,
/// returning whether anything was clamped.
///
/// Worker counts beyond `host_parallelism` cannot add speed — they only
/// add scheduling overhead, which used to show up as a *slowdown* on
/// the largest fleet rows when the hard-coded sweep (1, 2, 4, ...) ran
/// on a smaller container. The sweep is deduplicated and kept sorted;
/// at least one count (min 1) always survives.
pub fn clamp_worker_counts(counts: &mut Vec<usize>, host_parallelism: usize) -> bool {
    let host = host_parallelism.max(1);
    let clamped = counts.iter().any(|&c| c > host);
    for c in counts.iter_mut() {
        *c = (*c).clamp(1, host);
    }
    counts.sort_unstable();
    counts.dedup();
    clamped
}

/// Renders an aligned plain-text table.
///
/// ```
/// use eh_bench::render_table;
/// let out = render_table(
///     &["lux", "Voc (V)"],
///     &[vec!["200".into(), "4.978".into()], vec!["5000".into(), "5.91".into()]],
/// );
/// assert!(out.contains("200"));
/// assert!(out.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row.iter()) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:<width$} ", h, width = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, width) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!("| {cell:<width$} "));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Renders a series as a one-line ASCII sparkline (8 levels).
///
/// ```
/// use eh_bench::sparkline;
/// let s = sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi <= lo {
        return LEVELS[0].to_string().repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            let f = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
            LEVELS[((f * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Formats a number with the given number of decimal places, trimming a
/// possible negative zero.
pub fn fmt(v: f64, decimals: usize) -> String {
    let s = format!("{v:.decimals$}");
    if s.starts_with("-0.") && s[1..].parse::<f64>() == Ok(0.0) {
        s[1..].to_owned()
    } else {
        s
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(&["a", "long header"], &[vec!["xxxxxx".into(), "1".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        // All rows are equally wide.
        assert!(lines
            .windows(2)
            .all(|w| w[0].chars().count() == w[1].chars().count()));
        assert!(t.contains("long header"));
    }

    #[test]
    fn table_handles_short_rows() {
        let t = render_table(&["a", "b"], &[vec!["1".into()]]);
        assert!(t.contains("| 1 |"));
    }

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s, "▁█");
        let flat = sparkline(&[2.0, 2.0, 2.0]);
        assert_eq!(flat, "▁▁▁");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn worker_counts_clamp_to_host_parallelism() {
        let mut counts = vec![1, 2, 4, 16];
        assert!(clamp_worker_counts(&mut counts, 2));
        assert_eq!(counts, vec![1, 2], "oversubscribed counts must collapse");
        let mut counts = vec![1, 2, 4];
        assert!(!clamp_worker_counts(&mut counts, 8));
        assert_eq!(counts, vec![1, 2, 4], "in-budget counts are untouched");
        // Degenerate host report: at least one worker survives.
        let mut counts = vec![4, 8];
        assert!(clamp_worker_counts(&mut counts, 0));
        assert_eq!(counts, vec![1]);
    }

    #[test]
    fn flag_detection() {
        assert!(parse_flag(["--smoke"], "--smoke"));
        assert!(parse_flag(["--workers", "4", "--smoke"], "--smoke"));
        assert!(!parse_flag(["--smoked"], "--smoke"));
        assert!(!parse_flag(Vec::<String>::new(), "--smoke"));
    }

    #[test]
    fn fmt_trims_negative_zero() {
        assert_eq!(fmt(-0.0001, 2), "0.00");
        assert_eq!(fmt(1.2345, 2), "1.23");
        assert_eq!(fmt(-1.5, 1), "-1.5");
    }
}
