//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). The helpers here render
//! aligned plain-text tables and simple ASCII sparklines so the output
//! is readable in a terminal and diffable in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eh_serve::envcfg::{positive_usize, EnvError};
use eh_sim::SweepRunner;

/// The raw value of `--flag V` or `--flag=V` in the arguments, if the
/// flag is present (an empty string when `--flag` is the last word).
fn flag_value<I, S>(args: I, flag: &str) -> Option<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let arg = arg.as_ref();
        if arg == flag {
            return Some(
                args.next()
                    .map_or_else(String::new, |v| v.as_ref().to_owned()),
            );
        }
        if let Some(v) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_owned());
        }
    }
    None
}

/// Parses a worker-count override from command-line arguments
/// (`--workers N` or `--workers=N`) and the `EH_WORKERS` environment
/// variable; the command line wins.
///
/// Parsing is strict and shared with the service's `EH_SERVE_*`
/// handling ([`eh_serve::envcfg`]): zero, negative, or unparsable
/// values are a hard [`EnvError`] naming the knob and the rejected
/// value. They used to be silently ignored, which let `EH_WORKERS=lots`
/// degrade to the auto-sized default and quietly measure the wrong
/// configuration.
///
/// # Errors
///
/// [`EnvError`] when an override is present but not a positive integer.
pub fn parse_workers<I, S>(args: I, env_value: Option<&str>) -> Result<Option<usize>, EnvError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    match flag_value(args, "--workers") {
        Some(raw) => positive_usize("--workers", &raw).map(Some),
        None => env_value
            .map(|raw| positive_usize("EH_WORKERS", raw))
            .transpose(),
    }
}

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

/// The sweep runner every experiment binary should use: sized by
/// `--workers N` / `--workers=N` on the command line, else the
/// `EH_WORKERS` environment variable, else the machine's available
/// parallelism. A present-but-invalid override terminates the process
/// with exit code 2 and a message naming the knob — never a silent
/// fallback.
pub fn sweep_runner() -> SweepRunner {
    match parse_workers(
        std::env::args().skip(1),
        std::env::var("EH_WORKERS").ok().as_deref(),
    ) {
        Ok(Some(n)) => SweepRunner::new(n),
        Ok(None) => SweepRunner::auto(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
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
    fn workers_override_resolution() {
        // Command line beats the environment.
        assert_eq!(parse_workers(["--workers", "4"], Some("2")), Ok(Some(4)));
        assert_eq!(parse_workers(["--workers=8"], Some("2")), Ok(Some(8)));
        // Environment fallback.
        assert_eq!(parse_workers(Vec::<String>::new(), Some("3")), Ok(Some(3)));
        assert_eq!(parse_workers(["--other"], Some(" 5 ")), Ok(Some(5)));
        // No override anywhere: auto-size.
        assert_eq!(parse_workers(Vec::<String>::new(), None), Ok(None));
    }

    #[test]
    fn workers_garbage_is_a_hard_error() {
        // A present-but-invalid override must fail loudly, naming the
        // knob and the rejected value — never degrade to auto.
        let err = parse_workers(["--workers", "zero"], None).unwrap_err();
        assert_eq!(err.source, "--workers");
        assert_eq!(err.raw, "zero");
        assert!(parse_workers(["--workers=0"], Some("2")).is_err());
        assert!(parse_workers(["--workers"], None).is_err());
        let err = parse_workers(Vec::<String>::new(), Some("lots")).unwrap_err();
        assert_eq!(err.source, "EH_WORKERS");
        assert!(err.to_string().contains("positive integer"));
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
