//! Process-level measurements from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` times (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User plus system CPU seconds this process (all its threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "{x}");
    }
}
