//! Host facts: process CPU time and peak memory from `/proc`, core
//! count, and best-effort provenance strings.

use std::process::Command;

/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`,
/// which Linux fixes at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process (all threads, live and
/// joined), in seconds.
pub fn cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may contain
    // spaces: state is field 3, utime 14 and stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|v| v as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first line a command prints, or `"unknown"` when it cannot run
/// (no toolchain on the path, not a git checkout).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s().unwrap() > 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
