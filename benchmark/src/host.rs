//! What the kernel reports about this process: peak memory and CPU time.

use std::fs;

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// (user, system) CPU time of this process, all threads, in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// Share of CPU time spent in the kernel between two `cpu_ticks` readings.
pub fn sys_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let (user, sys) = (after.0 - before.0, after.1 - before.1);
    sys as f64 / (user + sys).max(1) as f64
}
