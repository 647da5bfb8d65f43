//! What the benchmark reads from the host: the wall clock, and from
//! `/proc/self` a thread's CPU time and the process's peak resident memory.

use std::time::Instant;

/// The benchmark's one wall-clock read; every timing in these files goes
/// through it.
pub fn now() -> Instant {
    // lint:allow(det-clock): this is the benchmark's timer — measuring host
    // wall time is its purpose, and no reading ever feeds a simulation.
    Instant::now()
}

/// Seconds of wall time since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// Nanoseconds the calling thread has spent on a CPU since it started: the
/// first field of `/proc/thread-self/schedstat` (that is,
/// `/proc/self/task/<tid>/schedstat`). `/proc/self/stat` would give the
/// whole process, but only in ticks of 10 ms, which is most of a job here.
pub fn thread_cpu_ns() -> Result<u64, String> {
    let path = "/proc/thread-self/schedstat";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("{path}: no run-time field"))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1000.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_self_is_readable_and_plausible() {
        let rss = peak_rss_mb().expect("VmHWM");
        assert!(rss > 0.5, "a running test binary holds more than {rss} MB");
        let before = thread_cpu_ns().expect("thread CPU time");
        let mut x = 0u64;
        let spin = now();
        while secs_since(spin) < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = thread_cpu_ns().expect("thread CPU time") - before;
        assert!(
            spent > 1_000_000,
            "20 ms of spinning cost {spent} ns of CPU"
        );
    }
}
