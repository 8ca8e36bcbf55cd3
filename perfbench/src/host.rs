//! What the worker can tell the front end about itself: the threads it may
//! use, its peak memory, and the compiler and profile it was built with.

/// Threads the benchmark may use for load: the host's parallelism.
pub fn parallelism() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| u32::try_from(n.get()).unwrap_or(u32::MAX))
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

pub const RUSTC: &str = env!("PERFBENCH_RUSTC");
pub const PROFILE: &str = env!("PERFBENCH_PROFILE");
