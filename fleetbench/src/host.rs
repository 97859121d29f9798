//! Host facts recorded with every run, process resource usage, and the
//! fixed-work calibration kernel.

use sa_linalg::complex::C64;
use sa_linalg::CMat;
use std::time::Instant;

/// What a result must be read against: the machine and toolchain.
pub fn facts(seed: u64) -> String {
    let nproc = nproc();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "host: nproc {nproc}, kernel {kernel}, arch {}, {}, seed {seed}",
        std::env::consts::ARCH,
        env!("FLEETBENCH_RUSTC"),
    )
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process CPU time (user + system, every thread including exited
/// ones), seconds, from `/proc/self/stat`. Linux reports it in
/// `USER_HZ` = 100 ticks per second on every architecture.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Nanoseconds per 16×16 complex matrix product — the same fixed-work
/// kernel `profile_engine` uses as its host-drift canary. Best of five
/// repetitions, so a scheduler hiccup does not read as a slow host.
pub fn matmul_16x16_ns() -> f64 {
    let a = {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        CMat::from_fn(16, 16, |_, _| C64::new(next(), next()))
    };
    let iters = 2000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(std::hint::black_box(&a).matmul(&a));
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}
