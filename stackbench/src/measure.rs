//! Measurement helpers: order statistics, process CPU and memory, bytes on
//! disk, and the result line.

use std::path::Path;

/// The `q`-quantile of `values` by nearest rank (`values` need not be
/// sorted).  Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (zero when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds consumed by this process so far, all threads.
pub fn process_cpu_s() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable struct with the platform's
    // `struct rusage` layout on 64-bit Linux; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Machine-wide CPU time counters from `/proc/stat`: (steal, total), in
/// clock ticks.  Steal is time the hypervisor ran something else while this
/// machine's CPUs had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`, and of those whose name
/// marks them as snapshots.
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut snapshots = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (t, s) = dir_bytes(&path);
            total += t;
            snapshots += s;
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
            if entry.file_name().to_string_lossy().starts_with("snapshot-") {
                snapshots += meta.len();
            }
        }
    }
    (total, snapshots)
}

/// Copy the directory tree `from` to `to` (regular files only).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises, and of what.
    pub samples: String,
}

/// The outcome of one invocation.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations not acknowledged and verified, plus those of any window
    /// whose correctness gate failed.
    pub failed: u64,
    /// Every gate that failed, with its reason.
    pub gate_failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a catalogued metric.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            unit: crate::metrics::unit(name),
            value,
            samples: samples.into(),
        });
    }

    /// Record a gate: on failure the window's operations count as failed.
    pub fn gate(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.gate_failures.push(what());
        }
    }

    /// Whether every gate passed and every operation was verified.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.gate_failures.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted),
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit: Rust's shortest
/// round-trip form (`1.0`, `0.25`, `1e-7`).
pub fn json_number(value: f64) -> String {
    format!("{value:?}")
}
