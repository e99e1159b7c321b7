//! Shared pieces: the result line, summary statistics, the host-speed
//! calibration, the seeded input generator, and resident-memory probes.

use std::path::Path;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (trials or sessions).
    pub attempted: u64,
    /// Attempted operations that failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Records a failed operation with its reason on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Prints the human-readable table, then the JSON result line last.
    pub fn print(&self, workload: &str) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("workload {workload}: {} attempted, {} failed", self.attempted, self.failed);
        println!("  {:<36} {:>16} {:<8} {:>8}", "metric", "value", "unit", "samples");
        for m in &self.metrics {
            println!("  {:<36} {:>16.6} {:<8} {:>8}", m.name, m.value, m.unit, m.samples);
        }
        println!(
            "  {:<36} {:>16.6} {:<8} {:>8}",
            "error_rate", error_rate, "ratio", self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_f64(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// rendering gives (non-finite values cannot occur in a valid run; they
/// render as 0 rather than break the line).
fn json_f64(x: f64) -> String {
    if !x.is_finite() {
        return "0".into();
    }
    let s = format!("{x:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Host-speed calibration.
///
/// A shared 2-vCPU host runs the same code up to twice as fast at one
/// moment as a few minutes later (turbo, neighbours, steal), which no
/// amount of run length averages out. So every timed workload samples a
/// fixed calibration kernel — integer work over a 256 KiB table, none of
/// it repository code — every [`Self::EVERY`] between its operations,
/// never during one, and reports each time at the reference speed:
/// `time × REF_MS / kernel time`, the kernel time being the mean of the
/// samples within [`Self::WINDOW`] of the operation. The mean, not the
/// median: steal hits a few samples hard, and only the mean charges the
/// kernel the share of time the operations lost to it. `REF_MS` is
/// about the kernel's time on an idle 2-vCPU host of the class the
/// benchmark was tuned on, so figures stay near wall-clock there. A
/// change to the program moves the timed operations and leaves the
/// kernel alone.
pub struct HostSpeed {
    table: Vec<u32>,
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// Calibration kernel time, in ms, that counts as reference speed.
    pub const REF_MS: f64 = 1.0;
    /// Least time between two samples taken by [`Self::tick`].
    pub const EVERY: Duration = Duration::from_millis(100);
    /// Samples this close to an operation set its speed.
    pub const WINDOW: Duration = Duration::from_secs(1);
    const TABLE: usize = 1 << 16;
    const STEPS: usize = 480_000;

    pub fn new() -> Self {
        HostSpeed { table: (0..Self::TABLE as u32).collect(), samples: Vec::new() }
    }

    /// Times one run of the calibration kernel.
    pub fn sample(&mut self) {
        let mask = Self::TABLE - 1;
        let t = Instant::now();
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u32);
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            acc = acc.wrapping_add(self.table[i]).rotate_left(5) ^ x as u32;
            self.table[(i * 7 + 1) & mask] = acc;
        }
        std::hint::black_box(acc);
        self.samples.push((t, ms(t.elapsed())));
    }

    /// Samples unless the last sample is younger than [`Self::EVERY`].
    pub fn tick(&mut self) {
        match self.samples.last() {
            Some((at, _)) if at.elapsed() < Self::EVERY => {}
            _ => self.sample(),
        }
    }

    /// How many times slower than reference the host ran at `at`: the
    /// mean sample within [`Self::WINDOW`] of it (of all, if none is).
    pub fn slowdown(&self, at: Instant) -> f64 {
        let gap = |t: Instant| if t > at { t - at } else { at - t };
        let mut used: Vec<f64> =
            self.samples.iter().filter(|s| gap(s.0) <= Self::WINDOW).map(|s| s.1).collect();
        if used.is_empty() {
            used = self.samples.iter().map(|s| s.1).collect();
        }
        let mean = used.iter().sum::<f64>() / used.len() as f64;
        mean.max(f64::MIN_POSITIVE) / Self::REF_MS
    }

    /// `d`, taken at `at`, in seconds at reference speed.
    pub fn secs(&self, at: Instant, d: Duration) -> f64 {
        secs(d) / self.slowdown(at)
    }
}

/// splitmix64: the workload's input generator. The same seed yields the
/// same sequence, so the same seed gives the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A trial seed: kept below 2^40 so `seed + t` never wraps.
    pub fn seed(&mut self) -> u64 {
        self.next() >> 24
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A fresh scratch directory for this run under `perfbench/.work`,
/// unique per process so concurrent or earlier runs never share one.
pub fn fresh_work_dir(tag: &str) -> Result<std::path::PathBuf, String> {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let dir = base.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
