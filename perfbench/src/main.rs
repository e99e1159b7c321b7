//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! One binary, two workloads (see `README.md` in this directory):
//!
//! * `line_grid` — the E2 `exp_line_rounds` grid, in-process through
//!   `sweep::run_sweep` on the worker pool; its traced run also probes
//!   Line at w ∈ {256, 1024} through the shard supervisor on 2 pipe
//!   workers, one warm fleet per length;
//! * `mphd_sessions` — the `mphd` daemon on loopback, driven by one
//!   closed-loop client submitting non-durable sessions.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing code on
//! the measured path. `--trace 1` is the separate traced run: it repeats
//! the workload untraced and traced on the same inputs, checks the two
//! agree, and reports the per-layer metrics. Either way the last stdout
//! line is one JSON object `{correct, attempted, failed, metrics}`; the
//! lines before it are a human-readable table with sample counts.
//!
//! Every layer is timed from outside, around calls into its public
//! functions; no code outside this package is instrumented.

mod line_grid;
mod mphd;
mod sharded;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::Duration;
use util::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Shrinks every workload to self-test size.
    pub smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload (line_grid|mphd_sessions) \
                     --seed N --seconds S --trace (0|1) [--smoke]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(value("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s =
                    value("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Pool threads of this process and of every process it starts (the
/// daemon and shard workers inherit the variable). One, not two: two
/// pool threads on a 2-vCPU host made a grid session's time depend on
/// how its chunks fell on the two vCPUs, and that split the session
/// latencies of a run into two modes whose balance moved from run to
/// run (p50 spread 0.21 of the median over five seeds, against 0.07).
pub const POOL_THREADS: usize = 1;

/// Threads that compute the correctness references after the timed
/// region.
pub const CHECK_THREADS: usize = 2;

fn main() -> ExitCode {
    // Set before any thread exists: the pool reads it once, on first use.
    std::env::set_var("RAYON_NUM_THREADS", POOL_THREADS.to_string());
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "line_grid" => Ok(line_grid::run(&args)),
        "mphd_sessions" => mphd::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(&args.workload);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
