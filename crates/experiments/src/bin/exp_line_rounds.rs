//! E2 — Theorem 3.1's round envelope for `Line`.
//!
//! The headline experiment. Two sweeps:
//!
//! 1. **Memory sweep** at fixed `w`: unlike `SimLine`, growing the window
//!    barely helps — rounds stay `≈ w·(1 − window/v)`, i.e. `Ω(w)`
//!    whenever `s ≤ S/c`. The oracle-chosen pointer defeats prefetching.
//! 2. **Length sweep** at fixed memory fraction: rounds grow linearly in
//!    `w = T` — the `Ω̃(T)` of the theorem, against the RAM's `O(T·n)`
//!    time (1 oracle call per node either way).
//!
//! Both sweeps' cells fan into a single [`mph_experiments::sweep::run_sweep`]
//! pool pass (see docs/PERFORMANCE.md). Flags: `--trials N --seed N --quick
//! --checkpoint-every N` (`--seed` offsets both sweeps' base seeds; the
//! last flag makes the sweep durably resumable — see docs/ROBUSTNESS.md).
//!
//! Besides the stdout tables, writes `target/reports/exp_line_rounds.json`
//! with the same cells plus the per-point telemetry snapshots recorded by
//! `mph-metrics` (see docs/OBSERVABILITY.md for a worked example of this
//! report).

#![forbid(unsafe_code)]

use mph_core::algorithms::pipeline::Target;
use mph_experiments::checkpoint;
use mph_experiments::setup::{demo_pipeline, fmt, SweepArgs};
use mph_experiments::sweep::Cell;
use mph_experiments::Report;
use mph_metrics::json::Json;

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E2 — Line rounds: the Ω̃(T) lower-bound shape (Theorem 3.1)");

    let trials = args.trials(5);
    let (v, m, w_mem, windows, lengths): (usize, usize, u64, &[usize], &[u64]) = if args.quick {
        (16, 4, 64, &[4, 8], &[32, 64])
    } else {
        (64, 8, 512, &[8, 16, 32, 48], &[128, 256, 512, 1024])
    };
    let mem_seed = args.seed(2000);
    let len_seed = args.seed(2000).wrapping_add(1000); // default 3000, as published
    let length_window = if args.quick { 4 } else { 16 };

    // One pool pass over both sweeps: the memory cells first, then the
    // length cells, split back apart below.
    let mut cells: Vec<Cell> = windows
        .iter()
        .map(|&window| {
            Cell::new(
                format!("window={window}"),
                demo_pipeline(w_mem, v, m, window, Target::Line),
                trials,
                mem_seed,
                1_000_000,
            )
        })
        .collect();
    cells.extend(lengths.iter().map(|&w| {
        Cell::new(
            format!("w={w}"),
            demo_pipeline(w, v, m, length_window, Target::Line),
            trials,
            len_seed,
            1_000_000,
        )
    }));
    let results = checkpoint::run_sweep_with_args("exp_line_rounds", &args, cells);
    let (mem_results, len_results) = results.split_at(windows.len());

    report.h2(&format!("memory sweep (w = {w_mem}): memory does NOT buy proportional speedup"));
    let mut rows = Vec::new();
    let mut telemetry: Vec<(String, Json)> = Vec::new();
    for (&window, result) in windows.iter().zip(mem_results) {
        let f = window as f64 / v as f64;
        let measured = result.mean_rounds;
        telemetry
            .push((result.label.clone(), result.snapshot.as_ref().expect("telemetry").to_json()));
        rows.push(vec![
            window.to_string(),
            format!("{:.2}", f),
            fmt(measured),
            fmt(w_mem as f64 * (1.0 - f)),
            fmt(measured / w_mem as f64),
        ]);
    }
    report.table(&["window", "s/S ≈", "measured rounds", "w·(1−f)", "measured/w"], &rows);
    report.json_extra("telemetry", Json::Object(telemetry));
    report.para(
        "Shape check: rounds ≈ w·(1−f) — a constant fraction of w for any \
         f bounded below 1 (the s ≤ S/c condition). Compare E1, where the \
         same memory sweep divided the rounds by 8.",
    );

    report.h2(&format!(
        "length sweep (window = {length_window}, f = {:.2}): rounds grow linearly in T",
        length_window as f64 / v as f64
    ));
    let mut rows = Vec::new();
    let mut telemetry: Vec<(String, Json)> = Vec::new();
    for (&w, result) in lengths.iter().zip(len_results) {
        let measured = result.mean_rounds;
        telemetry
            .push((result.label.clone(), result.snapshot.as_ref().expect("telemetry").to_json()));
        let floor = w as f64 / ((w as f64).log2() * (w as f64).log2());
        rows.push(vec![w.to_string(), fmt(measured), fmt(measured / w as f64), fmt(floor)]);
    }
    report.table(&["w = T", "measured rounds", "measured/w", "theorem floor w/log²w"], &rows);
    report.json_extra("telemetry", Json::Object(telemetry));
    report.para(
        "Shape check: measured/w is constant (linear growth in T) and sits \
         well above the theorem's w/log²w floor — the MPC round complexity \
         is asymptotically the RAM's time complexity, the paper's \
         best-possible hardness.",
    );
    report.print_and_write("exp_line_rounds");
}
