//! E12 — Fault tolerance: replication vs crash faults.
//!
//! Sweep crash rate × replication factor ρ over the group-replicated
//! pipeline (`mph_core::algorithms::ReplicatedPipeline`) and measure two
//! things at once:
//!
//! * the **round-complexity overhead of replication** — at crash rate 0,
//!   ρ = 1 is the plain pipeline plus checksum frames (identical round
//!   count), and ρ ≥ 2 pays only the fixed multicast cost per hop;
//! * the **completion rate under crashes** — at rates where the
//!   unreplicated pipeline loses its token to a crashed machine and
//!   times out, sibling replicas keep the token walk alive.
//!
//! Every cell runs under a deterministic [`mph_mpc::FaultPlan`], so the
//! table (and the JSON report, including the per-cell injected-fault
//! tallies) is byte-identical across reruns and thread counts. Flags:
//! `--trials N --seed N --quick --checkpoint-every N` (the last makes
//! the sweep durably resumable — see docs/ROBUSTNESS.md).
//!
//! Besides the stdout tables, writes
//! `target/reports/exp_fault_tolerance.json` with the same cells plus
//! per-cell telemetry snapshots whose `faults` object counts the
//! injected crashes (see docs/ROBUSTNESS.md).

#![forbid(unsafe_code)]

use mph_core::algorithms::pipeline::Target;
use mph_core::algorithms::ReplicatedPipeline;
use mph_experiments::checkpoint;
use mph_experiments::setup::{demo_params, fmt, SweepArgs};
use mph_experiments::sweep::{self, Cell};
use mph_experiments::Report;
use mph_metrics::json::Json;
use mph_mpc::FaultSpec;

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E12 — Fault tolerance: replicated pipeline under crash faults");

    let (w, v, groups, window, rates): (u64, usize, usize, usize, &[f64]) = if args.quick {
        (64, 16, 4, 4, &[0.0, 0.01])
    } else {
        (192, 32, 8, 8, &[0.0, 0.005, 0.01, 0.02])
    };
    let rhos: &[usize] = &[1, 2, 3];
    let trials = args.trials(8);
    let base_seed = args.seed(4000);
    let params = demo_params(w, v);

    report
        .kv(
            "instance",
            format!("n = 64, u = 16, v = {v}, w = {w}, groups = {groups}, window = {window}"),
        )
        .kv("trials per cell", trials)
        .end_block();

    let cells: Vec<Cell> = rhos
        .iter()
        .flat_map(|&rho| {
            rates.iter().map(move |&rate| {
                let pipeline =
                    ReplicatedPipeline::new(params, groups, window, rho, Target::SimLine);
                let spec = FaultSpec { crash_rate: rate, ..FaultSpec::default() };
                // Crash-dead runs only stop at the round cap, so keep it
                // tight: the healthy walk needs ~w/window hops per window
                // pass, far under 10·w.
                Cell::new(
                    format!("rho={rho},crash={rate}"),
                    pipeline,
                    trials,
                    base_seed,
                    10 * w as usize + 100,
                )
                .with_faults(spec, base_seed ^ 0xFA17, 0)
            })
        })
        .collect();
    // With --checkpoint-every N, progress is durably snapshotted every N
    // cells (resumable after a kill); the results are byte-identical to
    // the default run_sweep path either way.
    let results = checkpoint::run_sweep_with_args("exp_fault_tolerance", &args, cells);

    // Fault-free ρ = 1 — the overhead baseline every row compares against.
    let baseline = results[0].mean_rounds;
    let mut rows = Vec::new();
    let mut telemetry: Vec<(String, Json)> = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let rho = rhos[i / rates.len()];
        let rate = rates[i % rates.len()];
        telemetry
            .push((result.label.clone(), result.snapshot.as_ref().expect("telemetry").to_json()));
        let crashes = result.fault_tallies().get("crash").copied().unwrap_or(0);
        let correct = result.correct_trials();
        rows.push(vec![
            rho.to_string(),
            format!("{rate}"),
            (groups * rho).to_string(),
            format!("{correct}/{trials}"),
            if correct > 0 { fmt(result.mean_rounds) } else { "-".into() },
            if correct > 0 { fmt(result.mean_rounds / baseline) } else { "-".into() },
            crashes.to_string(),
        ]);
    }
    report.table(
        &[
            "rho",
            "crash rate",
            "machines",
            "correct/trials",
            "mean rounds",
            "overhead vs fault-free rho=1",
            "crashes injected",
        ],
        &rows,
    );
    report.json_extra("telemetry", Json::Object(telemetry));
    report.json_extra("degraded", Json::Bool(sweep::degraded(&results)));
    report.para(
        "Shape check: at crash rate 0 every rho completes with overhead ≈ 1 \
         (replication costs no extra rounds — only wider multicasts), while \
         at positive crash rates rho = 1 loses trials (the token dies with \
         its machine) and rho >= 2 keeps completing correctly: sibling \
         replicas re-inject the token, converting crashes into bounded \
         round overhead instead of wrong or missing output.",
    );
    report.print_and_write("exp_fault_tolerance");
}
