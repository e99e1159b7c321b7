//! E10 — ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Placement** (contiguous vs strided windows, same block budget):
//!    `SimLine`'s round count collapses from `w/h` to `≈ w` under strided
//!    placement — its hardness depends on how the algorithm lays out the
//!    input. `Line`'s does not move: oracle-chosen pointers make placement
//!    irrelevant, which is exactly why the paper's function needs the
//!    random `ℓ`.
//! 2. **Coordination** (routed token vs broadcast frontier): sharing the
//!    frontier with every machine each round buys zero rounds and costs
//!    `m×` the token communication — the bound is information-theoretic,
//!    not a routing artifact.

#![forbid(unsafe_code)]

use mph_core::algorithms::broadcast::Broadcast;
use mph_core::algorithms::pipeline::{Pipeline, Target};
use mph_core::algorithms::BlockAssignment;
use mph_core::{theorem, LineParams};
use mph_experiments::setup::{fmt, SweepArgs};
use mph_experiments::Report;
use mph_oracle::{LazyOracle, Oracle, RandomTape};
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let args = SweepArgs::parse();
    let mut report = Report::new();
    report.h1("E10 — ablations: placement and coordination");

    let (w, v, m) = if args.quick { (64u64, 16usize, 4usize) } else { (256, 32, 8) };
    let params = LineParams::new(64, w, 16, v);
    let trials = args.trials(if args.quick { 2 } else { 5 });

    report.h2("placement: contiguous vs strided windows (same blocks/machine)");
    let mut rows = Vec::new();
    for (target, label) in [(Target::SimLine, "SimLine"), (Target::Line, "Line")] {
        let contiguous = Pipeline::new(params, BlockAssignment::new(v, m, v / m), target);
        let strided = Pipeline::new(params, BlockAssignment::strided(v, m), target);
        let r_contig = theorem::mean_rounds(&contiguous, trials, args.seed(500), 1_000_000);
        let r_strided = theorem::mean_rounds(&strided, trials, args.seed(500), 1_000_000);
        rows.push(vec![
            label.into(),
            fmt(r_contig),
            fmt(r_strided),
            format!("{:.2}", r_strided / r_contig),
        ]);
    }
    report.table(&["function", "contiguous rounds", "strided rounds", "ratio"], &rows);
    report.para(
        "SimLine pays heavily for bad placement (its schedule is public and \
         sequential); Line is indifferent — the pointer walk is uniform, so \
         every placement with the same per-machine fraction performs alike. \
         The random pointer is precisely what removes the algorithm's \
         placement leverage.",
    );

    let coord_window = if args.quick { 4 } else { 8 };
    report.h2(&format!(
        "coordination: routed token vs broadcast frontier (Line, window {coord_window})"
    ));
    let assignment = BlockAssignment::new(v, m, coord_window);
    let base = args.seed(9000);
    let mut rows = Vec::new();
    for seed in 0..trials as u64 {
        let oracle = Arc::new(LazyOracle::square(base + seed, params.n));
        let mut rng = rand::rngs::StdRng::seed_from_u64(base + seed);
        let blocks = mph_bits::random_blocks(&mut rng, params.v, params.u);

        let pipeline = Pipeline::new(params, assignment, Target::Line);
        let mut sim = pipeline.build_simulation(
            oracle.clone() as Arc<dyn Oracle>,
            RandomTape::new(0),
            pipeline.required_s(),
            None,
            &blocks,
        );
        let routed = sim.run_until_output(1_000_000).unwrap();

        let broadcast = Broadcast::new(params, assignment, Target::Line);
        let mut sim = broadcast.build_simulation(
            oracle as Arc<dyn Oracle>,
            RandomTape::new(0),
            broadcast.required_s(),
            None,
            &blocks,
        );
        let bcast = sim.run_until_output(1_000_000).unwrap();

        rows.push(vec![
            seed.to_string(),
            routed.rounds().to_string(),
            bcast.rounds().to_string(),
            routed.stats.total_bits().to_string(),
            bcast.stats.total_bits().to_string(),
        ]);
    }
    report.table(
        &["seed", "routed rounds", "broadcast rounds", "routed bits", "broadcast bits"],
        &rows,
    );
    report.para(
        "Identical round counts, strictly more communication (m−1 extra \
         token copies per hop): no amount of frontier sharing helps, \
         because the next node's block owner cannot act before the frontier \
         reaches it — and the frontier only advances one ownership \
         transition per round.",
    );
    report.print();
}
