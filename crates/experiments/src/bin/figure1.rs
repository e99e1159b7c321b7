//! Regenerates Figure 1 of the paper: the structure of `Line^RO` — a
//! chain of oracle nodes, each selecting its input block through the
//! pointer revealed by its predecessor. Rendered from a real evaluation
//! trace, as ASCII and as Graphviz DOT.

#![forbid(unsafe_code)]

use mph_core::{Line, LineParams};
use mph_experiments::Report;
use mph_oracle::LazyOracle;
use rand::SeedableRng;

fn main() {
    let mut report = Report::new();
    report.h1("Figure 1 — the Line^RO structure");

    let params = LineParams::new(64, 12, 16, 8);
    let line = Line::new(params);
    let oracle = LazyOracle::square(2020, 64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2020);
    let blocks = mph_bits::random_blocks(&mut rng, params.v, params.u);
    let trace = line.trace(&oracle, &blocks);

    report.para(&format!(
        "Instance: n = {}, w = {}, u = {}, v = {}. The pointer walk below is \
         oracle-chosen — no machine can predict which x_i the next node needs.",
        params.n, params.w, params.u, params.v
    ));
    report.kv("pointer walk ℓ_1..ℓ_w", format!("{:?}", trace.pointer_walk()));
    report.kv("blocks touched", format!("{} of {}", trace.blocks_touched(params.v), params.v));
    report.end_block();

    report.h2("chain (ASCII)");
    report.pre(&trace.render_ascii(12));

    report.h2("chain (Graphviz DOT)");
    report.pre(&trace.render_dot(12));
    report.print();
}
