//! Regenerates Table 1 of the paper: the MPC model parameters, with the
//! model's side constraints (`m·s = Θ(N)`, `N^ε ≤ m ≤ N^{1−ε}`) checked
//! on a concrete configuration.

#![forbid(unsafe_code)]

use mph_bounds::tables;
use mph_experiments::sweep::grid_map;
use mph_experiments::Report;

fn main() {
    let mut report = Report::new();
    report.h1("Table 1 — parameters of massively parallel computation");

    // A representative configuration: 16 machines, 4 Kib memories, 64 Kib
    // input (the scale the simulation experiments run at).
    let (m, s_bits, input_bits) = (16u64, 4096u64, 65_536u64);
    let rows: Vec<Vec<String>> =
        grid_map(tables::table1(m, s_bits, input_bits), |r| vec![r.symbol, r.description, r.value]);
    report.table(&["symbol", "definition", "value"], &rows);

    report.h2("model constraints");
    let n = input_bits as f64;
    let eps = (m as f64).ln() / n.ln();
    report
        .kv("m·s = Θ(N)", format!("{} = {}·N", m * s_bits, (m * s_bits) as f64 / n))
        .kv(
            "N^ε ≤ m ≤ N^(1−ε)",
            format!("m = N^{eps:.3}; satisfied for ε ≤ {:.3}", eps.min(1.0 - eps)),
        )
        .end_block();
    report.print();
}
