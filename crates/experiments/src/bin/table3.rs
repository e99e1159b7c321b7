//! Regenerates Table 3 of the paper: the `Line` function's derived
//! parameters, computed from the same `LineParams` struct every other
//! component uses.

#![forbid(unsafe_code)]

use mph_bounds::tables;
use mph_core::LineParams;
use mph_experiments::sweep::grid_map;
use mph_experiments::Report;

fn main() {
    let mut report = Report::new();
    report.h1("Table 3 — parameters of the Line function");

    let scales = vec![
        ("paper-scale", 1usize << 14, 1usize << 18, 1u64 << 20),
        ("simulation-scale", 64, 512, 256),
    ];
    // Both scales' derived-parameter rows computed in one grid pass,
    // rendered in order below.
    let sections = grid_map(scales, |(label, n, s_ram, t)| {
        let p = LineParams::from_nst(n, s_ram, t);
        let rows: Vec<Vec<String>> =
            tables::table3(p.n as u64, p.u as u64, p.v as u64, p.w, p.l_width() as u64)
                .into_iter()
                .map(|r| vec![r.symbol, r.description, r.value])
                .collect();
        (label, n, s_ram, t, p, rows)
    });
    for (label, n, s_ram, t, p, rows) in sections {
        report.h2(&format!("{label}: n = {n}, S = {s_ram} bits, T = {t}"));
        report.table(&["symbol", "definition", "value"], &rows);
        report
            .kv(
                "query layout",
                format!(
                    "[i:{} | x:{} | r:{} | 0^{}] = {} bits",
                    p.i_width(),
                    p.u,
                    p.u,
                    p.n - p.i_width() - 2 * p.u,
                    p.n
                ),
            )
            .kv(
                "answer layout",
                format!(
                    "[l:{} | r:{} | z:{}] = {} bits",
                    p.l_width(),
                    p.u,
                    p.n - p.l_width() - p.u,
                    p.n
                ),
            )
            .kv("input size u·v", format!("{} bits", p.input_bits()))
            .end_block();
    }
    report.print();
}
