//! The performance docs name exactly the workloads the committed
//! `BENCH_mpc.json` carries, so neither can change without the other.

use mpc_hardness::metrics::json::Json;
use mpc_hardness::serve::jsonio;

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("reading {full}: {e}"))
}

/// The workload keys of the committed artifact, in file order.
fn artifact_workloads() -> Vec<String> {
    let artifact = jsonio::parse(&read("BENCH_mpc.json")).expect("BENCH_mpc.json parses");
    match jsonio::get(&artifact, "workloads") {
        Some(Json::Object(pairs)) => pairs.iter().map(|(key, _)| key.clone()).collect(),
        other => panic!("BENCH_mpc.json has no workloads object: {other:?}"),
    }
}

/// The text of `doc` from the heading starting with `from` up to the
/// next heading starting with `until`.
fn section<'a>(doc: &'a str, from: &str, until: &str) -> &'a str {
    let start = doc.find(from).unwrap_or_else(|| panic!("no {from:?} heading"));
    let rest = &doc[start + from.len()..];
    &rest[..rest.find(until).unwrap_or(rest.len())]
}

/// The first backquoted name of every line that starts with `prefix`.
fn names_after<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines()
        .filter_map(|line| line.strip_prefix(prefix))
        .filter_map(|rest| rest.split('`').next())
        .collect()
}

#[test]
fn performance_doc_tables_every_bench_workload() {
    let workloads = artifact_workloads();
    let doc = read("docs/PERFORMANCE.md");
    let headline = section(&doc, "## Measuring it: `BENCH_mpc.json`", "\n### ");
    assert_eq!(names_after(headline, "| `"), workloads, "headline table rows");
    let schema = section(&doc, "### Schema", "\n## ");
    assert_eq!(names_after(schema, "- **`"), workloads, "schema entries");
}

#[test]
fn observability_doc_names_every_bench_workload() {
    let doc = read("docs/OBSERVABILITY.md");
    let artifact = section(&doc, "## The benchmark artifact: `BENCH_mpc.json`", "\n## ");
    for workload in artifact_workloads() {
        assert!(artifact.contains(&format!("`{workload}`")), "OBSERVABILITY.md omits {workload}");
    }
}
