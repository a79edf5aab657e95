//! Static-analysis gate cost record (`BENCH_analysis.json`).
//!
//! The gate runs on every CI build, so its wall time is part of the
//! edit-compile-land loop the workspace pays for. This bin times the
//! full pipeline — walk, lex, item extraction, call-graph build, every
//! pass, suppression filtering — end to end over the real tree, and
//! records the finding counts per lint and the count of in-place
//! suppressions (ratcheted down by CI) alongside, so a pass that
//! regresses (in speed *or* in silence) shows up in the same artifact
//! diff as a throughput regression would.
//!
//! The timed run is repeated and the median taken: the first iteration
//! additionally pays the page cache for ~130 source files, which is
//! exactly the cost a cold CI runner pays, so both cold and median
//! figures are recorded.
//!
//! ```text
//! cargo run -p ss-bench --release --bin analysis_report
//! ```

#![forbid(unsafe_code)]

use ss_analyze::findings::LINTS;
use ss_analyze::{analyze, walk, Analysis};
use std::time::Instant;

const RUNS: usize = 5;

fn main() {
    let root = walk::find_root(&std::env::current_dir().expect("cwd"))
        .expect("workspace root (run from inside the repo)");

    let mut times_ms: Vec<f64> = Vec::with_capacity(RUNS);
    let mut last: Option<Analysis> = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let analysis = analyze(&root).expect("analysis run");
        times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(analysis);
    }
    let analysis = last.expect("at least one run");
    let cold_ms = times_ms[0];
    let mut sorted = times_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ms = sorted[sorted.len() / 2];

    let per_lint: Vec<String> = LINTS
        .iter()
        .map(|l| {
            let n = analysis.findings.iter().filter(|f| f.lint == l.id).count();
            format!("    \"{}\": {n}", l.id)
        })
        .collect();

    // The in-place `allow` directives an empty baseline hides; the
    // `analyze` CI job fails when the live count exceeds this record.
    let allowed: Vec<String> = analysis
        .suppressions_per_lint
        .iter()
        .map(|(id, n)| format!("\"{id}\": {n}"))
        .collect();

    let json = format!(
        "{{\n  \"sources\": {},\n  \"manifests\": {},\n  \"total_findings\": {},\n  \
         \"gate_wall_ms_cold\": {:.2},\n  \"gate_wall_ms_median\": {:.2},\n  \
         \"runs\": {RUNS},\n  \"per_lint\": {{\n{}\n  }},\n  \
         \"suppressions\": {{\"total\": {}, \"per_lint\": {{{}}}}}\n}}\n",
        analysis.sources,
        analysis.manifests,
        analysis.findings.len(),
        cold_ms,
        median_ms,
        per_lint.join(",\n"),
        analysis.suppressions,
        allowed.join(", ")
    );
    std::fs::write("BENCH_analysis.json", &json).expect("write BENCH_analysis.json");
    println!("wrote BENCH_analysis.json");
    println!(
        "gate: {} sources, {} manifests, {} finding(s); cold {:.1} ms, median {:.1} ms over {RUNS} runs",
        analysis.sources,
        analysis.manifests,
        analysis.findings.len(),
        cold_ms,
        median_ms
    );
}
