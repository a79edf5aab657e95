//! `repeat`: the benchmark's own A/A check.
//!
//! Runs the four workloads round-robin `--runs` times, a different seed
//! each run, a fresh process each, and prints per (metric, workload) the
//! median, `(Q3 − Q1) / median` exactly as the driver computes it
//! (`statistics.quantiles(n=4)`), `(max − min) / median`, and PASS/FAIL
//! against **half** the metric's bound. Runs the host probe found
//! disturbed are marked, never dropped.

use crate::report::END_TO_END;
use crate::run::child;
use crate::stats;
use crate::workloads::WORKLOADS;
use crate::Args;

/// `BENCHMARK.json` at the repository root: the one place the bounds live.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The `bound` of the metric `name` in the text of `BENCHMARK.json`: how
/// far its median may worsen before the pipeline calls it a regression.
fn bound_of(json: &str, name: &str) -> Option<f64> {
    let entry = &json[json.find(&format!("\"name\": \"{name}\""))?..];
    let entry = &entry[..entry.find('}')?];
    let value = &entry[entry.find("\"bound\":")? + "\"bound\":".len()..];
    value.trim().parse().ok()
}

/// The bound of every end-to-end metric, in [`END_TO_END`] order.
fn bounds() -> Result<Vec<f64>, String> {
    let json = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("read {BENCHMARK_JSON}: {e}"))?;
    END_TO_END
        .iter()
        .map(|(name, _)| {
            bound_of(&json, name).ok_or(format!("{BENCHMARK_JSON} gives {name} no bound"))
        })
        .collect()
}

/// A run whose `host.spin_slow_share` exceeds this is marked disturbed.
const DISTURBED: f64 = 0.5;

/// The value of `metric <name> <value> ...` in a run's output.
fn metric(stdout: &str, name: &str) -> Option<f64> {
    stdout.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some("metric") && words.next() == Some(name))
            .then(|| words.next()?.parse().ok())
            .flatten()
    })
}

/// Runs the A/A check; returns whether every run passed its gates and
/// every pair stayed within half its bound.
pub fn repeat(args: &Args) -> bool {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("FAILED repeat: {e}");
            return false;
        }
    };
    // values[workload][metric] = one value per run.
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut disturbed = vec![Vec::<usize>::new(); WORKLOADS.len()];
    let mut ok = true;
    for run in 0..args.runs {
        let seed = args.seed + run as u64;
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let (passed, stdout) = match child(workload, seed, args.seconds, false) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("FAILED {workload} seed {seed}: {e}");
                    ok = false;
                    continue;
                }
            };
            ok &= passed;
            let spin = metric(&stdout, "host.spin_slow_share").unwrap_or(0.0);
            if spin > DISTURBED {
                disturbed[w].push(run);
            }
            let mut row = format!("run {run} seed {seed} {workload:<12}");
            for (m, (name, _)) in END_TO_END.iter().enumerate() {
                match metric(&stdout, name) {
                    Some(v) => {
                        values[w][m].push(v);
                        row.push_str(&format!(" {name} {v:.4}"));
                    }
                    None => {
                        ok = false;
                        row.push_str(&format!(" {name} MISSING"));
                    }
                }
            }
            println!(
                "{row} host.spin_slow_share {spin:.2}{}{}",
                if spin > DISTURBED {
                    " host-disturbed"
                } else {
                    ""
                },
                if passed { "" } else { " GATES-FAILED" }
            );
        }
    }

    println!();
    println!(
        "{:<15} {:<13} {:>12} {:>9} {:>9} {:>7}  verdict",
        "metric", "workload", "median", "iqr/med", "range/med", "limit"
    );
    for (m, ((name, _), bound)) in END_TO_END.iter().zip(&bounds).enumerate() {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let v = &values[w][m];
            if v.len() < 2 {
                println!("{name:<15} {workload:<13} too few runs");
                ok = false;
                continue;
            }
            let (median, iqr, range) = stats::spreads(v);
            let pass = iqr <= bound / 2.0;
            ok &= pass;
            let note = if disturbed[w].is_empty() {
                String::new()
            } else {
                format!("  host-disturbed runs {:?}", disturbed[w])
            };
            println!(
                "{name:<15} {workload:<13} {median:>12.4} {:>8.2}% {:>8.2}% {:>6.2}%  {}{note}",
                iqr * 100.0,
                range * 100.0,
                bound * 50.0,
                if pass { "PASS" } else { "FAIL" },
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse() {
        let out =
            "workload x\nmetric setup_s 1.25 s n=3\nmetric host.spin_slow_share 0 ratio n=25\n{}";
        assert_eq!(metric(out, "setup_s"), Some(1.25));
        assert_eq!(metric(out, "host.spin_slow_share"), Some(0.0));
        assert_eq!(metric(out, "setup"), None);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let json = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05}],
            "per_layer": [{"name": "core.skim_us", "unit": "us", "better": "lower"}]}"#;
        assert_eq!(bound_of(json, "setup_s"), Some(0.25));
        assert_eq!(bound_of(json, "peak_rss_mb"), Some(0.05));
        assert_eq!(
            bound_of(json, "core.skim_us"),
            None,
            "per-layer metrics have none"
        );
        assert_eq!(bound_of(json, "absent"), None);
        // The real file bounds every end-to-end metric, within the
        // contract's cap, set-up time the widest.
        let bounds = bounds().expect("BENCHMARK.json at the repository root");
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds
            .iter()
            .all(|&b| b > 0.0 && b <= 0.25 && b <= bounds[0]));
    }
}
