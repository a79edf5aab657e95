//! Metric names, units and the two output forms: `metric` lines as each
//! figure is taken, and the final result line the driver reads.

use std::io::Write;

/// The four end-to-end metrics `(name, unit)`; every workload reports all
/// of them from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ingest_melem_s", "Melem/s"),
    ("query_p25_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The 58 per-layer metrics `(name, unit)`; all come from the traced run.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("stream.generate_melem_s", "Melem/s"),
    ("hashing.bucket_sign_ns_per_update", "ns"),
    ("hashing.point_hash_ns", "ns"),
    ("sketches.add_batch_ns_per_update", "ns"),
    ("sketches.point_estimate_ns", "ns"),
    ("core.add_batch_ns_per_update", "ns"),
    ("core.skim_us", "us"),
    ("core.skim_d18_us", "us"),
    ("core.subjoin_us", "us"),
    ("core.estimate_join_us", "us"),
    ("core.dense_count", "count"),
    ("core.ratio_error", "ratio"),
    ("core.encode_us", "us"),
    ("core.decode_us", "us"),
    ("core.state_bytes", "bytes"),
    ("core.dyadic_add_batch_ns_per_update", "ns"),
    ("core.dyadic_estimate_join_us", "us"),
    ("ingest.dispatch_ns_per_update", "ns"),
    ("ingest.pool_added_ns_per_update", "ns"),
    ("ingest.snapshot_idle_us", "us"),
    ("ingest.snapshot_busy_us", "us"),
    ("ingest.refused_share", "ratio"),
    ("wire.encode_ns_per_update", "ns"),
    ("wire.decode_ns_per_update", "ns"),
    ("wire.bytes_per_update", "bytes"),
    ("wire.crc_gb_s", "GB/s"),
    ("durability.append_ns_per_update", "ns"),
    ("durability.append_fsync_ns_per_update", "ns"),
    ("durability.wal_bytes_per_update", "bytes"),
    ("durability.recover_s_per_melem", "s/Melem"),
    ("durability.snapshot_install_us", "us"),
    ("server.unseq_ns_per_update", "ns"),
    ("server.seq_ns_per_update", "ns"),
    ("server.seq_wal_ns_per_update", "ns"),
    ("server.wire_added_ns_per_update", "ns"),
    ("server.throttle_share", "ratio"),
    ("server.query_added_us", "us"),
    ("server.query_p50_us", "us"),
    ("server.query_p99_us", "us"),
    ("server.mixed_query_wait_us", "us"),
    ("server.gate_wait_us", "us"),
    ("server.repl_batch_ack_p50_us", "us"),
    ("server.repl_batch_ack_p95_us", "us"),
    ("server.replica_lag_bytes_max", "bytes"),
    ("server.bootstrap_s_per_melem", "s/Melem"),
    ("server.recovery_s_per_melem", "s/Melem"),
    ("server.promote_first_answer_ms", "ms"),
    ("cluster.split_ns_per_update", "ns"),
    ("cluster.routed_s2_ns_per_update", "ns"),
    ("cluster.router_added_ns_per_update", "ns"),
    ("cluster.shard_query_us", "us"),
    ("cluster.shard_query_bytes", "bytes"),
    ("cluster.merge_us", "us"),
    ("cluster.routed_query_added_us", "us"),
    ("cluster.degraded_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("host.spin_slow_share", "ratio"),
    ("host.handoff_p25_us", "us"),
];

/// Every figure one run took, in the order taken.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Records a figure and prints its `metric` line.
    pub fn push(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        println!("metric {name} {value} {unit} n={n}");
        self.metrics.push((name.to_string(), value));
    }

    /// Records a figure whose unit the metric tables fix.
    pub fn push_named(&mut self, name: &str, value: f64, n: usize) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(m, _)| *m == name)
            .map_or("", |(_, u)| u);
        self.push(name, value, unit, n);
    }

    /// The recorded value of `name`, if it was taken and is a number.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m == name)
            .map(|&(_, value)| value)
            .filter(|v| v.is_finite())
    }

    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the last holding exactly the metrics of `wanted` that
    /// were taken.
    pub fn result_line(&self, wanted: &[(&str, &str)], attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|(name, unit)| {
                let value = self.get(name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        let complete = metrics.len() == wanted.len();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && complete,
            attempted.max(1),
            metrics.join(", ")
        )
    }
}

/// Prints the result line last and flushes, so it is the final line of
/// standard output whatever else was buffered.
pub fn finish(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(text.matches(&entry).count(), 1, "{entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\", \"why\":")),
                "{w}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.push_named("setup_s", 1.25, 5);
        r.push_named("ingest_melem_s", 28.5, 300);
        r.push_named("query_p25_us", 4500.0, 300);
        r.push("extra.diagnostic", 1.0, "us", 1);
        let partial = r.result_line(&END_TO_END, 10, 0);
        assert!(partial.starts_with("{\"correct\": false"), "{partial}");
        r.push_named("peak_rss_mb", 41.0, 1);
        let line = r.result_line(&END_TO_END, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ingest_melem_s\": {\"value\": 28.5, \"unit\": \"Melem/s\"}, \
             \"query_p25_us\": {\"value\": 4500, \"unit\": \"us\"}, \
             \"peak_rss_mb\": {\"value\": 41, \"unit\": \"MiB\"}}}"
        );
        assert!(r
            .result_line(&END_TO_END, 10, 1)
            .contains("\"correct\": false"));
    }
}
