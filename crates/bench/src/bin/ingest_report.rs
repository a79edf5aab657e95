//! Ingestion-throughput report: scalar vs batched vs multi-core.
//!
//! Measures the element-at-a-time update path against the
//! loop-interchanged `update_batch` kernels on the hash sketch, and the
//! sharded [`stream_ingest::ingest_parallel`] pool at 1/2/4/8 workers,
//! then the read side's SKIMDENSE scan — the blocked extraction kernel
//! against the per-value scalar definition it replaced — and writes the
//! numbers to `BENCH_update.json` in the current directory so successive
//! PRs can track the trajectory.
//!
//! Every configuration is cross-checked for bit-identical counters before
//! its timing is recorded — a fast kernel that changes the sketch would
//! be a correctness bug, not an optimisation.
//!
//! Run: `cargo run -p ss-bench --release --bin ingest_report`

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use skimmed_sketch::ThresholdPolicy;
use std::hint::black_box;
use std::time::Instant;
use stream_model::gen::ZipfGenerator;
use stream_model::update::StreamSink;
use stream_model::{Domain, Update};
use stream_sketches::{HashSketch, HashSketchSchema};

const N: usize = 400_000;
const REPS: usize = 5;

/// Best-of-`reps` wall time of `f`, seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`REPS` throughput in Melem/s for `f` ingesting `n` elements.
fn best_melem_s(n: usize, f: impl FnMut()) -> f64 {
    n as f64 / best_secs(REPS, f) / 1e6
}

fn workload() -> Vec<Update> {
    let domain = Domain::with_log2(18);
    let mut rng = StdRng::seed_from_u64(7);
    let z = ZipfGenerator::new(domain, 1.0, 0);
    (0..N).map(|_| Update::insert(z.sample(&mut rng))).collect()
}

/// Repetitions of the scan timings: a scan is half a millisecond, so many
/// more than `REPS` fit in the time one ingest pass takes, and the minimum
/// of few is noisy on a shared host.
const SCAN_REPS: usize = 60;

/// SKIMDENSE phase 1 over a 2^14 domain at the serving shape (7 × 256,
/// Zipf 1.0, the default policy's threshold): the scalar definition —
/// `point_estimate` per value — against `HashSketch::extract_dense`.
/// Returns the `skim_scan` JSON object.
fn skim_scan_report() -> String {
    const DOMAIN_LOG2: u32 = 14;
    let domain = Domain::with_log2(DOMAIN_LOG2);
    let mut rng = StdRng::seed_from_u64(11);
    let updates = ZipfGenerator::new(domain, 1.0, 0).generate(&mut rng, N);
    let mut sk = HashSketch::new(HashSketchSchema::new(7, 256, 42));
    sk.add_batch(&updates);
    let threshold = ThresholdPolicy::default().threshold(&sk, N as u64);
    let oracle = |sk: &HashSketch| ss_bench::scalar_scan(sk, domain.size(), threshold);
    let kernel = |sk: &HashSketch| {
        let [dense] = HashSketch::extract_dense([(sk, threshold)], 0..domain.size());
        dense
    };
    let want = oracle(&sk);
    assert!(!want.is_empty(), "the scan must extract something");
    assert_eq!(
        kernel(&sk),
        want,
        "extraction kernel must equal the scalar scan"
    );
    let scalar_us = 1e6
        * best_secs(SCAN_REPS, || {
            black_box(oracle(black_box(&sk)));
        });
    let kernel_us = 1e6
        * best_secs(SCAN_REPS, || {
            black_box(kernel(black_box(&sk)));
        });
    let speedup = scalar_us / kernel_us;
    println!();
    println!(
        "SKIMDENSE scan (2^{DOMAIN_LOG2} values, 7 x 256, T = {threshold}, {} dense, best of {SCAN_REPS}):",
        want.len()
    );
    println!("  scalar point_estimate per value {scalar_us:>10.1} us");
    println!("  blocked extract_dense           {kernel_us:>10.1} us   {speedup:.2}x");
    format!(
        "{{\"domain_log2\": {DOMAIN_LOG2}, \"tables\": 7, \"buckets\": 256, \
         \"threshold\": {threshold}, \"dense\": {}, \"scalar_us\": {scalar_us:.1}, \
         \"kernel_us\": {kernel_us:.1}, \"speedup\": {speedup:.3}, \"bit_identical\": true}}",
        want.len()
    )
}

fn main() {
    let updates = workload();
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    // --- scalar vs batched, sweeping synopsis size -----------------------
    let mut batched_rows = Vec::new();
    println!("scalar vs batched (hash sketch, {N} Zipf(1.0) elements, best of {REPS}):");
    println!(
        "{:>8} {:>14} {:>14} {:>9}",
        "words", "scalar Melem/s", "batch Melem/s", "speedup"
    );
    for &words in &[512usize, 2048, 8192] {
        let schema = HashSketchSchema::new(8, words / 8, 2);

        let mut scalar_sk = HashSketch::new(schema.clone());
        let mut batch_sk = HashSketch::new(schema.clone());
        scalar_sk.extend_updates(updates.iter().copied());
        batch_sk.add_batch(&updates);
        assert_eq!(
            scalar_sk.counters(),
            batch_sk.counters(),
            "batch kernel must be bit-identical at {words} words"
        );

        let mut sk = HashSketch::new(schema.clone());
        let scalar = best_melem_s(N, || {
            for &u in &updates {
                sk.update(u);
            }
        });
        let mut sk = HashSketch::new(schema.clone());
        let batched = best_melem_s(N, || sk.add_batch(&updates));
        let speedup = batched / scalar;
        println!("{words:>8} {scalar:>14.2} {batched:>14.2} {speedup:>8.2}x");
        batched_rows.push(format!(
            "    {{\"words\": {words}, \"scalar_melem_s\": {scalar:.3}, \
             \"batched_melem_s\": {batched:.3}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // --- parallel pool scaling ------------------------------------------
    let schema = HashSketchSchema::new(8, 1024, 5);
    let mut reference = HashSketch::new(schema.clone());
    reference.add_batch(&updates);

    // On a 1-CPU host the thread pool time-slices one core, so the
    // "speedup" column would only report scheduler noise; mark the group
    // degenerate and omit the misleading ratio instead.
    let degenerate = host_cpus == 1;
    let mut parallel_rows = Vec::new();
    let mut base = 0.0f64;
    println!();
    println!(
        "sharded parallel ingest (hash sketch, 8192 words, chunk 4096), host cpus = {host_cpus}:"
    );
    if degenerate {
        println!("{:>8} {:>14}", "threads", "Melem/s");
    } else {
        println!("{:>8} {:>14} {:>14}", "threads", "Melem/s", "vs 1-thread");
    }
    for &threads in &[1usize, 2, 4, 8] {
        let got = stream_ingest::ingest_parallel(&updates, threads, 4096, || {
            HashSketch::new(schema.clone())
        });
        assert_eq!(
            got.counters(),
            reference.counters(),
            "parallel ingest must be bit-identical at {threads} threads"
        );
        let melem = best_melem_s(N, || {
            std::hint::black_box(stream_ingest::ingest_parallel(
                &updates,
                threads,
                4096,
                || HashSketch::new(schema.clone()),
            ));
        });
        if threads == 1 {
            base = melem;
        }
        if degenerate {
            println!("{threads:>8} {melem:>14.2}");
            parallel_rows.push(format!(
                "    {{\"threads\": {threads}, \"melem_s\": {melem:.3}}}"
            ));
        } else {
            let speedup = melem / base;
            println!("{threads:>8} {melem:>14.2} {speedup:>13.2}x");
            parallel_rows.push(format!(
                "    {{\"threads\": {threads}, \"melem_s\": {melem:.3}, \"speedup_vs_1\": {speedup:.3}}}"
            ));
        }
    }
    if host_cpus < 4 {
        println!("  (host exposes {host_cpus} cpu(s): thread scaling cannot exceed 1x here;");
        println!("   rerun on a multi-core host to see the pool's speedup)");
    }

    // --- the read side -----------------------------------------------------
    let skim_scan = skim_scan_report();

    // --- emit ------------------------------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"update\",\n  \"elements\": {N},\n  \"reps\": {REPS},\n  \
         \"host_cpus\": {host_cpus},\n  \"batched_hash_sketch\": [\n{}\n  ],\n  \
         \"parallel_hash_sketch_8192_words\": {{\"degenerate\": {degenerate}, \"rows\": [\n{}\n  ]}},\n  \
         \"skim_scan\": {skim_scan},\n  \
         \"bit_identical\": true\n}}\n",
        batched_rows.join(",\n"),
        parallel_rows.join(",\n"),
    );
    std::fs::write("BENCH_update.json", &json).expect("write BENCH_update.json");
    println!();
    println!("wrote BENCH_update.json");
}
