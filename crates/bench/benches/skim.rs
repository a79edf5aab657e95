//! SKIMDENSE extraction cost: the O(N·s1) domain scan versus the dyadic
//! O(dense·s1·log N) descent (§4.2's claim), across domain sizes — and,
//! for the scan's phase 1 alone, the blocked extraction kernel against the
//! per-value scalar definition, 2^12…2^20, so the scan/dyadic crossover is
//! a curve (`skim/extract-kernel/*` against `skim/dyadic/*`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use skimmed_sketch::skim::skim_dense_scan;
use skimmed_sketch::{DyadicHashSketch, DyadicSchema};
use std::hint::black_box;
use stream_model::gen::ZipfGenerator;
use stream_model::update::StreamSink;
use stream_model::Domain;
use stream_sketches::{HashSketch, HashSketchSchema};

fn bench_skim(c: &mut Criterion) {
    let mut scan_group = c.benchmark_group("skim/naive-scan");
    scan_group.sample_size(10);
    for &log2 in &[12u32, 14, 16, 18] {
        let domain = Domain::with_log2(log2);
        let mut rng = StdRng::seed_from_u64(1);
        let updates = ZipfGenerator::new(domain, 1.2, 0).generate(&mut rng, 100_000);
        let schema = HashSketchSchema::new(7, 512, 2);
        let mut base = HashSketch::new(schema);
        for &u in &updates {
            base.update(u);
        }
        scan_group.bench_with_input(BenchmarkId::from_parameter(log2), &log2, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut sk| black_box(skim_dense_scan(&mut sk, domain, 200)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    scan_group.finish();

    let mut dy_group = c.benchmark_group("skim/dyadic");
    dy_group.sample_size(10);
    for &log2 in &[12u32, 14, 16, 18] {
        let domain = Domain::with_log2(log2);
        let mut rng = StdRng::seed_from_u64(1);
        let updates = ZipfGenerator::new(domain, 1.2, 0).generate(&mut rng, 100_000);
        let schema = DyadicSchema::new(domain, 7, 512, 2);
        let mut base = DyadicHashSketch::new(schema);
        for &u in &updates {
            base.update(u);
        }
        dy_group.bench_with_input(BenchmarkId::from_parameter(log2), &log2, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut sk| black_box(sk.skim_dense(200, 1 << 16)),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    dy_group.finish();

    // Phase 1 only (no clone, no subtraction): what the kernel replaced.
    for (name, kernel) in [
        ("skim/extract-scalar", false),
        ("skim/extract-kernel", true),
    ] {
        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        for &log2 in &[12u32, 14, 16, 18, 20] {
            let domain = Domain::with_log2(log2);
            let mut rng = StdRng::seed_from_u64(1);
            let updates = ZipfGenerator::new(domain, 1.2, 0).generate(&mut rng, 100_000);
            let mut sk = HashSketch::new(HashSketchSchema::new(7, 512, 2));
            sk.add_batch(&updates);
            group.bench_with_input(BenchmarkId::from_parameter(log2), &log2, |b, _| {
                b.iter(|| {
                    if kernel {
                        let [dense] = HashSketch::extract_dense([(&sk, 200)], 0..domain.size());
                        black_box(dense)
                    } else {
                        black_box(ss_bench::scalar_scan(&sk, domain.size(), 200))
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_skim);
criterion_main!(benches);
