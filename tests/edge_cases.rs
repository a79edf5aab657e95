//! Boundary-condition tests across the workspace: degenerate shapes,
//! extreme values, empty streams, and misuse that must fail loudly.

use skimmed_sketches::prelude::*;
use stream_model::gen::ZipfGenerator;
use stream_model::{Domain, WorkloadStats};
use stream_sketches::{AgmsSchema, AgmsSketch, HashSketch, HashSketchSchema, LinearSynopsis};

#[test]
fn single_value_domain_works_end_to_end() {
    let d = Domain::with_log2(0); // one value
    assert_eq!(d.size(), 1);
    let schema = SkimmedSchema::scanning(d, 3, 4, 1);
    let mut f = SkimmedSketch::new(schema.clone());
    let mut g = SkimmedSketch::new(schema);
    for _ in 0..100 {
        f.update(Update::insert(0));
    }
    for _ in 0..50 {
        g.update(Update::insert(0));
    }
    let est = skimmed_sketch::estimate_join(&f, &g, &Default::default());
    // Join = 100 × 50 = 5000, and a single-value domain is estimated
    // exactly: the dense head is extracted on both sides.
    assert!(
        (est.estimate - 5000.0).abs() < 500.0,
        "est={}",
        est.estimate
    );
}

#[test]
fn single_bucket_single_table_sketch_is_degenerate_but_sound() {
    let schema = HashSketchSchema::new(1, 1, 2);
    let mut sk = HashSketch::new(schema);
    sk.add_weighted(3, 10);
    sk.add_weighted(9, -4);
    // Everything lands in the one counter; point estimates are coarse but
    // defined, and linear ops still hold.
    let mut neg = sk.clone();
    neg.negate();
    sk.merge_from(&neg);
    assert_eq!(sk.counters(), &[0]);
}

#[test]
fn extreme_weights_do_not_overflow_counters() {
    let schema = HashSketchSchema::new(3, 8, 3);
    let mut sk = HashSketch::new(schema);
    let big = 1i64 << 40;
    sk.add_weighted(1, big);
    sk.add_weighted(1, -big);
    assert!(sk.counters().iter().all(|&c| c == 0));
    sk.add_weighted(2, big);
    assert_eq!(sk.point_estimate(2), big);
}

#[test]
fn skim_at_the_edges_of_i64() {
    // One hostile update puts a frequency at `i64::MIN`, where `abs` and
    // negation wrap. Counters live in the two's-complement ring, so the
    // skim must still see it as the heaviest value, extract it, and
    // subtract it back out to exactly zero — in debug and release alike.
    let d = Domain::with_log2(10);
    for schema in [
        SkimmedSchema::scanning(d, 7, 256, 42),
        SkimmedSchema::dyadic(d, 7, 256, 42),
    ] {
        let mut sk = SkimmedSketch::new(schema);
        sk.update(Update::with_measure(3, i64::MIN));
        sk.update(Update::with_measure(700, i64::MAX));
        let dense = sk.skim(1 << 20, 1 << 16);
        assert_eq!(dense.get(3), i64::MIN);
        assert_eq!(dense.get(700), i64::MAX);
        assert_eq!(dense.len(), 2);
        for level in sk.level_counters() {
            assert!(level.iter().all(|&c| c == 0), "residual after the skim");
        }
    }
}

#[test]
fn agms_single_cell_schema() {
    let schema = AgmsSchema::new(1, 1, 4);
    let mut f = AgmsSketch::new(schema.clone());
    let mut g = AgmsSketch::new(schema);
    f.add_weighted(5, 7);
    g.add_weighted(5, 3);
    // One atomic sketch: X_F·X_G = (7ξ)(3ξ) = 21 exactly.
    assert_eq!(f.estimate_join(&g), 21.0);
}

#[test]
fn estimating_empty_against_nonempty_is_zero_mean() {
    let d = Domain::with_log2(10);
    let schema = SkimmedSchema::scanning(d, 5, 64, 5);
    let f = SkimmedSketch::new(schema.clone());
    let mut g = SkimmedSketch::new(schema);
    for v in 0..1000 {
        g.update(Update::insert(v % 1024));
    }
    let est = skimmed_sketch::estimate_join(&f, &g, &Default::default());
    assert_eq!(est.estimate, 0.0, "empty sketch joins to exactly zero");
}

#[test]
fn values_at_domain_edges() {
    let d = Domain::with_log2(16);
    let schema = SkimmedSchema::dyadic(d, 5, 128, 6);
    let mut sk = SkimmedSketch::new(schema);
    sk.add_weighted(0, 500);
    sk.add_weighted(d.size() - 1, 700);
    let dense = sk.skim(100, 1 << 16);
    assert_eq!(dense.get(0), 500);
    assert_eq!(dense.get(d.size() - 1), 700);
}

#[test]
fn workload_stats_handles_negative_frequencies() {
    let d = Domain::with_log2(4);
    let mut fv = FrequencyVector::new(d);
    for v in 0..16 {
        fv.update(Update::with_measure(v, -((v as i64) + 1)));
    }
    let s = WorkloadStats::of(&fv);
    assert_eq!(s.distinct, 16);
    assert_eq!(s.l1, (1..=16).sum::<i64>());
    assert_eq!(s.max, 16);
}

#[test]
fn all_mass_on_one_value_is_fully_dense() {
    let d = Domain::with_log2(12);
    let schema = SkimmedSchema::scanning(d, 7, 256, 7);
    let mut f = SkimmedSketch::new(schema.clone());
    let mut g = SkimmedSketch::new(schema);
    for _ in 0..10_000 {
        f.update(Update::insert(42));
        g.update(Update::insert(42));
    }
    let est = skimmed_sketch::estimate_join(&f, &g, &Default::default());
    assert_eq!(est.dense_f, 1);
    assert_eq!(est.dense_g, 1);
    // Dense⋈dense carries everything, computed exactly.
    assert_eq!(est.estimate, est.dense_dense);
    assert!(
        (est.estimate - 1e8).abs() / 1e8 < 0.01,
        "est={}",
        est.estimate
    );
}

#[test]
fn uniform_stream_skims_nothing_but_still_estimates() {
    // No dense values at all: the estimator degrades gracefully to the
    // bucket-product path.
    let d = Domain::with_log2(12);
    let schema = SkimmedSchema::scanning(d, 7, 512, 8);
    let mut f = SkimmedSketch::new(schema.clone());
    let mut g = SkimmedSketch::new(schema);
    let mut fv = FrequencyVector::new(d);
    let mut gv = FrequencyVector::new(d);
    let zipf = ZipfGenerator::new(d, 0.0, 0); // uniform
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    use rand::SeedableRng;
    for _ in 0..40_000 {
        let a = zipf.sample(&mut rng);
        let b = zipf.sample(&mut rng);
        f.update(Update::insert(a));
        g.update(Update::insert(b));
        fv.update(Update::insert(a));
        gv.update(Update::insert(b));
    }
    let est = skimmed_sketch::estimate_join(&f, &g, &Default::default());
    assert_eq!(
        est.dense_f + est.dense_g,
        0,
        "uniform data has no dense values"
    );
    let actual = fv.join(&gv) as f64;
    let err = stream_model::ratio_error(est.estimate, actual);
    assert!(err < 0.2, "err={err}");
}

#[test]
fn domain_covering_extremes() {
    assert_eq!(Domain::covering(1).log2_size(), 0);
    assert_eq!(Domain::covering(u64::MAX).log2_size(), 63);
    assert_eq!(Domain::with_log2(63).size(), 1u64 << 63);
}
