//! SKIMDENSE — extracting dense frequencies out of a hash sketch.
//!
//! This is Fig. 3 of the paper (the CountSketch variant adapted to
//! *skimming*): estimate every candidate value from the sketch, keep those
//! whose estimate clears the threshold, then **subtract the estimates back
//! out of the sketch**, leaving a *skimmed* sketch that summarizes only the
//! residual (sparse) frequencies. Theorem 4's guarantees — residuals below
//! the threshold, and skimmed frequencies never overshooting the original —
//! hold w.h.p. and are property-tested in this module and in
//! `tests/skim_properties.rs`.
//!
//! Every extraction in this crate — the full-domain scan, an explicit
//! candidate list, each level of the dyadic descent in [`crate::dyadic`] —
//! is a key sequence fed to the one blocked kernel
//! [`HashSketch::extract_dense`], which evaluates bucket and sign hashes
//! 256 keys at a time and computes a median only for the keys that clear
//! the threshold. The scan still costs `O(|domain| · s1)` hash
//! evaluations; the dyadic variant brings that down to
//! `O(poly · log |domain|)` at `log |domain|` times the update cost.

use crate::extracted::ExtractedDense;
use stream_model::Domain;
use stream_sketches::HashSketch;

/// SKIMDENSE phase 1 (paper steps 3–7) through the blocked kernel, counted:
/// per `(sketch, T)`, the keys whose estimate is `≥ T` or `≤ −T`, with
/// their estimates, in key order.
pub(crate) fn extract<const N: usize>(
    sketches: [(&HashSketch, i64); N],
    keys: impl IntoIterator<Item = u64>,
) -> [Vec<(u64, i64)>; N] {
    let Some(metrics) = stream_telemetry::ENABLED.then(crate::telem::skim_metrics) else {
        return HashSketch::extract_dense(sketches, keys);
    };
    let mut scanned = 0usize;
    let found = HashSketch::extract_dense(sketches, keys.into_iter().inspect(|_| scanned += 1));
    metrics.note_scan(scanned * N, found.iter().map(Vec::len).sum());
    found
}

/// SKIMDENSE over the key sequence `keys`, for each `(sketch, T)` of
/// `sketches` (one, or several under one schema — the hashes of a key are
/// then evaluated once and probed in every sketch): extracts the keys with
/// `|estimate| ≥ T`, subtracts them from the sketch in place, and returns
/// the extracted dense vectors. `keys` must not repeat a value.
pub(crate) fn skim_dense<const N: usize>(
    mut sketches: [(&mut HashSketch, i64); N],
    keys: impl IntoIterator<Item = u64>,
) -> [ExtractedDense; N] {
    // Phase 1: estimate every key from the *unskimmed* sketch. Estimating
    // before any subtraction matters: subtracting while scanning would make
    // later estimates depend on scan order.
    let found = extract(
        std::array::from_fn(|k| (&*sketches[k].0, sketches[k].1)),
        keys,
    );
    // Phase 2 (paper steps 8–9): skim the extracted estimates out.
    for ((sketch, _), entries) in sketches.iter_mut().zip(&found) {
        for &(v, est) in entries {
            sketch.add_weighted(v, est.wrapping_neg());
        }
    }
    found.map(ExtractedDense::from_entries)
}

/// Runs SKIMDENSE over the whole of `domain`: extracts every value with
/// `|estimate| ≥ threshold`, subtracts them from the sketch in place, and
/// returns the extracted dense vector.
pub fn skim_dense_scan(sketch: &mut HashSketch, domain: Domain, threshold: i64) -> ExtractedDense {
    let [dense] = skim_dense([(sketch, threshold)], 0..domain.size());
    dense
}

/// Like [`skim_dense_scan`] but restricted to an explicit candidate list
/// (the dyadic descent produces one); values outside `candidates` are never
/// extracted.
pub fn skim_dense_candidates(
    sketch: &mut HashSketch,
    candidates: &[u64],
    threshold: i64,
) -> ExtractedDense {
    let [dense] = skim_dense([(sketch, threshold)], candidates.iter().copied());
    dense
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stream_model::gen::ZipfGenerator;
    use stream_model::update::StreamSink;
    use stream_model::{FrequencyVector, Update};
    use stream_sketches::{HashSketch, HashSketchSchema};

    fn build(
        domain_log2: u32,
        updates: &[Update],
        tables: usize,
        buckets: usize,
        seed: u64,
    ) -> (FrequencyVector, HashSketch) {
        let d = Domain::with_log2(domain_log2);
        let fv = FrequencyVector::from_updates(d, updates.iter().copied());
        let schema = HashSketchSchema::new(tables, buckets, seed);
        let mut sk = HashSketch::new(schema);
        for &u in updates {
            sk.update(u);
        }
        (fv, sk)
    }

    #[test]
    fn extracts_exactly_the_planted_heads_on_clean_data() {
        // Three tall values over light uniform noise; T cleanly separates.
        let d = Domain::with_log2(10);
        let mut updates: Vec<Update> = Vec::new();
        for (v, w) in [(3u64, 500i64), (700, 800), (512, 300)] {
            updates.push(Update::with_measure(v, w));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let noise = ZipfGenerator::new(d, 0.0, 0).generate(&mut rng, 2000);
        updates.extend(noise);
        let (fv, mut sk) = build(10, &updates, 7, 256, 5);
        let dense = skim_dense_scan(&mut sk, d, 150);
        let got: Vec<u64> = dense.iter().map(|(v, _)| v).collect();
        assert!(
            got.contains(&3) && got.contains(&700) && got.contains(&512),
            "got={got:?}"
        );
        // Estimates within the CountSketch error of the truth.
        for (v, est) in dense.iter() {
            let actual = fv.get(v);
            assert!(
                (est - actual).abs() <= 30,
                "v={v} est={est} actual={actual}"
            );
        }
    }

    #[test]
    fn residuals_stay_below_threshold() {
        // Thm 4(1): after skimming, |f(v) - f̂(v)| < T for (nearly) all v.
        let d = Domain::with_log2(12);
        let zipf = ZipfGenerator::new(d, 1.2, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let updates = zipf.generate(&mut rng, 50_000);
        let (fv, mut sk) = build(12, &updates, 7, 512, 9);
        let t = 120i64;
        let dense = skim_dense_scan(&mut sk, d, t);
        assert!(!dense.is_empty());
        let mut violations = 0;
        for v in 0..d.size() {
            let residual = fv.get(v) - dense.get(v);
            if residual.abs() >= 2 * t {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "residuals above 2T");
        // And the typical residual is below T itself.
        let above_t = (0..d.size())
            .filter(|&v| (fv.get(v) - dense.get(v)).abs() >= t)
            .count();
        assert!(above_t <= 3, "above_t={above_t}");
    }

    #[test]
    fn skimmed_sketch_summarizes_the_residual_vector() {
        // The skimmed sketch must equal a fresh sketch of (f - f̂), exactly.
        let d = Domain::with_log2(8);
        let zipf = ZipfGenerator::new(d, 1.5, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let updates = zipf.generate(&mut rng, 10_000);
        let (fv, mut sk) = build(8, &updates, 5, 128, 11);
        let schema = sk.schema().clone();
        let dense = skim_dense_scan(&mut sk, d, 50);
        let mut residual = fv.clone();
        for (v, est) in dense.iter() {
            *residual.get_mut(v) -= est;
        }
        let expect = HashSketch::from_frequencies(schema, residual.nonzero());
        assert_eq!(sk.counters(), expect.counters());
    }

    #[test]
    fn empty_sketch_extracts_nothing() {
        let d = Domain::with_log2(6);
        let schema = HashSketchSchema::new(3, 32, 1);
        let mut sk = HashSketch::new(schema);
        let dense = skim_dense_scan(&mut sk, d, 1);
        assert!(dense.is_empty());
    }

    #[test]
    fn candidates_variant_respects_candidate_list() {
        let d = Domain::with_log2(8);
        let mut updates = vec![
            Update::with_measure(10, 1000),
            Update::with_measure(20, 1000),
        ];
        updates.push(Update::insert(30));
        let (_, mut sk) = build(8, &updates, 5, 64, 13);
        // Only value 10 offered as a candidate.
        let dense = skim_dense_candidates(&mut sk, &[10], 100);
        assert_eq!(dense.len(), 1);
        assert_eq!(dense.iter().next().unwrap().0, 10);
        // 20 remains in the sketch: estimate still tall.
        assert!(sk.point_estimate(20) > 900);
        let _ = d;
    }

    #[test]
    fn skim_handles_negative_frequencies() {
        // General update streams: a strongly negative frequency is "dense"
        // in absolute value and must be skimmed too.
        let (_fv, mut sk) = build(
            6,
            &[Update::with_measure(5, -400), Update::with_measure(9, 350)],
            5,
            64,
            17,
        );
        let dense = skim_dense_scan(&mut sk, Domain::with_log2(6), 100);
        assert_eq!(dense.get(5), -400);
        assert_eq!(dense.get(9), 350);
        assert!(sk.counters().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        let schema = HashSketchSchema::new(2, 8, 0);
        let mut sk = HashSketch::new(schema);
        let _ = skim_dense_scan(&mut sk, Domain::with_log2(3), 0);
    }
}
