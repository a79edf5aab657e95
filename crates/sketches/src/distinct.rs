//! KMV (k-minimum-values) distinct-count synopsis.
//!
//! The paper's related work covers distinct-value estimation \[6, 7\] as a
//! sibling problem, and the query engine needs it for `COUNT DISTINCT`
//! variants of its aggregates (and for reporting `F₀` of a stream without
//! the exact reference). KMV keeps the `k` smallest hash values seen; with
//! `m ≥ k` distinct elements, the `k`-th smallest hash `h₍ₖ₎` satisfies
//! `E[h₍ₖ₎/2⁶⁴] ≈ k/m`, so `(k−1)/normalized(h₍ₖ₎)` estimates `m` with
//! relative error `O(1/√k)`.
//!
//! Unlike the linear sketches, KMV is insert-only (a deletion would need
//! to know whether other copies remain) — the classic trade-off the
//! paper's linearity discussion highlights; we document rather than hide
//! it, and `DistinctSketch::update` ignores deletes by design, counting
//! *ever-seen* distinct values.

use std::collections::BTreeSet;
use stream_hash::SeedSequence;
use stream_hash::TabulationHash;
use stream_model::update::{StreamSink, Update};

/// A KMV sketch estimating the number of distinct values ever inserted.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    hash: TabulationHash,
    k: usize,
    /// The k smallest distinct hash values seen.
    mins: BTreeSet<u64>,
}

impl DistinctSketch {
    /// A sketch keeping `k ≥ 2` minima, seeded from `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "k must be at least 2");
        Self {
            // Full 64-bit range; tabulation is plenty for KMV.
            hash: TabulationHash::from_seed(SeedSequence::new(seed).fork(0xD157), usize::MAX),
            k,
            mins: BTreeSet::new(),
        }
    }

    /// Observes a value.
    pub fn observe(&mut self, v: u64) {
        let h = self.hash.hash(v);
        if self.mins.len() < self.k {
            self.mins.insert(h);
            return;
        }
        let current_max = *self.mins.iter().next_back().expect("nonempty");
        if h < current_max && !self.mins.contains(&h) {
            self.mins.insert(h);
            self.mins.remove(&current_max);
        }
    }

    /// Estimated number of distinct values observed.
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            // Fewer than k distinct hashes seen: the set is (whp) exact.
            return self.mins.len() as f64;
        }
        let kth = *self.mins.iter().next_back().expect("nonempty");
        let normalized = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / normalized
    }

    /// Merges another sketch built with the same `k` and seed (union
    /// semantics: the estimate covers values seen by either).
    pub fn merge_from(&mut self, other: &DistinctSketch) {
        assert_eq!(self.k, other.k, "k mismatch");
        for &h in &other.mins {
            self.mins.insert(h);
        }
        while self.mins.len() > self.k {
            self.mins.pop_last();
        }
    }

    /// Memory footprint in retained hash values.
    pub fn retained(&self) -> usize {
        self.mins.len()
    }
}

impl StreamSink for DistinctSketch {
    fn update(&mut self, u: Update) {
        // Deletions cannot be reflected without per-value multiplicity;
        // KMV counts ever-seen distinct values (documented semantics).
        if u.weight > 0 {
            self.observe(u.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_below_k() {
        let mut sk = DistinctSketch::new(64, 1);
        for v in 0..50u64 {
            sk.observe(v);
            sk.observe(v); // duplicates must not inflate
        }
        assert_eq!(sk.estimate(), 50.0);
    }

    #[test]
    fn estimates_large_cardinalities() {
        let mut sk = DistinctSketch::new(256, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let truth = 100_000u64;
        for _ in 0..300_000 {
            sk.observe(rng.gen_range(0..truth));
        }
        // Not all 100k values will be drawn; compute the exact count.
        let mut seen = std::collections::HashSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300_000 {
            seen.insert(rng.gen_range(0..truth));
        }
        let est = sk.estimate();
        let rel = (est - seen.len() as f64).abs() / seen.len() as f64;
        // k = 256 → stderr ≈ 1/16 ≈ 6%; allow 3 sigma.
        assert!(rel < 0.2, "est={est} truth={} rel={rel}", seen.len());
    }

    #[test]
    fn duplicates_do_not_move_the_estimate() {
        let mut a = DistinctSketch::new(64, 4);
        let mut b = DistinctSketch::new(64, 4);
        for v in 0..1000u64 {
            a.observe(v);
            b.observe(v);
            b.observe(v);
            b.observe(v);
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn merge_is_union() {
        let mut a = DistinctSketch::new(128, 5);
        let mut b = DistinctSketch::new(128, 5);
        let mut all = DistinctSketch::new(128, 5);
        for v in 0..5000u64 {
            if v % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        a.merge_from(&b);
        assert_eq!(a.estimate(), all.estimate());
        assert!(a.retained() <= 128);
    }

    #[test]
    fn deletes_are_ignored_by_design() {
        let mut sk = DistinctSketch::new(16, 6);
        sk.update(Update::insert(7));
        sk.update(Update::delete(7));
        assert_eq!(sk.estimate(), 1.0, "KMV counts ever-seen values");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_k_rejected() {
        let _ = DistinctSketch::new(1, 0);
    }
}
