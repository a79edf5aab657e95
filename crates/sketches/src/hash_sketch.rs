//! The hash-sketch data structure (CountSketch of Charikar, Chen &
//! Farach-Colton \[8\]) — the synopsis the skimmed-sketch algorithm is built
//! on.
//!
//! An array of `s1` hash tables, each with `b` buckets, each bucket a
//! single AMS counter over the values that hash into it:
//! `C[i][q] = Σ_{v : h_i(v) = q} f(v)·ξ_i(v)`. Per update only **one**
//! counter per table changes — `O(s1)` work versus the `O(s1·s2)` of basic
//! AGMS — which is the paper's guaranteed-logarithmic update cost.
//!
//! `point_estimate(v) = median_i ξ_i(v)·C[i][h_i(v)]` recovers `f(v)` to
//! within `Δ = O(√(F₂/b))` with high probability (Thm 3), the property
//! SKIMDENSE uses to pull the dense values out.

use crate::linear::LinearSynopsis;
use std::sync::{Arc, OnceLock};
use stream_hash::lanes;
use stream_hash::prime::{mul_mod, reduce};
use stream_hash::{PairwiseHash, SeedSequence, SignFamily};
use stream_model::metrics::{median_i128, median_i64};
use stream_model::update::{StreamSink, Update};

/// Batch updates are processed in chunks of this many elements so the
/// per-chunk scratch (reduced keys, weights, buckets, signs) lives on the
/// stack and stays in L1 while the outer loop walks the tables.
pub(crate) const BATCH_CHUNK: usize = 256;

/// Tables at or below this count get a stack-allocated median scratch in
/// [`HashSketch::point_estimate`] (any realistic `s1` is far below it).
const MAX_STACK_TABLES: usize = 64;

/// Per-table hash functions shared by all compatible hash sketches.
///
/// The skimmed-sketch join estimator requires the two streams' sketches to
/// use identical `h_i` *and* `ξ_i`; build both sketches from one
/// `Arc<HashSketchSchema>`.
#[derive(Debug)]
pub struct HashSketchSchema {
    tables: usize,
    buckets: usize,
    seed: u64,
    bucket_hash: Vec<PairwiseHash>,
    sign: Vec<SignFamily>,
}

impl HashSketchSchema {
    /// Creates a schema with `tables` (= `s1`) hash tables of `buckets`
    /// (= `b`) counters each, derived deterministically from `seed`.
    pub fn new(tables: usize, buckets: usize, seed: u64) -> Arc<Self> {
        assert!(tables > 0 && buckets > 0, "schema must be non-degenerate");
        let root = SeedSequence::new(seed).fork(0x48534B /* "HSK" */);
        let bucket_hash = (0..tables)
            // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
            .map(|i| PairwiseHash::from_seed(root.fork(2 * i as u64), buckets))
            .collect();
        let sign = (0..tables)
            // ss-analyze: allow(a5-numeric-narrowing) -- usize -> u64 is lossless on every supported platform
            .map(|i| SignFamily::from_seed(root.fork(2 * i as u64 + 1)))
            .collect();
        Arc::new(Self {
            tables,
            buckets,
            seed,
            bucket_hash,
            sign,
        })
    }

    /// Number of hash tables (`s1`).
    pub fn tables(&self) -> usize {
        self.tables
    }

    /// Buckets per table (`b`).
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Synopsis size in counters.
    pub fn words(&self) -> usize {
        self.tables * self.buckets
    }

    /// Bucket of value `v` in table `i`.
    #[inline]
    pub fn bucket(&self, i: usize, v: u64) -> usize {
        self.bucket_hash[i].bucket(v)
    }

    /// Sign of value `v` in table `i`.
    #[inline]
    pub fn sign(&self, i: usize, v: u64) -> i64 {
        self.sign[i].sign(v)
    }
}

/// A hash sketch of one stream under a shared schema.
///
/// # Examples
///
/// ```
/// use stream_sketches::{HashSketch, HashSketchSchema};
/// use stream_model::{StreamSink, Update};
///
/// let schema = HashSketchSchema::new(5, 64, 42);
/// let mut sk = HashSketch::new(schema);
/// for _ in 0..100 {
///     sk.update(Update::insert(7));
/// }
/// sk.update(Update::delete(7));
/// assert_eq!(sk.point_estimate(7), 99);
/// ```
#[derive(Debug, Clone)]
pub struct HashSketch {
    schema: Arc<HashSketchSchema>,
    counters: Vec<i64>, // tables × buckets, row-major
}

impl HashSketch {
    /// An empty sketch under `schema`.
    pub fn new(schema: Arc<HashSketchSchema>) -> Self {
        let n = schema.words();
        Self {
            schema,
            counters: vec![0; n],
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<HashSketchSchema> {
        &self.schema
    }

    /// Counters of table `i`.
    #[inline]
    pub fn table(&self, i: usize) -> &[i64] {
        let b = self.schema.buckets;
        &self.counters[i * b..(i + 1) * b]
    }

    /// All counters, row-major.
    pub fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Bulk construction from a frequency vector (identical to replay, by
    /// linearity).
    pub fn from_frequencies<I>(schema: Arc<HashSketchSchema>, frequencies: I) -> Self
    where
        I: IntoIterator<Item = (u64, i64)>,
    {
        let mut sk = Self::new(schema);
        for (v, f) in frequencies {
            if f != 0 {
                sk.add_weighted(v, f);
            }
        }
        sk
    }

    /// Adds `w` copies of `v` — one counter per table.
    ///
    /// Counter arithmetic lives in the two's-complement ring (wrapping
    /// multiply and add, as [`HashSketch::add_batch`]'s signed weights
    /// already do): that is what keeps merge, skim and un-skim exactly
    /// linear at `i64::MIN`/`i64::MAX`, and makes debug and release builds
    /// agree there.
    #[inline]
    pub fn add_weighted(&mut self, v: u64, w: i64) {
        let b = self.schema.buckets;
        for i in 0..self.schema.tables {
            let c = &mut self.counters[i * b + self.schema.bucket(i, v)];
            *c = c.wrapping_add(w.wrapping_mul(self.schema.sign(i, v)));
        }
    }

    /// Applies a batch of updates with the loops interchanged: outer loop
    /// over tables, inner loop over a stack-resident chunk of the batch.
    ///
    /// Each value is reduced into the hash field once per chunk (shared by
    /// every table's bucket and sign evaluation), hash constants stay in
    /// registers across the inner loop, and counter writes of one chunk hit
    /// a single table row at a time. On targets with ≥4-lane 64-bit vectors
    /// (AVX2 or wider; [`lanes::VECTOR_KERNEL`]) the hash math runs the
    /// blocked 32-bit limb-lane kernel, which the compiler autovectorizes;
    /// elsewhere the lazy-`u128` kernel is kept. Both produce counters
    /// bit-identical to applying [`HashSketch::add_weighted`] update by
    /// update.
    pub fn add_batch(&mut self, batch: &[Update]) {
        if stream_telemetry::ENABLED {
            static STATS: OnceLock<crate::telem::BatchStats> = OnceLock::new();
            crate::telem::batch_stats(&STATS, "hash")
                .note(batch.len(), batch.len() * self.schema.tables);
        }
        if lanes::VECTOR_KERNEL {
            self.add_batch_limb_lanes(batch);
        } else {
            self.add_batch_lazy128(batch);
        }
    }

    /// Blocked limb-lane kernel: per chunk, split each key's powers into
    /// 32-bit limbs once ([`lanes::power_limbs`]), then per table evaluate
    /// buckets and signed weights as flat lane loops
    /// ([`PairwiseHash::bucket_block`] /
    /// [`SignFamily::signed_weight_block`]) and scatter into the table row.
    ///
    /// Public so benches and property tests can pin this kernel regardless
    /// of what [`HashSketch::add_batch`] would select; production code
    /// should call `add_batch` and let the selector pick.
    pub fn add_batch_limb_lanes(&mut self, batch: &[Update]) {
        let t = self.schema.tables;
        let b = self.schema.buckets;
        let mut x0 = [0u64; BATCH_CHUNK];
        let mut x1 = [0u64; BATCH_CHUNK];
        let mut sq0 = [0u64; BATCH_CHUNK];
        let mut sq1 = [0u64; BATCH_CHUNK];
        let mut cu0 = [0u64; BATCH_CHUNK];
        let mut cu1 = [0u64; BATCH_CHUNK];
        let mut weights = [0i64; BATCH_CHUNK];
        let mut buckets = [0usize; BATCH_CHUNK];
        let mut signed = [0i64; BATCH_CHUNK];
        for chunk in batch.chunks(BATCH_CHUNK) {
            let n = chunk.len();
            for (j, u) in chunk.iter().enumerate() {
                let [a, b, c, d, e, f] = lanes::power_limbs(reduce(u.value));
                x0[j] = a;
                x1[j] = b;
                sq0[j] = c;
                sq1[j] = d;
                cu0[j] = e;
                cu1[j] = f;
                weights[j] = u.weight;
            }
            for i in 0..t {
                self.schema.bucket_hash[i].bucket_block(&x0[..n], &x1[..n], &mut buckets[..n]);
                self.schema.sign[i].signed_weight_block(
                    &x0[..n],
                    &x1[..n],
                    &sq0[..n],
                    &sq1[..n],
                    &cu0[..n],
                    &cu1[..n],
                    &weights[..n],
                    &mut signed[..n],
                );
                let row = &mut self.counters[i * b..(i + 1) * b];
                if b.is_power_of_two() {
                    // Re-masking lets the bounds check vanish; `bucket_block`
                    // already produced in-range buckets, so this is a no-op.
                    let m = b - 1;
                    for j in 0..n {
                        let c = &mut row[buckets[j] & m];
                        *c = c.wrapping_add(signed[j]);
                    }
                } else {
                    for j in 0..n {
                        let c = &mut row[buckets[j]];
                        *c = c.wrapping_add(signed[j]);
                    }
                }
            }
        }
    }

    /// Lazy-`u128` kernel (the scalar-multiplier path): shared power
    /// precomputation per chunk, then per-table `bucket_batch` /
    /// `sign_batch_with_powers` lane passes.
    ///
    /// Public so benches and property tests can pin this kernel regardless
    /// of what [`HashSketch::add_batch`] would select; production code
    /// should call `add_batch` and let the selector pick.
    pub fn add_batch_lazy128(&mut self, batch: &[Update]) {
        let t = self.schema.tables;
        let b = self.schema.buckets;
        let mut reduced = [0u64; BATCH_CHUNK];
        let mut squares = [0u64; BATCH_CHUNK];
        let mut cubes = [0u64; BATCH_CHUNK];
        let mut weights = [0i64; BATCH_CHUNK];
        let mut buckets = [0usize; BATCH_CHUNK];
        let mut signs = [0i64; BATCH_CHUNK];
        for chunk in batch.chunks(BATCH_CHUNK) {
            let n = chunk.len();
            for (j, u) in chunk.iter().enumerate() {
                // Reduce each key once and precompute its square and cube —
                // every table's degree-3 sign polynomial reuses them.
                let x = reduce(u.value);
                reduced[j] = x;
                squares[j] = mul_mod(x, x);
                cubes[j] = mul_mod(squares[j], x);
                weights[j] = u.weight;
            }
            for i in 0..t {
                self.schema.bucket_hash[i].bucket_batch(&reduced[..n], &mut buckets[..n]);
                self.schema.sign[i].sign_batch_with_powers(
                    &reduced[..n],
                    &squares[..n],
                    &cubes[..n],
                    &mut signs[..n],
                );
                let row = &mut self.counters[i * b..(i + 1) * b];
                for j in 0..n {
                    let c = &mut row[buckets[j]];
                    *c = c.wrapping_add(weights[j].wrapping_mul(signs[j]));
                }
            }
        }
    }

    /// CountSketch point estimate of `f(v)`: median over tables of
    /// `ξ_i(v)·C[i][h_i(v)]`.
    ///
    /// The single-value API, and the definition [`HashSketch::extract_dense`]
    /// is tested against. Allocation-free for schemas with at most 64
    /// tables: the median scratch lives on the stack.
    pub fn point_estimate(&self, v: u64) -> i64 {
        let t = self.schema.tables;
        let mut stack = [0i64; MAX_STACK_TABLES];
        let mut heap: Vec<i64>;
        let ests: &mut [i64] = if t <= MAX_STACK_TABLES {
            &mut stack[..t]
        } else {
            heap = vec![0; t];
            &mut heap
        };
        for (i, e) in ests.iter_mut().enumerate() {
            *e = self.point_estimate_in_table(i, v);
        }
        median_i64(ests)
    }

    /// Per-table point estimate (used by the skimmed sub-join estimators,
    /// which need one estimate *per table* before their own median step).
    #[inline]
    pub fn point_estimate_in_table(&self, i: usize, v: u64) -> i64 {
        let b = self.schema.buckets;
        // Wrapping: `-1 · i64::MIN` is `i64::MIN` in the counter ring.
        self.schema
            .sign(i, v)
            .wrapping_mul(self.counters[i * b + self.schema.bucket(i, v)])
    }

    /// SKIMDENSE phase 1 as one blocked pass: for each `(sketch, T)` of
    /// `sketches` (all under one schema), every key of `keys` whose
    /// [`HashSketch::point_estimate`] is `≥ T` or `≤ −T`, with that
    /// estimate, in key order (a repeated key is reported once per
    /// occurrence).
    ///
    /// Keys go through in 256-key chunks on the write side's
    /// machinery: [`lanes::power_limbs`] once per key, then per table one
    /// [`PairwiseHash::bucket_block`] and one
    /// [`SignFamily::signed_weight_block`] — over unit weights, so it
    /// yields the bare signs — shared by every sketch of the list. Per
    /// sketch the table row is gathered through the buckets into a scratch
    /// lane, and a flat lane loop turns it into `ξ_i(v)·C[i][h_i(v)]` and
    /// keeps only two counts per key: in how many tables that read is
    /// `≥ T`, and in how many `≤ −T`. [`median_i64`] is the element at
    /// sorted index `t/2`, so "`≥ T` in at least `t − t/2` tables, or
    /// `≤ −T` in at least `t/2 + 1`" *is* `median ≥ T or median ≤ −T` — an
    /// exact prefilter, with no `abs` to wrap at `i64::MIN` — and the
    /// median itself is computed, by the scalar `point_estimate`, only for
    /// the keys that pass.
    ///
    /// # Panics
    /// If a threshold is below 1 or the sketches do not share a schema.
    pub fn extract_dense<const N: usize>(
        sketches: [(&HashSketch, i64); N],
        keys: impl IntoIterator<Item = u64>,
    ) -> [Vec<(u64, i64)>; N] {
        let mut dense: [Vec<(u64, i64)>; N] = std::array::from_fn(|_| Vec::new());
        let Some(&(lead, _)) = sketches.first() else {
            return dense;
        };
        for &(sk, threshold) in &sketches {
            assert!(threshold >= 1, "threshold must be at least 1");
            assert!(
                lead.compatible(sk),
                "one extraction pass requires sketches under the same schema"
            );
        }
        let schema = &*lead.schema;
        let t = schema.tables;
        let (need_high, need_low) = (t - t / 2, t / 2 + 1);
        let mut values = [0u64; BATCH_CHUNK];
        let mut x0 = [0u64; BATCH_CHUNK];
        let mut x1 = [0u64; BATCH_CHUNK];
        let mut sq0 = [0u64; BATCH_CHUNK];
        let mut sq1 = [0u64; BATCH_CHUNK];
        let mut cu0 = [0u64; BATCH_CHUNK];
        let mut cu1 = [0u64; BATCH_CHUNK];
        let unit = [1i64; BATCH_CHUNK];
        let mut buckets = [0usize; BATCH_CHUNK];
        let mut signs = [0i64; BATCH_CHUNK];
        let mut gathered = [0i64; BATCH_CHUNK];
        let mut high = [[0usize; BATCH_CHUNK]; N];
        let mut low = [[0usize; BATCH_CHUNK]; N];
        let mut keys = keys.into_iter();
        loop {
            let mut n = 0;
            for v in keys.by_ref().take(BATCH_CHUNK) {
                let [a, b, c, d, e, f] = lanes::power_limbs(reduce(v));
                values[n] = v;
                x0[n] = a;
                x1[n] = b;
                sq0[n] = c;
                sq1[n] = d;
                cu0[n] = e;
                cu1[n] = f;
                n += 1;
            }
            if n == 0 {
                return dense;
            }
            for k in 0..N {
                high[k][..n].fill(0);
                low[k][..n].fill(0);
            }
            for i in 0..t {
                schema.bucket_hash[i].bucket_block(&x0[..n], &x1[..n], &mut buckets[..n]);
                schema.sign[i].signed_weight_block(
                    &x0[..n],
                    &x1[..n],
                    &sq0[..n],
                    &sq1[..n],
                    &cu0[..n],
                    &cu1[..n],
                    &unit[..n],
                    &mut signs[..n],
                );
                for (k, &(sk, threshold)) in sketches.iter().enumerate() {
                    // The gather stays a loop of its own: fused with the
                    // counting it keeps the whole body scalar.
                    let row = sk.table(i);
                    for j in 0..n {
                        gathered[j] = row[buckets[j]];
                    }
                    let (high, low) = (&mut high[k][..n], &mut low[k][..n]);
                    let (gathered, signs) = (&gathered[..n], &signs[..n]);
                    for j in 0..n {
                        let c = gathered[j];
                        let read = if signs[j] < 0 { c.wrapping_neg() } else { c };
                        high[j] += usize::from(read >= threshold);
                        low[j] += usize::from(read <= -threshold);
                    }
                }
            }
            for (k, &(sk, _)) in sketches.iter().enumerate() {
                for j in 0..n {
                    if high[k][j] >= need_high || low[k][j] >= need_low {
                        dense[k].push((values[j], sk.point_estimate(values[j])));
                    }
                }
            }
        }
    }

    /// Estimates the self-join size `F₂` as the median over tables of
    /// `Σ_q C[i][q]²` — each table is an (s2 = b)-bucketed AMS estimator.
    ///
    /// Accumulates in i128: a single counter near `i32::MAX` already puts
    /// `c²` within a factor of four of `i64::MAX`, so summing squares over
    /// a table overflows i64 long before the counters themselves do.
    pub fn self_join_estimate(&self) -> f64 {
        let b = self.schema.buckets;
        let mut per_table: Vec<i128> = (0..self.schema.tables)
            .map(|i| {
                self.counters[i * b..(i + 1) * b]
                    .iter()
                    .map(|&c| c as i128 * c as i128)
                    .sum()
            })
            .collect();
        median_i128(&mut per_table) as f64
    }

    /// Estimates the inner product `f·g` as the median over tables of the
    /// bucket-wise counter product `Σ_q C_F[i][q]·C_G[i][q]`. This is the
    /// sparse⋈sparse estimator of ESTSKIMJOINSIZE, usable standalone as a
    /// "hash AGMS" join estimator.
    pub fn join_estimate(&self, other: &HashSketch) -> f64 {
        assert!(
            self.compatible(other),
            "join estimation requires sketches under the same schema"
        );
        let b = self.schema.buckets;
        let mut per_table: Vec<i128> = (0..self.schema.tables)
            .map(|i| {
                let base = i * b;
                (0..b)
                    .map(|q| self.counters[base + q] as i128 * other.counters[base + q] as i128)
                    .sum()
            })
            .collect();
        median_i128(&mut per_table) as f64
    }

    /// Synopsis size in words.
    pub fn words(&self) -> usize {
        self.schema.words()
    }

    /// Replaces the counter image. Public for wire-codec reconstruction
    /// (the skimmed-sketch codec restores per-level counters); the slice
    /// length must match the schema shape.
    pub fn overwrite_counters(&mut self, counters: &[i64]) {
        assert_eq!(counters.len(), self.counters.len());
        self.counters.copy_from_slice(counters);
    }
}

impl StreamSink for HashSketch {
    #[inline]
    fn update(&mut self, u: Update) {
        self.add_weighted(u.value, u.weight);
    }

    fn update_batch(&mut self, batch: &[Update]) {
        self.add_batch(batch);
    }
}

/// Same hash functions (schema parameters) and the same counters.
impl PartialEq for HashSketch {
    fn eq(&self, other: &Self) -> bool {
        self.compatible(other) && self.counters == other.counters
    }
}

impl LinearSynopsis for HashSketch {
    fn compatible(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema)
            || (self.schema.seed == other.schema.seed
                && self.schema.tables == other.schema.tables
                && self.schema.buckets == other.schema.buckets)
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(self.compatible(other), "incompatible hash sketches");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.wrapping_add(*b);
        }
    }

    fn negate(&mut self) {
        for c in &mut self.counters {
            *c = c.wrapping_neg();
        }
    }

    fn clear(&mut self) {
        self.counters.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use stream_model::{Domain, FrequencyVector};

    fn random_freqs(seed: u64, domain: u64, max: i64) -> FrequencyVector {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Domain::covering(domain);
        let counts = (0..d.size()).map(|_| rng.gen_range(0..=max)).collect();
        FrequencyVector::from_counts(d, counts)
    }

    #[test]
    fn update_touches_one_counter_per_table() {
        let schema = HashSketchSchema::new(5, 16, 3);
        let mut sk = HashSketch::new(schema.clone());
        sk.update(Update::insert(7));
        for i in 0..5 {
            let nonzero = sk.table(i).iter().filter(|&&c| c != 0).count();
            assert_eq!(nonzero, 1, "table {i}");
            assert_eq!(
                sk.table(i)[schema.bucket(i, 7)],
                schema.sign(i, 7),
                "table {i}"
            );
        }
    }

    #[test]
    fn deletes_cancel() {
        let schema = HashSketchSchema::new(3, 8, 5);
        let mut sk = HashSketch::new(schema);
        for v in 0..50 {
            sk.update(Update::insert(v));
            sk.update(Update::delete(v));
        }
        assert!(sk.counters().iter().all(|&c| c == 0));
    }

    #[test]
    fn from_frequencies_equals_replay() {
        let fv = random_freqs(1, 128, 6);
        let schema = HashSketchSchema::new(5, 32, 7);
        let bulk = HashSketch::from_frequencies(schema.clone(), fv.nonzero());
        let mut replay = HashSketch::new(schema);
        for u in fv.to_unit_updates() {
            replay.update(u);
        }
        assert_eq!(bulk.counters(), replay.counters());
    }

    #[test]
    fn point_estimate_recovers_isolated_heavy_value() {
        let schema = HashSketchSchema::new(7, 64, 9);
        let mut sk = HashSketch::new(schema);
        sk.add_weighted(42, 1000);
        // Light noise from other values.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            sk.update(Update::insert(rng.gen_range(0..4096)));
        }
        let est = sk.point_estimate(42);
        assert!((est - 1000).abs() <= 60, "est={est}");
    }

    #[test]
    fn point_estimate_exact_when_alone() {
        let schema = HashSketchSchema::new(5, 16, 11);
        let mut sk = HashSketch::new(schema);
        sk.add_weighted(3, -17);
        assert_eq!(sk.point_estimate(3), -17);
    }

    #[test]
    fn self_join_estimate_tracks_f2() {
        let fv = random_freqs(3, 2048, 8);
        let schema = HashSketchSchema::new(7, 512, 13);
        let sk = HashSketch::from_frequencies(schema, fv.nonzero());
        let est = sk.self_join_estimate();
        let actual = fv.self_join() as f64;
        let rel = (est - actual).abs() / actual;
        assert!(rel < 0.25, "rel={rel}");
    }

    #[test]
    fn join_estimate_tracks_inner_product() {
        let f = random_freqs(4, 2048, 8);
        let g = random_freqs(5, 2048, 8);
        let schema = HashSketchSchema::new(7, 512, 17);
        let sf = HashSketch::from_frequencies(schema.clone(), f.nonzero());
        let sg = HashSketch::from_frequencies(schema, g.nonzero());
        let est = sf.join_estimate(&sg);
        let actual = f.join(&g) as f64;
        let rel = (est - actual).abs() / actual;
        assert!(rel < 0.25, "rel={rel} est={est} actual={actual}");
    }

    #[test]
    fn merge_is_union() {
        let f = random_freqs(6, 64, 3);
        let g = random_freqs(7, 64, 3);
        let schema = HashSketchSchema::new(3, 16, 19);
        let mut a = HashSketch::from_frequencies(schema.clone(), f.nonzero());
        let b = HashSketch::from_frequencies(schema.clone(), g.nonzero());
        a.merge_from(&b);
        let union = HashSketch::from_frequencies(schema, f.add(&g).nonzero());
        assert_eq!(a.counters(), union.counters());
    }

    #[test]
    #[should_panic(expected = "same schema")]
    fn join_across_schemas_panics() {
        let a = HashSketch::new(HashSketchSchema::new(2, 4, 1));
        let b = HashSketch::new(HashSketchSchema::new(2, 4, 2));
        let _ = a.join_estimate(&b);
    }

    #[test]
    fn schema_words() {
        assert_eq!(HashSketchSchema::new(11, 50, 0).words(), 550);
    }

    #[test]
    fn update_batch_matches_scalar_updates() {
        // Batch sizes straddling the chunk boundary, pow2 and non-pow2
        // bucket counts, mixed inserts and deletes. Both kernels are pinned
        // directly so the test covers them no matter which one the compile
        // target selects behind `update_batch`.
        let mut rng = StdRng::seed_from_u64(21);
        for &buckets in &[16usize, 100] {
            for &len in &[0usize, 1, 7, 255, 256, 257, 1000] {
                let batch: Vec<Update> = (0..len)
                    .map(|_| Update {
                        value: rng.gen_range(0..1u64 << 20),
                        weight: rng.gen_range(-3i64..=3),
                    })
                    .collect();
                let schema = HashSketchSchema::new(5, buckets, 23);
                let mut batched = HashSketch::new(schema.clone());
                let mut limb = HashSketch::new(schema.clone());
                let mut lazy = HashSketch::new(schema.clone());
                let mut scalar = HashSketch::new(schema);
                batched.update_batch(&batch);
                limb.add_batch_limb_lanes(&batch);
                lazy.add_batch_lazy128(&batch);
                for &u in &batch {
                    scalar.update(u);
                }
                assert_eq!(
                    batched.counters(),
                    scalar.counters(),
                    "buckets={buckets} len={len}"
                );
                assert_eq!(
                    limb.counters(),
                    scalar.counters(),
                    "limb-lane kernel, buckets={buckets} len={len}"
                );
                assert_eq!(
                    lazy.counters(),
                    scalar.counters(),
                    "lazy128 kernel, buckets={buckets} len={len}"
                );
            }
        }
    }

    #[test]
    fn self_join_estimate_survives_counters_near_i32_max() {
        // A deterministic stream of huge weights: every counter lands near
        // ±i32::MAX, so each per-table Σ c² is ≈ b·(2³¹)² ≈ 2⁶⁵ — past
        // i64::MAX. The i128 accumulation must return the exact value.
        let schema = HashSketchSchema::new(3, 8, 29);
        let mut sk = HashSketch::new(schema);
        let w = i32::MAX as i64;
        for v in 0..64u64 {
            sk.add_weighted(v, w);
        }
        let expected: i128 = {
            let b = 8usize;
            let mut per_table: Vec<i128> = (0..3)
                .map(|i| {
                    sk.counters()[i * b..(i + 1) * b]
                        .iter()
                        .map(|&c| c as i128 * c as i128)
                        .sum()
                })
                .collect();
            stream_model::metrics::median_i128(&mut per_table)
        };
        assert!(
            expected > i64::MAX as i128,
            "test must actually exceed i64: {expected}"
        );
        assert_eq!(sk.self_join_estimate(), expected as f64);
    }

    #[test]
    fn join_estimate_survives_counters_near_i32_max() {
        let schema = HashSketchSchema::new(3, 8, 31);
        let mut a = HashSketch::new(schema.clone());
        let mut b = HashSketch::new(schema);
        let w = i32::MAX as i64;
        for v in 0..64u64 {
            a.add_weighted(v, w);
            b.add_weighted(v, w);
        }
        // Identical streams: join estimate equals self-join estimate, and
        // both exceed i64::MAX.
        let est = a.join_estimate(&b);
        assert_eq!(est, a.self_join_estimate());
        assert!(est > i64::MAX as f64);
    }

    #[test]
    fn point_estimate_heap_fallback_above_stack_limit() {
        // More tables than the stack scratch holds: exercises the heap path.
        let schema = HashSketchSchema::new(65, 8, 37);
        let mut sk = HashSketch::new(schema);
        sk.add_weighted(11, -42);
        assert_eq!(sk.point_estimate(11), -42);
    }
}
