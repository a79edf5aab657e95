//! ESTSKIMJOINSIZE — the skimmed-sketch join-size estimator (Fig. 4).
//!
//! [`SkimmedSketch`] is the user-facing synopsis: the hash sketch of §4.1
//! plus (optionally) the dyadic acceleration levels of §4.2. Join
//! estimation proceeds exactly as in the paper:
//!
//! 1. **Skim** both sketches: extract the dense vectors `f̂`, `ĝ` and leave
//!    skimmed sketches summarizing the residual (sparse) components.
//! 2. Decompose `f·g = f̂·ĝ + f̂·gₛ + fₛ·ĝ + fₛ·gₛ`:
//!    * dense⋈dense — **exact** sort-merge over the extracted vectors;
//!    * dense⋈sparse (both directions) — per table `i`, probe the other
//!      stream's skimmed counters at the dense values
//!      (`Σ_v f̂(v)·ξᵢ(v)·C[i][hᵢ(v)]`), median over tables
//!      (ESTSUBJOINSIZE);
//!    * sparse⋈sparse — per table, the bucket-wise counter inner product,
//!      median over tables.
//! 3. Sum the four sub-join estimates.
//!
//! Skimming is destructive and estimation must not be, so
//! [`estimate_join`] works on clones. A caller that owns its sketches —
//! the serving layer, whose snapshots are already copies — goes through
//! [`crate::JoinMemo`] instead: it skims in place, adds the extracted
//! vectors back (exact, by linearity in the counter ring), and answers a
//! repeated question about unchanged sketches from memory. When both
//! sketches scan the domain they share **one** pass of the extraction
//! kernel: they have the same hash functions, so each key's buckets and
//! signs are evaluated once and probed in both.
//!
//! Because every residual frequency is below the threshold `T ≈ n/√b`
//! after skimming, the sub-join error terms are `O(n²/ b^{...})` — giving
//! the estimator its `O(√(SJ·SJ)/ε... )` ≈ square-root space advantage over
//! basic AGMS and matching the join-size space lower bound of \[4\].

use crate::dyadic::{DyadicHashSketch, DyadicSchema};
use crate::extracted::ExtractedDense;
use crate::skim::{skim_dense, skim_dense_scan};
use crate::threshold::ThresholdPolicy;
use std::sync::Arc;
use stream_model::metrics::median_f64;
use stream_model::update::{StreamSink, Update};
use stream_model::Domain;
use stream_sketches::{HashSketch, HashSketchSchema, LinearSynopsis};

/// How SKIMDENSE locates dense values at estimation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionStrategy {
    /// Scan the full domain — `O(N·s1)` extraction, no extra space.
    NaiveScan,
    /// Maintain dyadic levels — `O(s1·log N)` per update,
    /// `O(dense·log N)` extraction.
    Dyadic,
}

/// Shared configuration + randomness for a family of skimmed sketches.
///
/// As everywhere in this workspace, the `F` and `G` sketches of a join must
/// be built from the *same* `Arc<SkimmedSchema>`.
#[derive(Debug)]
pub struct SkimmedSchema {
    domain: Domain,
    strategy: ExtractionStrategy,
    /// Level-0 schema (always present; the join runs on it).
    base: Arc<HashSketchSchema>,
    /// All-levels schema when `strategy == Dyadic`.
    dyadic: Option<Arc<DyadicSchema>>,
}

impl SkimmedSchema {
    /// Schema with `tables` (= `s1`) hash tables of `buckets` (= `b`)
    /// counters, using the naive full-domain scan for extraction.
    pub fn scanning(domain: Domain, tables: usize, buckets: usize, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            domain,
            strategy: ExtractionStrategy::NaiveScan,
            base: HashSketchSchema::new(tables, buckets, seed),
            dyadic: None,
        })
    }

    /// Schema with dyadic acceleration levels.
    pub fn dyadic(domain: Domain, tables: usize, buckets: usize, seed: u64) -> Arc<Self> {
        let dy = DyadicSchema::new(domain, tables, buckets, seed);
        Arc::new(Self {
            domain,
            strategy: ExtractionStrategy::Dyadic,
            base: dy.base().clone(),
            dyadic: Some(dy),
        })
    }

    /// The stream domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The extraction strategy.
    pub fn strategy(&self) -> ExtractionStrategy {
        self.strategy
    }

    /// The level-0 hash-sketch schema.
    pub fn base(&self) -> &Arc<HashSketchSchema> {
        &self.base
    }

    /// The root seed the whole schema was derived from (the value to pass
    /// back to `scanning`/`dyadic` to reconstruct identical hash
    /// functions).
    pub fn seed(&self) -> u64 {
        match &self.dyadic {
            Some(dy) => dy.seed(),
            None => self.base.seed(),
        }
    }

    /// Synopsis size in words (all levels).
    pub fn words(&self) -> usize {
        match &self.dyadic {
            Some(dy) => dy.words(),
            None => self.base.words(),
        }
    }
}

/// The skimmed-sketch synopsis of one stream.
#[derive(Debug, Clone)]
pub struct SkimmedSketch {
    schema: Arc<SkimmedSchema>,
    /// Level-0 sketch when scanning; `None` when dyadic (lives inside
    /// `dyadic` as level 0).
    scan: Option<HashSketch>,
    dyadic: Option<DyadicHashSketch>,
    /// Total absolute update mass seen (the `n` of the worst-case
    /// threshold).
    l1_mass: u64,
}

impl SkimmedSketch {
    /// An empty sketch under `schema`.
    pub fn new(schema: Arc<SkimmedSchema>) -> Self {
        let (scan, dyadic) = match schema.strategy {
            ExtractionStrategy::NaiveScan => (Some(HashSketch::new(schema.base.clone())), None),
            ExtractionStrategy::Dyadic => (
                None,
                Some(DyadicHashSketch::new(
                    // ss-analyze: allow(a10-reachable-panic) -- Dyadic strategy implies a dyadic schema: SkimmedSchema constructors populate it
                    schema.dyadic.as_ref().expect("dyadic schema").clone(),
                )),
            ),
        };
        Self {
            schema,
            scan,
            dyadic,
            l1_mass: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<SkimmedSchema> {
        &self.schema
    }

    /// The level-0 hash sketch.
    pub fn base(&self) -> &HashSketch {
        match (&self.scan, &self.dyadic) {
            (Some(s), _) => s,
            (None, Some(d)) => d.base(),
            // ss-analyze: allow(a10-reachable-panic) -- new() sets exactly one of scan/dyadic; the (None, None) shape is unconstructible
            _ => unreachable!("one representation always present"),
        }
    }

    /// Total absolute mass `Σ|w|` ingested.
    pub fn l1_mass(&self) -> u64 {
        self.l1_mass
    }

    /// Synopsis size in words.
    pub fn words(&self) -> usize {
        self.schema.words()
    }

    /// Adds `w` copies of value `v`.
    #[inline]
    pub fn add_weighted(&mut self, v: u64, w: i64) {
        debug_assert!(self.schema.domain.contains(v));
        self.l1_mass = self.l1_mass.saturating_add(w.unsigned_abs());
        match (&mut self.scan, &mut self.dyadic) {
            (Some(s), _) => s.add_weighted(v, w),
            (None, Some(d)) => d.add_weighted(v, w),
            // ss-analyze: allow(a10-reachable-panic) -- new() sets exactly one of scan/dyadic; the (None, None) shape is unconstructible
            _ => unreachable!(),
        }
    }

    /// Applies a batch of updates through the inner sketch's batch kernel,
    /// accumulating the tracked L1 mass exactly as the per-update path does.
    pub fn add_batch(&mut self, batch: &[Update]) {
        for u in batch {
            debug_assert!(self.schema.domain.contains(u.value));
            self.l1_mass = self.l1_mass.saturating_add(u.weight.unsigned_abs());
        }
        match (&mut self.scan, &mut self.dyadic) {
            (Some(s), _) => s.add_batch(batch),
            (None, Some(d)) => d.add_batch(batch),
            _ => unreachable!(),
        }
    }

    /// Bulk construction from a frequency vector (identical to replay).
    pub fn from_frequencies<I>(schema: Arc<SkimmedSchema>, frequencies: I) -> Self
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

    /// Counter image of every maintained level: one slice when scanning,
    /// `log2(N)+1` when dyadic (codec support).
    pub fn level_counters(&self) -> Vec<&[i64]> {
        match (&self.scan, &self.dyadic) {
            (Some(s), _) => vec![s.counters()],
            (None, Some(d)) => d.level_counters(),
            // ss-analyze: allow(a10-reachable-panic) -- new() sets exactly one of scan/dyadic; the (None, None) shape is unconstructible
            _ => unreachable!(),
        }
    }

    /// Restores counter images and the tracked L1 mass (codec support).
    ///
    /// # Panics
    /// If the level count or shapes do not match this sketch's schema.
    pub fn restore(&mut self, levels: Vec<Vec<i64>>, l1_mass: u64) {
        self.l1_mass = l1_mass;
        match (&mut self.scan, &mut self.dyadic) {
            (Some(s), _) => {
                assert_eq!(levels.len(), 1, "scanning sketch has one level");
                s.overwrite_counters(&levels[0]);
            }
            (None, Some(d)) => d.restore_levels(&levels),
            // ss-analyze: allow(a10-reachable-panic) -- new() sets exactly one of scan/dyadic; the (None, None) shape is unconstructible
            _ => unreachable!(),
        }
    }

    /// Subtracts `other`'s contents (stream retraction): counters are
    /// subtracted and the tracked L1 mass decreases accordingly. This is
    /// the eviction primitive of the windowed estimator — unlike the
    /// generic `subtract_from` (which models *concatenating* an inverted
    /// stream and therefore adds mass), retraction removes updates that
    /// were previously counted.
    pub fn retract(&mut self, other: &Self) {
        assert!(self.compatible(other), "incompatible skimmed sketches");
        self.l1_mass = self.l1_mass.saturating_sub(other.l1_mass);
        match (&mut self.scan, &other.scan, &mut self.dyadic, &other.dyadic) {
            (Some(a), Some(b), _, _) => a.subtract_from(b),
            (None, None, Some(a), Some(b)) => a.subtract_from(b),
            _ => unreachable!("compatible sketches share representation"),
        }
    }

    /// Runs SKIMDENSE in place: extracts and removes the dense vector,
    /// returning it. Mostly used through [`estimate_join`], which operates
    /// on clones and leaves the synopsis untouched.
    pub fn skim(&mut self, threshold: i64, max_candidates: usize) -> ExtractedDense {
        match (&mut self.scan, &mut self.dyadic) {
            (Some(s), _) => skim_dense_scan(s, self.schema.domain, threshold),
            (None, Some(d)) => d.skim_dense(threshold, max_candidates),
            // ss-analyze: allow(a10-reachable-panic) -- new() sets exactly one of scan/dyadic; the (None, None) shape is unconstructible
            _ => unreachable!(),
        }
    }

    /// Adds `dense` back into every level: the inverse of the
    /// [`SkimmedSketch::skim`] that returned it, exact because counters
    /// live in the two's-complement ring. The tracked L1 mass, which
    /// skimming does not touch, is not touched here either.
    pub(crate) fn unskim(&mut self, dense: &ExtractedDense) {
        for (v, est) in dense.iter() {
            if let Some(s) = &mut self.scan {
                s.add_weighted(v, est);
            }
            if let Some(d) = &mut self.dyadic {
                d.add_weighted(v, est);
            }
        }
    }
}

/// Same schema parameters, same counters at every level, same tracked L1
/// mass: everything an estimate is computed from.
impl PartialEq for SkimmedSketch {
    fn eq(&self, other: &Self) -> bool {
        self.compatible(other)
            && self.l1_mass == other.l1_mass
            && self.scan == other.scan
            && self.dyadic == other.dyadic
    }
}

impl StreamSink for SkimmedSketch {
    #[inline]
    fn update(&mut self, u: Update) {
        self.add_weighted(u.value, u.weight);
    }

    fn update_batch(&mut self, batch: &[Update]) {
        self.add_batch(batch);
    }
}

impl LinearSynopsis for SkimmedSketch {
    fn compatible(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema)
            || (self.schema.domain == other.schema.domain
                && self.schema.strategy == other.schema.strategy
                && self.schema.base.seed() == other.schema.base.seed()
                && self.schema.base.tables() == other.schema.base.tables()
                && self.schema.base.buckets() == other.schema.base.buckets())
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(self.compatible(other), "incompatible skimmed sketches");
        self.l1_mass = self.l1_mass.saturating_add(other.l1_mass);
        // Compatible sketches share one representation, so exactly one
        // of these pairs is populated.
        if let (Some(a), Some(b)) = (&mut self.scan, &other.scan) {
            a.merge_from(b);
        }
        if let (Some(a), Some(b)) = (&mut self.dyadic, &other.dyadic) {
            a.merge_from(b);
        }
    }

    fn negate(&mut self) {
        if let Some(s) = &mut self.scan {
            s.negate();
        }
        if let Some(d) = &mut self.dyadic {
            d.negate();
        }
    }

    fn clear(&mut self) {
        self.l1_mass = 0;
        if let Some(s) = &mut self.scan {
            s.clear();
        }
        if let Some(d) = &mut self.dyadic {
            d.clear();
        }
    }
}

/// Estimation-time knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Dense/sparse threshold selection.
    pub policy: ThresholdPolicy,
    /// Frontier cap for the dyadic descent.
    pub max_candidates: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            policy: ThresholdPolicy::default(),
            max_candidates: 1 << 16,
        }
    }
}

/// The result of ESTSKIMJOINSIZE, with its full sub-join anatomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinEstimate {
    /// The join-size estimate (sum of the four sub-joins).
    pub estimate: f64,
    /// `f̂·ĝ`, computed exactly.
    pub dense_dense: f64,
    /// Estimated `f̂·gₛ`.
    pub dense_sparse: f64,
    /// Estimated `fₛ·ĝ`.
    pub sparse_dense: f64,
    /// Estimated `fₛ·gₛ`.
    pub sparse_sparse: f64,
    /// Number of dense values skimmed from `F`.
    pub dense_f: usize,
    /// Number of dense values skimmed from `G`.
    pub dense_g: usize,
    /// Threshold used for `F`.
    pub threshold_f: i64,
    /// Threshold used for `G`.
    pub threshold_g: i64,
}

/// ESTSUBJOINSIZE (Fig. 4): estimates `Σ_v f̂(v)·g_res(v)` from the dense
/// vector of one stream and the *skimmed* hash sketch of the other. Per
/// table `i` the estimate is `Σ_v f̂(v)·ξᵢ(v)·C[i][hᵢ(v)]`; the median over
/// tables boosts confidence.
pub fn est_subjoin(dense: &ExtractedDense, skimmed: &HashSketch) -> f64 {
    if dense.is_empty() {
        return 0.0;
    }
    let tables = skimmed.schema().tables();
    let mut per_table: Vec<f64> = (0..tables)
        .map(|i| est_subjoin_in_table(dense, skimmed, i))
        .collect();
    median_f64(&mut per_table)
}

/// The single-table term of [`est_subjoin`]:
/// `Σ_v f̂(v)·ξᵢ(v)·C[i][hᵢ(v)]` for table `i` — exposed so the
/// confidence-interval estimator can form per-table totals.
pub fn est_subjoin_in_table(dense: &ExtractedDense, skimmed: &HashSketch, table: usize) -> f64 {
    dense
        .iter()
        .map(|(v, fh)| fh as i128 * skimmed.point_estimate_in_table(table, v) as i128)
        .sum::<i128>() as f64
}

/// ESTSKIMJOINSIZE (Fig. 4): estimates `COUNT(F ⋈ G)` from two skimmed
/// sketches built under the same schema. Non-destructive: operates on
/// clones, so the synopses keep streaming afterwards.
///
/// # Panics
/// If the sketches were built under different schemas.
pub fn estimate_join(f: &SkimmedSketch, g: &SkimmedSketch, cfg: &EstimatorConfig) -> JoinEstimate {
    let (mut f, mut g) = (f.clone(), g.clone());
    estimate_skimming(&mut f, &mut g, cfg).0
}

/// ESTSKIMJOINSIZE on sketches the caller owns: skims `f` and `g` **in
/// place** and returns the estimate together with the two extracted dense
/// vectors, which [`SkimmedSketch::unskim`] puts back.
pub(crate) fn estimate_skimming(
    f: &mut SkimmedSketch,
    g: &mut SkimmedSketch,
    cfg: &EstimatorConfig,
) -> (JoinEstimate, [ExtractedDense; 2]) {
    assert!(
        f.compatible(g),
        "join estimation requires sketches under the same schema"
    );
    // Telemetry handles (None when compiled out; every span below is a
    // no-op then and the gauge updates fold away).
    let telem = stream_telemetry::ENABLED.then(crate::telem::skim_metrics);
    // Step 1: skim both sketches.
    let tf = cfg.policy.threshold(f.base(), f.l1_mass);
    let tg = cfg.policy.threshold(g.base(), g.l1_mass);
    let domain = f.schema.domain;
    let [dense_f, dense_g] = match (&mut f.scan, &mut g.scan) {
        // Two scanning sketches share one pass over the domain; its
        // interval is recorded under both phase labels.
        (Some(sf), Some(sg)) => {
            let _spans = telem.map(|m| (m.skim_f.start_span(), m.skim_g.start_span()));
            skim_dense([(sf, tf), (sg, tg)], 0..domain.size())
        }
        _ => [
            {
                let _span = telem.map(|m| m.skim_f.start_span());
                f.skim(tf, cfg.max_candidates)
            },
            {
                let _span = telem.map(|m| m.skim_g.start_span());
                g.skim(tg, cfg.max_candidates)
            },
        ],
    };
    // Step 2: the four sub-joins.
    let dd = {
        let _span = telem.map(|m| m.dense_dense.start_span());
        dense_f.dot(&dense_g) as f64
    };
    let ds = {
        let _span = telem.map(|m| m.dense_sparse.start_span());
        est_subjoin(&dense_f, g.base())
    };
    let sd = {
        let _span = telem.map(|m| m.sparse_dense.start_span());
        est_subjoin(&dense_g, f.base())
    };
    let ss = {
        let _span = telem.map(|m| m.sparse_sparse.start_span());
        f.base().join_estimate(g.base())
    };
    if let Some(m) = telem {
        m.estimates.inc();
        m.dense_f
            .set(i64::try_from(dense_f.len()).unwrap_or(i64::MAX));
        m.dense_g
            .set(i64::try_from(dense_g.len()).unwrap_or(i64::MAX));
        // Residual L2 norm of the *skimmed* sketches — how much sparse
        // mass the sub-join estimators had to contend with (Thm 3's
        // error scales with it).
        m.residual_f
            .set(f.base().self_join_estimate().max(0.0).sqrt());
        m.residual_g
            .set(g.base().self_join_estimate().max(0.0).sqrt());
    }
    let answer = JoinEstimate {
        estimate: dd + ds + sd + ss,
        dense_dense: dd,
        dense_sparse: ds,
        sparse_dense: sd,
        sparse_sparse: ss,
        dense_f: dense_f.len(),
        dense_g: dense_g.len(),
        threshold_f: tf,
        threshold_g: tg,
    };
    (answer, [dense_f, dense_g])
}

/// Skimmed self-join (second-moment) estimation:
/// `F₂ ≈ f̂·f̂ (exact) + 2·f̂·fₛ (estimated) + fₛ·fₛ (estimated)`.
pub fn estimate_self_join(f: &SkimmedSketch, cfg: &EstimatorConfig) -> f64 {
    let mut f = f.clone();
    let t = cfg.policy.threshold(f.base(), f.l1_mass);
    let dense = f.skim(t, cfg.max_candidates);
    let dd = dense.self_join() as f64;
    let ds = est_subjoin(&dense, f.base());
    let ss = f.base().self_join_estimate();
    dd + 2.0 * ds + ss
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stream_model::gen::ZipfGenerator;
    use stream_model::metrics::ratio_error;
    use stream_model::FrequencyVector;

    fn zipf_pair(
        log2: u32,
        z: f64,
        shift: u64,
        n: usize,
        seed: u64,
    ) -> (FrequencyVector, FrequencyVector, Vec<Update>, Vec<Update>) {
        let d = Domain::with_log2(log2);
        let mut rng = StdRng::seed_from_u64(seed);
        let uf = ZipfGenerator::new(d, z, 0).generate(&mut rng, n);
        let ug = ZipfGenerator::new(d, z, shift).generate(&mut rng, n);
        let f = FrequencyVector::from_updates(d, uf.iter().copied());
        let g = FrequencyVector::from_updates(d, ug.iter().copied());
        (f, g, uf, ug)
    }

    fn build_pair(
        schema: &Arc<SkimmedSchema>,
        uf: &[Update],
        ug: &[Update],
    ) -> (SkimmedSketch, SkimmedSketch) {
        let mut sf = SkimmedSketch::new(schema.clone());
        let mut sg = SkimmedSketch::new(schema.clone());
        for &u in uf {
            sf.update(u);
        }
        for &u in ug {
            sg.update(u);
        }
        (sf, sg)
    }

    #[test]
    fn estimate_matches_truth_on_skewed_join() {
        let (f, g, uf, ug) = zipf_pair(14, 1.2, 100, 100_000, 1);
        let actual = f.join(&g) as f64;
        assert!(actual > 0.0);
        let schema = SkimmedSchema::scanning(Domain::with_log2(14), 7, 512, 7);
        let (sf, sg) = build_pair(&schema, &uf, &ug);
        let est = estimate_join(&sf, &sg, &EstimatorConfig::default());
        let err = ratio_error(est.estimate, actual);
        assert!(err < 0.15, "err={err} est={est:?} actual={actual}");
    }

    #[test]
    fn dyadic_strategy_matches_truth_too() {
        let (f, g, uf, ug) = zipf_pair(14, 1.2, 100, 100_000, 2);
        let actual = f.join(&g) as f64;
        let schema = SkimmedSchema::dyadic(Domain::with_log2(14), 7, 512, 9);
        let (sf, sg) = build_pair(&schema, &uf, &ug);
        let est = estimate_join(&sf, &sg, &EstimatorConfig::default());
        let err = ratio_error(est.estimate, actual);
        assert!(err < 0.15, "err={err} est={est:?}");
    }

    #[test]
    fn estimation_is_non_destructive() {
        let (_, _, uf, ug) = zipf_pair(10, 1.0, 10, 5_000, 3);
        let schema = SkimmedSchema::scanning(Domain::with_log2(10), 5, 128, 11);
        let (sf, sg) = build_pair(&schema, &uf, &ug);
        let before = sf.base().counters().to_vec();
        let e1 = estimate_join(&sf, &sg, &EstimatorConfig::default());
        assert_eq!(sf.base().counters(), &before[..]);
        let e2 = estimate_join(&sf, &sg, &EstimatorConfig::default());
        assert_eq!(e1, e2, "estimation must be deterministic and repeatable");
    }

    #[test]
    fn self_join_skim_estimate_tracks_f2() {
        let (f, _, uf, _) = zipf_pair(12, 1.5, 0, 50_000, 4);
        let actual = f.self_join() as f64;
        let schema = SkimmedSchema::scanning(Domain::with_log2(12), 7, 256, 13);
        let mut sf = SkimmedSketch::new(schema);
        for &u in &uf {
            sf.update(u);
        }
        let est = estimate_self_join(&sf, &EstimatorConfig::default());
        let err = ratio_error(est, actual);
        assert!(err < 0.1, "err={err} est={est} actual={actual}");
    }

    #[test]
    fn dense_dense_dominates_on_self_join_shaped_data() {
        // With shift 0 and high skew the join is driven by the two heads:
        // the exact dense⋈dense term should carry most of the estimate.
        let (_, _, uf, ug) = zipf_pair(12, 1.5, 0, 50_000, 5);
        let schema = SkimmedSchema::scanning(Domain::with_log2(12), 7, 256, 17);
        let (sf, sg) = build_pair(&schema, &uf, &ug);
        let est = estimate_join(&sf, &sg, &EstimatorConfig::default());
        assert!(
            est.dense_dense > 0.8 * est.estimate,
            "dd={} total={}",
            est.dense_dense,
            est.estimate
        );
        assert!(est.dense_f > 0 && est.dense_g > 0);
    }

    #[test]
    fn zero_mass_streams_estimate_zero() {
        let schema = SkimmedSchema::scanning(Domain::with_log2(8), 5, 64, 19);
        let sf = SkimmedSketch::new(schema.clone());
        let sg = SkimmedSketch::new(schema);
        let est = estimate_join(&sf, &sg, &EstimatorConfig::default());
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.dense_f, 0);
    }

    #[test]
    fn disjoint_streams_estimate_near_zero() {
        let d = Domain::with_log2(12);
        let schema = SkimmedSchema::scanning(d, 7, 256, 23);
        let mut sf = SkimmedSketch::new(schema.clone());
        let mut sg = SkimmedSketch::new(schema);
        // F lives on evens, G on odds: true join = 0.
        let mut rng = StdRng::seed_from_u64(6);
        let zipf = ZipfGenerator::new(d, 1.0, 0);
        for _ in 0..20_000 {
            sf.add_weighted(zipf.sample(&mut rng) & !1, 1);
            sg.add_weighted(zipf.sample(&mut rng) | 1, 1);
        }
        let est = estimate_join(&sf, &sg, &EstimatorConfig::default());
        // Additive error scale: n²/(b·…) ≈ comfortably below n.
        assert!(est.estimate.abs() < 100_000.0, "est={}", est.estimate);
    }

    #[test]
    fn deletes_are_handled() {
        // Stream F, then delete half of it; the estimate must track the
        // *post-delete* join.
        let d = Domain::with_log2(10);
        let (f0, g0, uf, ug) = zipf_pair(10, 1.3, 20, 40_000, 7);
        let schema = SkimmedSchema::scanning(d, 7, 256, 29);
        let (mut sf, sg) = build_pair(&schema, &uf, &ug);
        let mut f_after = f0.clone();
        for &u in uf.iter().take(uf.len() / 2) {
            sf.update(u.inverse());
            f_after.update(u.inverse());
        }
        let actual = f_after.join(&g0) as f64;
        let est = estimate_join(&sf, &sg, &EstimatorConfig::default());
        let err = ratio_error(est.estimate, actual);
        assert!(err < 0.25, "err={err} est={} actual={actual}", est.estimate);
    }

    #[test]
    #[should_panic(expected = "same schema")]
    fn cross_schema_estimation_panics() {
        let d = Domain::with_log2(6);
        let a = SkimmedSketch::new(SkimmedSchema::scanning(d, 3, 32, 1));
        let b = SkimmedSketch::new(SkimmedSchema::scanning(d, 3, 32, 2));
        let _ = estimate_join(&a, &b, &EstimatorConfig::default());
    }

    #[test]
    fn merge_then_estimate_equals_single_builder() {
        // Sharded ingestion: two halves merged must estimate identically
        // to one sketch fed everything.
        let (_, _, uf, ug) = zipf_pair(10, 1.0, 30, 10_000, 8);
        let schema = SkimmedSchema::scanning(Domain::with_log2(10), 5, 128, 31);
        let (mut sf_a, sg) = build_pair(&schema, &uf[..5_000], &ug);
        let mut sf_b = SkimmedSketch::new(schema.clone());
        for &u in &uf[5_000..] {
            sf_b.update(u);
        }
        sf_a.merge_from(&sf_b);
        let (sf_full, _) = build_pair(&schema, &uf, &[]);
        assert_eq!(sf_a.base().counters(), sf_full.base().counters());
        let cfg = EstimatorConfig::default();
        let merged = estimate_join(&sf_a, &sg, &cfg);
        let single = estimate_join(&sf_full, &sg, &cfg);
        assert_eq!(merged.estimate, single.estimate);
    }
}
