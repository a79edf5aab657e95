//! Property-based equivalence of the batched and parallel ingestion paths.
//!
//! The contract of the whole ingestion pipeline is *bit-identity*: for any
//! update sequence — inserts, deletes, mixed weights — `update_batch` and
//! the sharded [`IngestPool`] / [`ingest_parallel`] must leave every
//! counter of every sketch type exactly as element-at-a-time `update`
//! would. Proptest drives all four sketch types through random mixed
//! workloads and random batch boundaries to pin that contract down.
//!
//! The read side has the same contract: the blocked SKIMDENSE kernel
//! ([`HashSketch::extract_dense`]) must extract exactly what the scalar
//! definition does, and a [`JoinMemo`] must answer exactly what a fresh
//! [`estimate_join`] would, whatever happened to the sketches in between.

use proptest::prelude::*;
use skimmed_sketch::{DyadicHashSketch, DyadicSchema, JoinMemo};
use skimmed_sketches::prelude::*;
use stream_sketches::{
    AgmsSchema, AgmsSketch, CountMinSchema, CountMinSketch, HashSketch, HashSketchSchema,
};

const DOMAIN_LOG2: u32 = 8;

/// Mixed inserts and deletes with varied weights (never weight 0).
fn arb_updates(max_len: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec(
        (0u64..(1 << DOMAIN_LOG2), -20i64..=20).prop_map(|(value, weight)| Update {
            value,
            weight: if weight == 0 { 1 } else { weight },
        }),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash sketch: `update_batch` ≡ per-element `update`, any batch split.
    #[test]
    fn hash_sketch_batch_matches_scalar(us in arb_updates(600), split in 1usize..300) {
        let schema = HashSketchSchema::new(4, 32, 21);
        let mut scalar = HashSketch::new(schema.clone());
        let mut batched = HashSketch::new(schema);
        for &u in &us { scalar.update(u); }
        for chunk in us.chunks(split) { batched.update_batch(chunk); }
        prop_assert_eq!(scalar.counters(), batched.counters());
    }

    /// Basic AGMS: `update_batch` ≡ per-element `update`.
    #[test]
    fn agms_batch_matches_scalar(us in arb_updates(400), split in 1usize..200) {
        let schema = AgmsSchema::new(3, 8, 23);
        let mut scalar = AgmsSketch::new(schema.clone());
        let mut batched = AgmsSketch::new(schema);
        for &u in &us { scalar.update(u); }
        for chunk in us.chunks(split) { batched.update_batch(chunk); }
        prop_assert_eq!(scalar.counters(), batched.counters());
    }

    /// Count-Min: `update_batch` ≡ per-element `update`.
    #[test]
    fn countmin_batch_matches_scalar(us in arb_updates(400), split in 1usize..200) {
        let schema = CountMinSchema::new(3, 16, 25);
        let mut scalar = CountMinSketch::new(schema.clone());
        let mut batched = CountMinSketch::new(schema);
        for &u in &us { scalar.update(u); }
        for chunk in us.chunks(split) { batched.update_batch(chunk); }
        prop_assert_eq!(scalar.counters(), batched.counters());
    }

    /// Dyadic hash sketch: `update_batch` ≡ per-element `update` at every
    /// dyadic level.
    #[test]
    fn dyadic_batch_matches_scalar(us in arb_updates(300), split in 1usize..150) {
        let schema = DyadicSchema::new(Domain::with_log2(DOMAIN_LOG2), 3, 16, 27);
        let mut scalar = DyadicHashSketch::new(schema.clone());
        let mut batched = DyadicHashSketch::new(schema);
        for &u in &us { scalar.update(u); }
        for chunk in us.chunks(split) { batched.update_batch(chunk); }
        prop_assert_eq!(scalar.level_counters(), batched.level_counters());
    }

    /// The worker pool: for any updates, chunking, and worker count the
    /// merged sketch is bit-identical to sequential ingest.
    #[test]
    fn pool_matches_scalar(us in arb_updates(600), split in 1usize..200, threads in 1usize..5) {
        let schema = HashSketchSchema::new(4, 32, 29);
        let pool = IngestPool::new(threads, || HashSketch::new(schema.clone()));
        for chunk in us.chunks(split) { pool.dispatch(chunk.to_vec()); }
        let parallel = pool.finish().expect("no worker panicked");
        let mut scalar = HashSketch::new(schema);
        for &u in &us { scalar.update(u); }
        prop_assert_eq!(parallel.counters(), scalar.counters());
    }

    /// One-shot `ingest_parallel` over borrowed updates: same contract.
    #[test]
    fn ingest_parallel_matches_scalar(us in arb_updates(600), chunk in 1usize..200, threads in 1usize..5) {
        let schema = HashSketchSchema::new(4, 32, 31);
        let parallel = ingest_parallel(&us, threads, chunk, || HashSketch::new(schema.clone()));
        let mut scalar = HashSketch::new(schema);
        for &u in &us { scalar.update(u); }
        prop_assert_eq!(parallel.counters(), scalar.counters());
    }
}

/// Batch lengths that exercise the blocked kernels' chunking edges: empty
/// batches, lengths that don't fill a vector lane (`len % 8 ≠ 0`), lengths
/// straddling the 256-key L1 block boundary, and arbitrary non-power-of-two
/// sizes in between.
fn arb_awkward_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),                                 // empty batch: kernels must be no-ops
        1usize..8,                                    // less than one vector lane
        249usize..=263,                               // straddling the 256-key block boundary
        505usize..=519,                               // straddling two blocks
        prop::sample::select(vec![3usize, 100, 777]), // assorted non-pow2
    ]
}

fn updates_of_len(len: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec(
        (0u64..(1 << DOMAIN_LOG2), -20i64..=20).prop_map(|(value, weight)| Update {
            value,
            weight: if weight == 0 { 1 } else { weight },
        }),
        len..=len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both hash-sketch batch kernels — the blocked limb-lane kernel and
    /// the lazy-`u128` kernel — are bit-identical to per-element `update`
    /// at awkward batch lengths, on power-of-two and non-power-of-two
    /// bucket counts (the two scatter paths).
    #[test]
    fn hash_sketch_kernels_match_at_awkward_lengths(
        us in arb_awkward_len().prop_flat_map(updates_of_len),
        pow2 in any::<bool>(),
    ) {
        let buckets = if pow2 { 32 } else { 37 };
        let schema = HashSketchSchema::new(4, buckets, 33);
        let mut scalar = HashSketch::new(schema.clone());
        let mut limb = HashSketch::new(schema.clone());
        let mut lazy = HashSketch::new(schema);
        for &u in &us { scalar.update(u); }
        limb.add_batch_limb_lanes(&us);
        lazy.add_batch_lazy128(&us);
        prop_assert_eq!(scalar.counters(), limb.counters());
        prop_assert_eq!(scalar.counters(), lazy.counters());
    }

    /// Same contract for both Count-Min batch kernels.
    #[test]
    fn countmin_kernels_match_at_awkward_lengths(
        us in arb_awkward_len().prop_flat_map(updates_of_len),
        pow2 in any::<bool>(),
    ) {
        let width = if pow2 { 16 } else { 19 };
        let schema = CountMinSchema::new(3, width, 35);
        let mut scalar = CountMinSketch::new(schema.clone());
        let mut limb = CountMinSketch::new(schema.clone());
        let mut lazy = CountMinSketch::new(schema);
        for &u in &us { scalar.update(u); }
        limb.add_batch_limb_lanes(&us);
        lazy.add_batch_lazy128(&us);
        prop_assert_eq!(scalar.counters(), limb.counters());
        prop_assert_eq!(scalar.counters(), lazy.counters());
    }
}

/// SKIMDENSE phase 1 as the paper writes it: one scalar point estimate per
/// key, kept when its magnitude reaches `t`.
fn scalar_extract(sk: &HashSketch, keys: &[u64], t: i64) -> Vec<(u64, i64)> {
    keys.iter()
        .map(|&v| (v, sk.point_estimate(v)))
        .filter(|&(_, est)| est.unsigned_abs() >= t.unsigned_abs())
        .collect()
}

fn kernel_extract(sk: &HashSketch, keys: &[u64], t: i64) -> Vec<(u64, i64)> {
    let [dense] = HashSketch::extract_dense([(sk, t)], keys.iter().copied());
    dense
}

/// Signed weights from unit to the edges of `i64`, where `abs` and
/// negation wrap.
fn arb_weight() -> impl Strategy<Value = i64> {
    prop_oneof![
        -20i64..=20,
        -5_000i64..=5_000,
        prop::sample::select(vec![i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1]),
    ]
}

fn arb_threshold() -> impl Strategy<Value = i64> {
    prop_oneof![
        1i64..=6,
        prop::sample::select(vec![50i64, 500, 1 << 40, i64::MAX - 1, i64::MAX]),
    ]
}

/// A sketch of `(raw value, weight)` pairs folded into `0..domain`. Built
/// update by update: `add_weighted` is the path defined at the extremes.
fn sketch_of(
    schema: &std::sync::Arc<HashSketchSchema>,
    raw: &[(u64, i64)],
    domain: u64,
) -> HashSketch {
    let mut sk = HashSketch::new(schema.clone());
    for &(v, w) in raw {
        sk.add_weighted(v % domain, w);
    }
    sk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The extraction kernel is the scalar scan, bit for bit: over odd and
    /// even table counts (the upper-median rule), mask and `%` bucket
    /// paths, domains around the 256-key chunk edge, thresholds from 1 to
    /// `i64::MAX`, counters at `i64::MIN`/`MAX` — for the whole domain in
    /// order and for arbitrary key lists with repeats — and the two-sketch
    /// pass equals two one-sketch passes.
    #[test]
    fn extract_dense_matches_scalar_scan(
        shape in (
            1usize..=9,
            prop::sample::select(vec![1usize, 64, 100, 257, 1024]),
            prop::sample::select(vec![1u64, 255, 256, 257, 1000, 1 << 14]),
        ),
        raw in (
            prop::collection::vec((any::<u64>(), arb_weight()), 0..400),
            prop::collection::vec((any::<u64>(), arb_weight()), 0..400),
        ),
        thresholds in (arb_threshold(), arb_threshold()),
        picks in prop::collection::vec(any::<u64>(), 0..700),
    ) {
        let (tables, buckets, domain) = shape;
        let schema = HashSketchSchema::new(tables, buckets, 37);
        let a = sketch_of(&schema, &raw.0, domain);
        let b = sketch_of(&schema, &raw.1, domain);
        let (ta, tb) = thresholds;
        let scan: Vec<u64> = (0..domain).collect();
        let picked: Vec<u64> = picks.iter().map(|v| v % domain).collect();
        for keys in [&scan, &picked] {
            let want_a = scalar_extract(&a, keys, ta);
            let want_b = scalar_extract(&b, keys, tb);
            prop_assert_eq!(&kernel_extract(&a, keys, ta), &want_a);
            prop_assert_eq!(&kernel_extract(&b, keys, tb), &want_b);
            let both = HashSketch::extract_dense([(&a, ta), (&b, tb)], keys.iter().copied());
            prop_assert_eq!(both, [want_a, want_b]);
        }
    }
}

/// One thing that can happen to a node's sketches between two queries.
#[derive(Debug, Clone)]
enum Step {
    /// A batch of updates lands on one stream.
    Batch(bool, Vec<Update>),
    /// Nothing happens.
    Idle,
    /// A stream is negated and negated back.
    NegateTwice(bool),
    /// Another site's sketch is merged into a stream.
    Merge(bool, Vec<Update>),
    /// A sketch is merged in and retracted again: counters *and* tracked
    /// mass return to the earlier state.
    MergeThenRetract(bool, Vec<Update>),
    /// The estimator config changes.
    Config(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<bool>(), arb_updates(200)).prop_map(|(s, us)| Step::Batch(s, us)),
        Just(Step::Idle),
        any::<bool>().prop_map(Step::NegateTwice),
        (any::<bool>(), arb_updates(200)).prop_map(|(s, us)| Step::Merge(s, us)),
        (any::<bool>(), arb_updates(200)).prop_map(|(s, us)| Step::MergeThenRetract(s, us)),
        (0usize..4).prop_map(Step::Config),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A memo driven through any history answers what a fresh
    /// `estimate_join` answers, field for field, and answers from memory
    /// exactly when sketches and config are what they were at the previous
    /// question — however they got there.
    #[test]
    fn join_memo_matches_fresh_estimate(
        dyadic in any::<bool>(),
        steps in prop::collection::vec(arb_step(), 1..24),
    ) {
        let domain = Domain::with_log2(DOMAIN_LOG2);
        let schema = if dyadic {
            SkimmedSchema::dyadic(domain, 5, 32, 39)
        } else {
            SkimmedSchema::scanning(domain, 5, 32, 39)
        };
        let configs = [
            EstimatorConfig::default(),
            EstimatorConfig { policy: ThresholdPolicy::Fixed(5), ..EstimatorConfig::default() },
            EstimatorConfig { policy: ThresholdPolicy::WorstCase { factor: 0.5 }, ..EstimatorConfig::default() },
            EstimatorConfig { max_candidates: 3, ..EstimatorConfig::default() },
        ];
        let site = |us: &[Update]| {
            let mut sk = SkimmedSketch::new(schema.clone());
            sk.add_batch(us);
            sk
        };
        let mut sketches = [SkimmedSketch::new(schema.clone()), SkimmedSketch::new(schema.clone())];
        let mut cfg = configs[0];
        let mut memo = JoinMemo::new();
        // What the previous question was asked about, kept independently
        // of the memo: counters of every level, tracked mass, config.
        type Asked = (Vec<Vec<i64>>, u64);
        let content = |sk: &SkimmedSketch| -> Asked {
            (sk.level_counters().iter().map(|l| l.to_vec()).collect(), sk.l1_mass())
        };
        let mut previous: Option<([Asked; 2], EstimatorConfig)> = None;
        let mut hits = 0;
        for step in &steps {
            match step {
                Step::Batch(g, us) => sketches[usize::from(*g)].add_batch(us),
                Step::Idle => {}
                Step::NegateTwice(g) => {
                    sketches[usize::from(*g)].negate();
                    sketches[usize::from(*g)].negate();
                }
                Step::Merge(g, us) => sketches[usize::from(*g)].merge_from(&site(us)),
                Step::MergeThenRetract(g, us) => {
                    let other = site(us);
                    sketches[usize::from(*g)].merge_from(&other);
                    sketches[usize::from(*g)].retract(&other);
                }
                Step::Config(i) => cfg = configs[*i],
            }
            let [f, g] = &sketches;
            let answer = memo.estimate_join(f.clone(), g.clone(), &cfg);
            prop_assert_eq!(answer, estimate_join(f, g, &cfg));
            let asked = ([content(f), content(g)], cfg);
            hits += u64::from(previous.as_ref() == Some(&asked));
            prop_assert_eq!(memo.hits(), hits);
            previous = Some(asked);
        }
    }
}
