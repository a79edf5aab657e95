//! Seeded inputs and the exact reference they imply.
//!
//! The program under test only ever sees generated updates: two streams of
//! 2^20 unit inserts over a 2^14 domain, F ~ Zipf(1.0) and G ~ Zipf(0.8)
//! shifted right by one value. One **pass** sends both streams once
//! (2^21 updates) in 8192-update batches, always in the same cyclic order,
//! so the node's exact state after any number of acknowledged batches is
//! `passes × (one pass's frequencies) + (the frequencies of the current
//! pass's prefix)`. Sketching is linear, so the reference sketch is built
//! from that frequency vector in one domain pass — never by replay.

use rand::rngs::StdRng;
use rand::SeedableRng;
use skimmed_sketch::{estimate_join, EstimatorConfig, JoinEstimate, SkimmedSchema, SkimmedSketch};
use std::sync::Arc;
use stream_model::gen::ZipfGenerator;
use stream_model::{Domain, Update};
use stream_server::JoinAnswer;
use stream_wire::StreamId;

/// log2 of the stream domain.
pub const DOMAIN_LOG2: u32 = 14;
/// Updates per stream per pass.
pub const STREAM_LEN: usize = 1 << 20;
/// Updates per UPDATE_BATCH.
pub const BATCH: usize = 8192;
/// Batches per stream per pass.
pub const STREAM_BATCHES: u64 = (STREAM_LEN / BATCH) as u64;
/// Updates in one pass (both streams).
pub const PASS_UPDATES: u64 = 2 * STREAM_LEN as u64;

/// The stream domain every workload uses.
pub fn domain() -> Domain {
    Domain::with_log2(DOMAIN_LOG2)
}

/// The synopsis schema every node is bound with.
pub fn schema() -> Arc<SkimmedSchema> {
    SkimmedSchema::scanning(domain(), 7, 256, 42)
}

fn zipf_stream(out: &mut Vec<Update>, z: f64, shift: u64, rng_seed: u64) {
    let gen = ZipfGenerator::new(domain(), z, shift);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    out.clear();
    out.extend((0..STREAM_LEN).map(|_| Update::insert(gen.sample(&mut rng))));
}

/// The two generated update streams of one seed.
#[derive(Default)]
pub struct Inputs {
    streams: [Vec<Update>; 2],
}

impl Inputs {
    /// Same seed, byte-identical inputs.
    pub fn generate(seed: u64) -> Self {
        Inputs::default().regenerate(seed)
    }

    /// [`Inputs::generate`] into this value's buffers. Repeated set-ups
    /// reuse them: freeing and re-allocating two 16 MiB vectors between
    /// set-ups would retune the allocator the program under test shares
    /// with the harness (glibc raises its mmap threshold to the largest
    /// freed block), and the program's peak RSS with it.
    pub fn regenerate(mut self, seed: u64) -> Self {
        let [f, g] = &mut self.streams;
        zipf_stream(f, 1.0, 0, seed);
        zipf_stream(g, 0.8, 1, seed.wrapping_add(1));
        self
    }

    /// One stream's updates, in send order.
    pub fn stream(&self, stream: StreamId) -> &[Update] {
        &self.streams[stream as usize]
    }

    /// Batches `[from, to)` of one stream as one contiguous slice.
    pub fn batches(&self, stream: StreamId, from: u64, to: u64) -> &[Update] {
        &self.stream(stream)[from as usize * BATCH..to as usize * BATCH]
    }
}

fn counts(updates: &[Update]) -> Vec<i64> {
    let mut out = vec![0i64; domain().size() as usize];
    for u in updates {
        out[u.value as usize] += u.weight;
    }
    out
}

/// How many batches of each stream the node has acknowledged, preload and
/// prepared log included. Batches of a stream are always sent in cyclic
/// order, so the count alone determines the exact state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    batches: [u64; 2],
}

impl Ledger {
    /// A ledger after `passes` whole passes.
    pub fn after_passes(passes: u64) -> Self {
        Ledger {
            batches: [passes * STREAM_BATCHES; 2],
        }
    }

    /// Records `n` more acknowledged batches of `stream`.
    pub fn add(&mut self, stream: StreamId, n: u64) {
        self.batches[stream as usize] += n;
    }

    /// Records one more whole pass.
    pub fn add_pass(&mut self) {
        self.add(StreamId::F, STREAM_BATCHES);
        self.add(StreamId::G, STREAM_BATCHES);
    }
}

/// The exact reference: one pass's frequencies per stream, from which the
/// node's state at any [`Ledger`] follows by linearity.
pub struct Exact {
    schema: Arc<SkimmedSchema>,
    pass: [Vec<i64>; 2],
}

/// The reference state at one ledger position and the answer it implies.
pub struct Reference {
    /// Reference sketch per stream.
    pub sketches: [SkimmedSketch; 2],
    /// `estimate_join` of the two, under the shipped estimator config.
    pub answer: JoinEstimate,
}

impl Exact {
    /// Counts one pass of `inputs` exactly.
    pub fn of(inputs: &Inputs, schema: Arc<SkimmedSchema>) -> Self {
        Exact {
            schema,
            pass: [
                counts(inputs.stream(StreamId::F)),
                counts(inputs.stream(StreamId::G)),
            ],
        }
    }

    fn sketch(&self, inputs: &Inputs, stream: StreamId, batches: u64) -> SkimmedSketch {
        let (passes, prefix) = (batches / STREAM_BATCHES, batches % STREAM_BATCHES);
        let prefix = counts(inputs.batches(stream, 0, prefix));
        let pass = &self.pass[stream as usize];
        SkimmedSketch::from_frequencies(
            self.schema.clone(),
            pass.iter()
                .zip(&prefix)
                .enumerate()
                .map(|(v, (&p, &x))| (v as u64, p * passes as i64 + x)),
        )
    }

    /// The reference state and answer after `ledger`'s batches.
    pub fn reference(&self, inputs: &Inputs, ledger: &Ledger) -> Reference {
        let f = self.sketch(inputs, StreamId::F, ledger.batches[0]);
        let g = self.sketch(inputs, StreamId::G, ledger.batches[1]);
        let answer = estimate_join(&f, &g, &EstimatorConfig::default());
        Reference {
            sketches: [f, g],
            answer,
        }
    }
}

/// Bit-for-bit equality of a served answer and the in-process estimate:
/// the estimate, the four sub-joins and both dense sizes.
pub fn answer_matches(got: &JoinAnswer, want: &JoinEstimate) -> bool {
    got.estimate.to_bits() == want.estimate.to_bits()
        && got.dense_dense.to_bits() == want.dense_dense.to_bits()
        && got.dense_sparse.to_bits() == want.dense_sparse.to_bits()
        && got.sparse_dense.to_bits() == want.sparse_dense.to_bits()
        && got.sparse_sparse.to_bits() == want.sparse_sparse.to_bits()
        && got.dense_f == want.dense_f as u64
        && got.dense_g == want.dense_g as u64
}

/// Counter-for-counter equality of a node's sketch and the reference,
/// `l1_mass` included.
pub fn state_matches(got: &SkimmedSketch, want: &SkimmedSketch) -> bool {
    got.l1_mass() == want.l1_mass() && got.level_counters() == want.level_counters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            Inputs::generate(11),
            Inputs::generate(11),
            Inputs::generate(12),
        );
        for s in StreamId::ALL {
            assert_eq!(a.stream(s), b.stream(s), "same seed, identical updates");
            assert_eq!(a.stream(s).len(), STREAM_LEN);
        }
        assert_ne!(a.stream(StreamId::F), c.stream(StreamId::F));
        // G of seed 11 and F of seed 12 share an rng seed but not a
        // distribution: the shift and skew differ.
        assert_ne!(a.stream(StreamId::G), c.stream(StreamId::F));
    }

    #[test]
    fn reference_by_linearity_equals_replay() {
        let inputs = Inputs::generate(5);
        let exact = Exact::of(&inputs, schema());
        // Two passes of F plus 37 batches, one pass of G plus 101: not
        // pass-aligned on either stream.
        let mut ledger = Ledger::after_passes(1);
        ledger.add(StreamId::F, STREAM_BATCHES + 37);
        ledger.add(StreamId::G, 101);
        let reference = exact.reference(&inputs, &ledger);

        let mut replay = [SkimmedSketch::new(schema()), SkimmedSketch::new(schema())];
        for (s, (passes, prefix)) in StreamId::ALL.into_iter().zip([(2, 37), (1, 101)]) {
            for _ in 0..passes {
                for batch in inputs.stream(s).chunks(BATCH) {
                    replay[s as usize].add_batch(batch);
                }
            }
            replay[s as usize].add_batch(inputs.batches(s, 0, prefix));
        }
        for s in StreamId::ALL {
            assert!(state_matches(
                &replay[s as usize],
                &reference.sketches[s as usize]
            ));
        }
        let replayed = estimate_join(&replay[0], &replay[1], &EstimatorConfig::default());
        assert_eq!(replayed, reference.answer);
    }
}
