//! A content-keyed memo of the last join estimate.
//!
//! A serving thread is asked the same question — `estimate_join` of the
//! node's two sketches under the node's config — far more often than the
//! sketches change. [`JoinMemo`] keeps the last pair of sketches it was
//! handed, the config, and the answer; a lookup compares the new sketches'
//! counters and L1 mass with the stored ones (two `memcmp`s that stop at
//! the first difference) and returns the stored answer when they match.
//!
//! The key is the sketch's own content, not a version or a frontier, so
//! there is nothing to invalidate: however the state came to be what it is
//! — ingest, replication, snapshot bootstrap, WAL recovery, a cross-shard
//! merge, updates that cancel back to an earlier state — equal inputs give
//! the stored answer and different inputs are estimated afresh. Estimation
//! is a pure function of `(f, g, cfg)`, so a hit is bit-identical to a
//! recomputation.

use crate::estimator::{estimate_skimming, EstimatorConfig, JoinEstimate, SkimmedSketch};

/// What one estimate was computed from, and the estimate.
#[derive(Debug)]
struct Entry {
    f: SkimmedSketch,
    g: SkimmedSketch,
    cfg: EstimatorConfig,
    answer: JoinEstimate,
}

/// The last join estimate one thread computed, keyed on its inputs.
///
/// Plain owned state: give each serving thread its own, and no lock is
/// needed.
#[derive(Debug, Default)]
pub struct JoinMemo {
    last: Option<Entry>,
    hits: u64,
}

impl JoinMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`crate::estimate_join`]`(&f, &g, cfg)`, bit for bit — from memory
    /// when `f`, `g` and `cfg` equal the previous call's, otherwise
    /// computed, on the sketches handed in (skimmed in place, then the
    /// extracted vectors added back: no copy is taken), which the memo
    /// then keeps.
    ///
    /// # Panics
    /// If the sketches were built under different schemas.
    pub fn estimate_join(
        &mut self,
        mut f: SkimmedSketch,
        mut g: SkimmedSketch,
        cfg: &EstimatorConfig,
    ) -> JoinEstimate {
        let telem = stream_telemetry::ENABLED.then(crate::telem::skim_metrics);
        if let Some(last) = &self.last {
            if last.cfg == *cfg && last.f == f && last.g == g {
                self.hits += 1;
                if let Some(m) = telem {
                    m.memo_hit.inc();
                    // Still an answered estimate: request counts stay
                    // comparable whether or not the memo hit.
                    m.estimates.inc();
                }
                return last.answer;
            }
        }
        if let Some(m) = telem {
            m.memo_miss.inc();
        }
        let (answer, [dense_f, dense_g]) = estimate_skimming(&mut f, &mut g, cfg);
        f.unskim(&dense_f);
        g.unskim(&dense_g);
        self.last = Some(Entry {
            f,
            g,
            cfg: *cfg,
            answer,
        });
        answer
    }

    /// Answers served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}
