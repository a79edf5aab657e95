//! Skim-pipeline telemetry: per-phase span histograms and the gauges
//! that make Theorem 3's preconditions observable at runtime.
//!
//! ESTSKIMJOINSIZE's error guarantee rests on runtime facts the
//! estimator computes anyway — how many dense values each skim
//! extracted, and how much L2 mass the residual (skimmed) sketch still
//! holds. This module registers those as gauges next to the per-phase
//! timings so an operator can see *why* an estimate was good or bad,
//! not just how long it took.

use std::sync::{Arc, OnceLock};
use stream_telemetry::{Counter, FloatGauge, Gauge, Histogram, Unit};

/// Cached handles for the skim pipeline's metrics.
pub(crate) struct SkimMetrics {
    /// SKIMDENSE on the `F` sketch.
    pub skim_f: Arc<Histogram>,
    /// SKIMDENSE on the `G` sketch.
    pub skim_g: Arc<Histogram>,
    /// Exact dense⋈dense sort-merge.
    pub dense_dense: Arc<Histogram>,
    /// ESTSUBJOINSIZE `f̂·gₛ`.
    pub dense_sparse: Arc<Histogram>,
    /// ESTSUBJOINSIZE `fₛ·ĝ`.
    pub sparse_dense: Arc<Histogram>,
    /// Bucket-wise sparse⋈sparse counter product.
    pub sparse_sparse: Arc<Histogram>,
    /// Dense values extracted from `F` by the last estimate.
    pub dense_f: Arc<Gauge>,
    /// Dense values extracted from `G` by the last estimate.
    pub dense_g: Arc<Gauge>,
    /// Residual L2 norm of the skimmed `F` sketch (Thm 3 precondition).
    pub residual_f: Arc<FloatGauge>,
    /// Residual L2 norm of the skimmed `G` sketch.
    pub residual_g: Arc<FloatGauge>,
    /// ESTSKIMJOINSIZE answers, recomputed or served from a
    /// [`crate::JoinMemo`].
    pub estimates: Arc<Counter>,
    /// Join-memo lookups answered from the stored estimate.
    pub memo_hit: Arc<Counter>,
    /// Join-memo lookups that had to estimate.
    pub memo_miss: Arc<Counter>,
    /// `(key, sketch)` probes the extraction kernel evaluated.
    pub scan_keys: Arc<Counter>,
    /// Probes that passed the table-count prefilter and needed the exact
    /// median. `scan_keys` over this is how much work the prefilter saves
    /// on the current stream.
    pub median_fallbacks: Arc<Counter>,
}

impl SkimMetrics {
    /// Counts one extraction pass: `keys` probes, `fallbacks` of which
    /// went on to the scalar median.
    pub fn note_scan(&self, keys: usize, fallbacks: usize) {
        self.scan_keys.add(u64::try_from(keys).unwrap_or(u64::MAX));
        self.median_fallbacks
            .add(u64::try_from(fallbacks).unwrap_or(u64::MAX));
    }
}

/// The lazily-registered process-wide [`SkimMetrics`].
pub(crate) fn skim_metrics() -> &'static SkimMetrics {
    static METRICS: OnceLock<SkimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = stream_telemetry::global();
        let phase = |p: &str| r.histogram_with("skim_phase_seconds", &[("phase", p)], Unit::Nanos);
        SkimMetrics {
            skim_f: phase("skim_f"),
            skim_g: phase("skim_g"),
            dense_dense: phase("dense_dense"),
            dense_sparse: phase("dense_sparse"),
            sparse_dense: phase("sparse_dense"),
            sparse_sparse: phase("sparse_sparse"),
            dense_f: r.gauge_with("skim_dense_values", &[("side", "f")]),
            dense_g: r.gauge_with("skim_dense_values", &[("side", "g")]),
            residual_f: r.float_gauge_with("skim_residual_l2", &[("side", "f")]),
            residual_g: r.float_gauge_with("skim_residual_l2", &[("side", "g")]),
            estimates: r.counter("skim_estimates_total"),
            memo_hit: r.counter_with("skim_memo_total", &[("outcome", "hit")]),
            memo_miss: r.counter_with("skim_memo_total", &[("outcome", "miss")]),
            scan_keys: r.counter("skim_scan_keys_total"),
            median_fallbacks: r.counter("skim_median_fallbacks_total"),
        }
    })
}
