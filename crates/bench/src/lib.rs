//! # ss-bench
//!
//! The experiment harness of the reproduction: workload construction, the
//! space-sweep grid of §5.1, and the rendering shared by the per-figure
//! binaries (`fig5a`, `fig5b`, `census`, `example1`, `thm34`,
//! `ablation_threshold`, `anatomy`). Criterion micro-benchmarks live in
//! `benches/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod grid;
pub mod scale;

pub use grid::{compare_at_space, skimmed_estimate, sweep_spaces, JoinWorkload, SpaceComparison};
pub use scale::Scale;

/// SKIMDENSE phase 1 as the paper writes it — one scalar
/// `point_estimate` per value of `0..domain_size`, kept when its magnitude
/// reaches `threshold`: what `HashSketch::extract_dense` replaced, and the
/// baseline `ingest_report` and `benches/skim.rs` time it against.
pub fn scalar_scan(
    sketch: &stream_sketches::HashSketch,
    domain_size: u64,
    threshold: i64,
) -> Vec<(u64, i64)> {
    (0..domain_size)
        .map(|v| (v, sketch.point_estimate(v)))
        .filter(|&(_, est)| est.unsigned_abs() >= threshold.unsigned_abs())
        .collect()
}
