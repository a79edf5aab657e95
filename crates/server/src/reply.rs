//! Reply builders shared by every front that answers the client
//! vocabulary: a node answers from its own pools, a router from merged
//! shard state, and both must put the same bytes on the wire.

use skimmed_sketch::JoinEstimate;
use stream_wire::{Frame, WireSpanEvent};

/// The ANSWER frame of a join estimate, sub-join anatomy included.
pub fn join_answer(est: &JoinEstimate) -> Frame {
    Frame::Answer {
        estimate: est.estimate,
        dense_dense: est.dense_dense,
        dense_sparse: est.dense_sparse,
        sparse_dense: est.sparse_dense,
        sparse_sparse: est.sparse_sparse,
        dense_f: est.dense_f as u64,
        dense_g: est.dense_g as u64,
    }
}

/// The ANSWER frame of a self-join estimate (no sub-join anatomy).
pub fn self_join_answer(estimate: f64) -> Frame {
    Frame::Answer {
        estimate,
        dense_dense: 0.0,
        dense_sparse: 0.0,
        sparse_dense: 0.0,
        sparse_sparse: 0.0,
        dense_f: 0,
        dense_g: 0,
    }
}

/// The newest `limit` flight-recorder events (0 = all retained) in
/// their INSPECT wire form.
pub fn recent_wire_events(limit: u32) -> Vec<WireSpanEvent> {
    ss_trace::recent_events(limit as usize)
        .iter()
        .map(|e| WireSpanEvent {
            ts_ns: e.ts_ns,
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_id: e.parent_id,
            phase: e.phase,
            kind: e.kind,
            thread: e.thread,
            arg: e.arg,
        })
        .collect()
}
