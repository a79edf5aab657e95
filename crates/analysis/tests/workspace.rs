//! The analyzer's model checked against the real tree it gates: the
//! call graph must see through the shared connection loop into both
//! request handlers, and a7's v2/v3 split (derived lexically from the
//! `Kind` discriminants) must agree with the split the wire crate
//! itself serves by (`Frame::min_protocol`).

use ss_analyze::passes::{a10, a7, Workspace};
use ss_analyze::source::SourceFile;
use ss_analyze::{lints, walk};
use std::path::Path;
use stream_wire::{ErrorCode, Frame, ServerInfo, ShardMapInfo, StreamId};

fn real_tree() -> Vec<SourceFile> {
    let root = walk::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let inputs = walk::collect(&root).expect("readable tree");
    inputs
        .sources
        .iter()
        .map(|i| SourceFile::parse(&i.path, &i.text))
        .collect()
}

#[test]
fn handlers_are_reachable_from_the_shared_loop_through_the_handler_call() {
    let files = real_tree();
    let ws = Workspace::build(&files);
    assert!(a10::unresolved_entries(&ws, a10::ENTRY_POINTS).is_empty());

    // Start from the per-connection frame loop alone: everything below
    // is reached only through `handler.handle(..)`, a trait call.
    let entry = ws.find_entries(&[("crates/server/src/conn.rs", "serve_frames")]);
    assert_eq!(entry.len(), 1);
    let reach = ws.graph.reachable(&entry);
    let reached = |path: &str, name: &str| {
        ws.fns
            .iter()
            .enumerate()
            .any(|(i, f)| reach[i] && f.name == name && files[f.file].path == path)
    };
    // The node's write path, the router's fan-out (split → per-shard
    // session → the redial core), and a replication verb.
    assert!(reached("crates/server/src/lib.rs", "handle_update_batch"));
    assert!(reached("crates/server/src/replication.rs", "apply_push"));
    assert!(reached("crates/cluster/src/manifest.rs", "split"));
    assert!(reached("crates/cluster/src/session.rs", "send_batch_as"));
    assert!(reached("crates/cluster/src/router.rs", "merged_snapshots"));
    assert!(reached("crates/server/src/redial.rs", "run"));
}

/// One value of every `Frame` variant.
fn one_of_each() -> Vec<Frame> {
    let info = ServerInfo {
        domain_log2: 0,
        dyadic: false,
        tables: 0,
        buckets: 0,
        seed: 0,
        max_batch: 0,
        queue_limit: 0,
    };
    let map = ShardMapInfo {
        version: 0,
        seed: 0,
        shards: Vec::new(),
    };
    let stream = StreamId::F;
    vec![
        Frame::Hello {
            protocol: 3,
            client: String::new(),
        },
        Frame::HelloAck(info),
        Frame::UpdateBatch {
            stream,
            client_id: 0,
            seq: 0,
            updates: Vec::new(),
        },
        Frame::BatchAck { accepted: 0 },
        Frame::QueryJoin,
        Frame::QuerySelfJoin { stream },
        Frame::Answer {
            estimate: 0.0,
            dense_dense: 0.0,
            dense_sparse: 0.0,
            sparse_dense: 0.0,
            sparse_sparse: 0.0,
            dense_f: 0,
            dense_g: 0,
        },
        Frame::Snapshot { stream },
        Frame::SnapshotReply {
            stream,
            sketch: Vec::new(),
        },
        Frame::Throttle {
            pending: 0,
            limit: 0,
        },
        Frame::Error {
            code: ErrorCode::Protocol,
            message: String::new(),
        },
        Frame::Goodbye,
        Frame::Resume { client_id: 0 },
        Frame::ResumeAck {
            last_seq_f: 0,
            last_seq_g: 0,
        },
        Frame::Inspect {
            sections: 0,
            last_events: 0,
            slow_limit: 0,
        },
        Frame::InspectReply(Box::default()),
        Frame::ShardMap(map),
        Frame::ShardQuery { streams: 0 },
        Frame::ShardQueryReply {
            streams: 0,
            sketch_f: Vec::new(),
            sketch_g: Vec::new(),
        },
        Frame::Replicate {
            epoch: 0,
            segment: 0,
            offset: 0,
            snapshot: false,
            frontier_segment: 0,
            frontier_offset: 0,
            bytes: Vec::new(),
        },
        Frame::ReplicateAck {
            epoch: 0,
            segment: 0,
            offset: 0,
        },
        Frame::Heartbeat {
            epoch: 0,
            primary: false,
            segment: 0,
            offset: 0,
        },
        Frame::Promote { epoch: 0 },
    ]
}

#[test]
fn min_protocol_agrees_with_a7s_derivation_for_every_frame_variant() {
    let files = real_tree();
    let ws = Workspace::build(&files);
    let v3 = a7::v3_variants(&ws);
    let frame_rs = files
        .iter()
        .find(|f| f.path.ends_with("wire/src/frame.rs"))
        .expect("wire frame source");
    let mut declared = lints::frame_variants(frame_rs);

    let mut seen = Vec::new();
    for frame in one_of_each() {
        let debug = format!("{frame:?}");
        let name: String = debug
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        let expect = if v3.contains(&name) {
            3
        } else {
            stream_wire::MIN_PROTOCOL_VERSION
        };
        assert_eq!(frame.min_protocol(), expect, "{name}");
        assert_eq!(
            u64::from(frame.kind_tag()) >= a7::V3_FIRST_KIND,
            expect == 3,
            "{name}"
        );
        seen.push(name);
    }
    // A variant added to `Frame` must be added to `one_of_each` too.
    seen.sort();
    declared.sort();
    assert_eq!(seen, declared);
}
