//! The loopback rungs of the traced run: the write ladder continued over
//! TCP (sequenced, + WAL, routed over two shards) and the cluster's read
//! rungs. Each is one generator thread over one connection, blocks of one
//! pass ended by the snapshot barrier, Q25 over blocks.
//!
//! The `cluster` layer gets rungs, not a workload: a router, two shards and
//! a generator are ~25 threads on two cores. Every routed answer is gated
//! bit-identical to the single-node reference.

use crate::inputs::{
    self, answer_matches, state_matches, Exact, Inputs, Ledger, BATCH, PASS_UPDATES,
};
use crate::nodes::{barrier, fail, wal_config, Fail, Gates};
use crate::stats;
use crate::workloads::send_sequenced;
use skimmed_sketch::{decode_skimmed, SkimmedSketch};
use ss_cluster::{Partitioner, Router, RouterConfig};
use std::path::Path;
use std::time::{Duration, Instant};
use stream_server::{
    Backoff, BackoffConfig, ClientConfig, ClientError, Server, ServerClient, ServerConfig,
};
use stream_sketches::LinearSynopsis;
use stream_wire::{ErrorCode, StreamId, SHARD_STREAM_BOTH};

/// Queries behind each routed read rung.
const ROUTED_QUERIES: usize = 48;

fn sequenced(addr: std::net::SocketAddr, client_id: u64) -> Result<ServerClient, Fail> {
    ServerClient::connect_with(
        addr,
        ClientConfig {
            client_id,
            ..ClientConfig::default()
        },
    )
    .map_err(fail("connect sequenced producer"))
}

/// What a sequenced rung measured.
pub struct SeqRung {
    /// Q25 of a pass, ns per update.
    pub ns_per_update: f64,
    /// Q25 of one batch's `send_batch` → `Accepted`, ns.
    pub ack_q25_ns: u64,
    /// Blocks sampled.
    pub blocks: usize,
}

/// Sequenced strict passes against one node (WAL at `wal` if given, no
/// follower) for `window`.
pub fn sequenced_rung(
    inputs: &Inputs,
    exact: &Exact,
    wal: Option<&Path>,
    window: Duration,
    gates: &mut Gates,
) -> Result<SeqRung, Fail> {
    let config = match wal {
        Some(dir) => wal_config(dir),
        None => ServerConfig::new(inputs::schema()),
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(fail("bind rung node"))?;
    let mut client = sequenced(server.local_addr(), 0x5E9)?;
    let mut backoff = Backoff::new(&BackoffConfig::default());
    let (mut blocks, mut acks) = (Vec::new(), Vec::new());
    let mut ledger = Ledger::default();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let t = Instant::now();
        for stream in StreamId::ALL {
            for batch in inputs.stream(stream).chunks(BATCH) {
                let sent = Instant::now();
                send_sequenced(&mut client, &mut backoff, stream, batch)
                    .map_err(fail("send_batch"))?;
                acks.push(sent.elapsed().as_nanos() as u64);
            }
        }
        barrier(&server)?;
        blocks.push(t.elapsed().as_nanos() as u64);
        ledger.add_pass();
        gates.attempted += 2 * inputs::STREAM_BATCHES;
    }
    let want = exact.reference(inputs, &ledger);
    for stream in StreamId::ALL {
        let got = server.snapshot(stream).map_err(fail("rung snapshot"))?;
        gates.check(state_matches(&got, &want.sketches[stream as usize]), || {
            format!("sequenced rung: stream {stream} state differs from the reference")
        });
    }
    client.goodbye().map_err(fail("rung goodbye"))?;
    server.shutdown().map_err(fail("rung shutdown"))?;
    Ok(SeqRung {
        ns_per_update: stats::q25(&blocks) as f64 / PASS_UPDATES as f64,
        ack_q25_ns: stats::q25(&acks),
        blocks: blocks.len(),
    })
}

/// What the routed rungs measured.
pub struct RoutedRung {
    /// Q25 of a routed sequenced pass, ns per update.
    pub ns_per_update: f64,
    /// Blocks sampled.
    pub blocks: usize,
    /// Quiet Q25 of a routed `query_join`, µs (as `query_p25_us` takes it).
    pub query_q25_us: f64,
    /// Q25 of `shard_query(SHARD_STREAM_BOTH)` against one shard, µs.
    pub shard_query_us: f64,
    /// Bytes that one `shard_query` returned (both streams).
    pub shard_query_bytes: usize,
    /// Q25 of decoding and merging both shards' state, both streams, µs.
    pub merge_us: f64,
    /// `SHARD_UNAVAILABLE` replies ÷ batches.
    pub degraded_share: f64,
    /// Q25 of `Partitioner::split`, ns per update.
    pub split_ns_per_update: f64,
}

/// Sequenced passes through a `Router` over two shards for `window`, then
/// the read rungs on the resulting state.
pub fn routed_rung(
    inputs: &Inputs,
    exact: &Exact,
    window: Duration,
    secs: f64,
    gates: &mut Gates,
) -> Result<RoutedRung, Fail> {
    let shard_config = || {
        let mut config = ServerConfig::new(inputs::schema());
        config.shard = true;
        config
    };
    let shards = [
        Server::bind("127.0.0.1:0", shard_config()).map_err(fail("bind shard"))?,
        Server::bind("127.0.0.1:0", shard_config()).map_err(fail("bind shard"))?,
    ];
    let config = RouterConfig::new(shards.iter().map(|s| s.local_addr().to_string()).collect());
    let partitioner = Partitioner::new(config.partition_seed, shards.len());
    let router = Router::bind("127.0.0.1:0", config).map_err(fail("bind router"))?;

    let mut client = sequenced(router.local_addr(), 0x2007ED)?;
    let mut backoff = Backoff::new(&BackoffConfig::default());
    let mut blocks = Vec::new();
    let (mut batches, mut degraded) = (0u64, 0u64);
    let mut ledger = Ledger::default();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        let t = Instant::now();
        for stream in StreamId::ALL {
            for batch in inputs.stream(stream).chunks(BATCH) {
                batches += 1;
                // A degraded reply leaves the sequence number unspent, so
                // the same batch is offered again; it must never happen.
                loop {
                    match send_sequenced(&mut client, &mut backoff, stream, batch) {
                        Ok(_) => break,
                        Err(ClientError::Server {
                            code: ErrorCode::ShardUnavailable,
                            ..
                        }) if degraded < 64 => degraded += 1,
                        Err(e) => return Err(format!("routed send_batch: {e}")),
                    }
                }
            }
        }
        for shard in &shards {
            barrier(shard)?;
        }
        blocks.push(t.elapsed().as_nanos() as u64);
        ledger.add_pass();
        gates.attempted += 2 * inputs::STREAM_BATCHES;
    }
    gates.check(degraded == 0, || {
        format!("{degraded} SHARD_UNAVAILABLE replies on the routed rung")
    });

    let want = exact.reference(inputs, &ledger);
    let mut query_ns = Vec::new();
    for _ in 0..ROUTED_QUERIES {
        let t = Instant::now();
        let answer = client.query_join().map_err(fail("routed query"))?;
        query_ns.push(t.elapsed().as_nanos() as u64);
        gates.attempted += 1;
        gates.check(answer_matches(&answer, &want.answer), || {
            format!(
                "routed answer {answer:?} != single-node reference {:?}",
                want.answer
            )
        });
    }
    client.goodbye().map_err(fail("routed goodbye"))?;

    let mut shard_clients = Vec::new();
    for shard in &shards {
        shard_clients
            .push(ServerClient::connect(shard.local_addr()).map_err(fail("connect shard"))?);
    }
    let mut shard_ns = Vec::new();
    let mut shard_bytes = 0;
    for _ in 0..ROUTED_QUERIES {
        let t = Instant::now();
        let (f, g) = shard_clients[0]
            .shard_query(SHARD_STREAM_BOTH)
            .map_err(fail("shard_query"))?;
        shard_ns.push(t.elapsed().as_nanos() as u64);
        shard_bytes = f.len() + g.len();
    }
    let mut parts = Vec::new();
    for c in &mut shard_clients {
        parts.push(
            c.shard_query(SHARD_STREAM_BOTH)
                .map_err(fail("shard_query"))?,
        );
    }
    for c in shard_clients {
        c.goodbye().map_err(fail("shard goodbye"))?;
    }
    let merge = |parts: &[(Vec<u8>, Vec<u8>)]| -> Result<[SkimmedSketch; 2], Fail> {
        let mut merged: [Option<SkimmedSketch>; 2] = [None, None];
        for (f, g) in parts {
            for (slot, bytes) in merged.iter_mut().zip([f, g]) {
                let part = decode_skimmed(bytes.clone().into()).map_err(fail("decode shard"))?;
                match slot {
                    Some(sum) => sum.merge_from(&part),
                    None => *slot = Some(part),
                }
            }
        }
        let [Some(f), Some(g)] = merged else {
            return Err("no shard state to merge".into());
        };
        Ok([f, g])
    };
    let merged = merge(&parts)?;
    for stream in StreamId::ALL {
        gates.check(
            state_matches(&merged[stream as usize], &want.sketches[stream as usize]),
            || format!("merged shard state of stream {stream} differs from the reference"),
        );
    }
    let merge_ns = crate::ladder::sample_for(secs, || {
        std::hint::black_box(merge(&parts).is_ok());
    });
    let batch = &inputs.stream(StreamId::F)[..BATCH];
    let split_ns = crate::ladder::sample_for(secs, || {
        std::hint::black_box(partitioner.split(batch));
    });

    router.shutdown().map_err(fail("router shutdown"))?;
    for shard in shards {
        shard.shutdown().map_err(fail("shard shutdown"))?;
    }
    Ok(RoutedRung {
        ns_per_update: stats::q25(&blocks) as f64 / PASS_UPDATES as f64,
        blocks: blocks.len(),
        query_q25_us: stats::quiet_q25(&query_ns) as f64 / 1e3,
        shard_query_us: stats::q25(&shard_ns) as f64 / 1e3,
        shard_query_bytes: shard_bytes,
        merge_us: stats::q25(&merge_ns) as f64 / 1e3,
        degraded_share: degraded as f64 / batches as f64,
        split_ns_per_update: stats::q25(&split_ns) as f64 / BATCH as f64,
    })
}
