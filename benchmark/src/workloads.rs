//! The four workloads: what runs inside a measured window.
//!
//! Every workload is one generator thread in a closed loop over at most two
//! connections, with no harness sleep inside a timed sample (the only
//! pause is the product's own `ss-retry` backoff after a THROTTLE). A
//! throughput sample is a **block**: a fixed amount of work many times the
//! pool's queue capacity that ends with a barrier proving everything
//! acknowledged was absorbed. A latency sample is one `query_join` round
//! trip. Every checked answer must equal the in-process `estimate_join` of
//! the exact reference bit for bit.
//!
//! A run is [`crate::run::EPOCHS`] epochs; the functions here run one
//! epoch's slice of the window on freshly set-up nodes and pool their
//! samples into the run's one [`Outcome`].

use crate::host::HostProbe;
use crate::inputs::{
    answer_matches, state_matches, Exact, Inputs, Reference, BATCH, PASS_UPDATES, STREAM_BATCHES,
};
use crate::nodes::{
    barrier, fail, mirrored, send_stream, wait_until, wal_config, Fail, Gates, PlainEnv, ReplEnv,
};
use crate::spans::{Timer, Tracer};
use crate::stats;
use skimmed_sketch::{estimate_join, EstimatorConfig, SkimmedSketch};
use std::time::{Duration, Instant};
use stream_server::{
    Backoff, BackoffConfig, BatchOutcome, ClientError, JoinAnswer, Server, ServerClient,
};
use stream_wire::StreamId;

/// The four workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["ingest_wire", "query_scan", "mixed_rw", "durable_repl"];

/// Batches of each stream in one `mixed_rw` cycle: the pool's queue
/// capacity (2 workers × depth 8).
pub const CYCLE_BATCHES: u64 = 16;
/// Cycles in one `mixed_rw` block (one pass).
pub const BLOCK_CYCLES: u64 = STREAM_BATCHES / CYCLE_BATCHES;
/// Sequenced batches in one `durable_repl` block.
pub const REPL_BLOCK_BATCHES: u64 = 64;
/// Follower queries after each `durable_repl` block.
pub const REPL_BLOCK_QUERIES: usize = 32;
/// One `query_scan` round: a refresh pass, then queries. Half a second
/// keeps the scan at 85 % of the round's time and still gives the refresh
/// passes (the workload's throughput blocks) more than one quiet stretch
/// of samples per run.
pub const SCAN_ROUND: Duration = Duration::from_millis(500);
/// In a traced `query_scan`, every this-many-th query is followed by the
/// same `estimate_join` in-process.
pub const ADDED_EVERY: usize = 8;

/// Timed samples of one kind, with the request each belongs to.
#[derive(Default)]
pub struct Samples {
    /// Elapsed nanoseconds per sample.
    pub ns: Vec<u64>,
    /// Request id per sample.
    pub ids: Vec<u64>,
    /// Whether the sample's request was recorded as spans.
    pub recorded: Vec<bool>,
}

impl Samples {
    /// Stops `timer` and keeps its sample.
    pub fn push(&mut self, tracer: &mut Tracer, timer: Timer) -> u64 {
        self.ids.push(timer.request_id());
        self.recorded.push(timer.recorded());
        let ns = tracer.end(timer);
        self.ns.push(ns);
        ns
    }
}

/// What one window produced.
#[derive(Default)]
pub struct Outcome {
    /// Throughput blocks.
    pub blocks: Samples,
    /// Each block's position within its epoch (`durable_repl` only: block
    /// `k` of every epoch starts at the same log position).
    pub block_positions: Vec<u32>,
    /// Updates per block.
    pub block_updates: u64,
    /// `query_join` round trips.
    pub queries: Samples,
    /// Sequenced `send_batch` call → `Accepted`, retries included.
    pub acks: Vec<u64>,
    /// Batches acknowledged in the window.
    pub batches: u64,
    /// THROTTLE replies absorbed in the window.
    pub throttled: u64,
    /// Largest `replication_lag_bytes()` read after a batch.
    pub lag_max: u64,
    /// `halt()` returned → promoted follower's first checked answer, ms.
    pub promote_ms: Option<f64>,
    /// `(round trip, neighbouring in-process estimate_join)`, ns.
    pub neighbours: Vec<(u64, u64)>,
    /// `VmHWM` when the first epoch and its state check ended.
    pub peak_rss_mb: f64,
    /// The node's final state, for the traced run's replays.
    pub state: Option<[SkimmedSketch; 2]>,
}

impl Outcome {
    /// An empty outcome for `workload`, which fixes the block size.
    pub fn of(workload: &str) -> Self {
        Outcome {
            block_updates: match workload {
                "durable_repl" => REPL_BLOCK_BATCHES * BATCH as u64,
                _ => PASS_UPDATES,
            },
            ..Outcome::default()
        }
    }

    /// Updates per block ÷ quiet Q25 of block time, Melem/s.
    pub fn melem_s(&self) -> f64 {
        self.block_updates as f64 * 1e3 / stats::quiet_q25(&self.blocks.ns) as f64
    }

    /// Quiet Q25 of the `query_join` round trips, µs.
    pub fn query_q25_us(&self) -> f64 {
        stats::quiet_q25(&self.queries.ns) as f64 / 1e3
    }

    /// Q25 of the block times at `position` within their epoch, ms.
    pub fn block_q25_ms_at(&self, position: u32) -> Option<(f64, usize)> {
        let at: Vec<u64> = self
            .blocks
            .ns
            .iter()
            .zip(&self.block_positions)
            .filter_map(|(&ns, &p)| (p == position).then_some(ns))
            .collect();
        (!at.is_empty()).then(|| (stats::q25(&at) as f64 / 1e6, at.len()))
    }

    /// p50 and p95 of the sequenced acks, µs.
    pub fn ack_p50_p95_us(&self) -> (f64, f64) {
        let acks = stats::sorted(&self.acks);
        (
            stats::nearest_rank(&acks, 1, 2) as f64 / 1e3,
            stats::nearest_rank(&acks, 95, 100) as f64 / 1e3,
        )
    }
}

/// What a workload needs besides its nodes.
pub struct Cx<'a> {
    /// The harness clock and span log.
    pub tracer: &'a mut Tracer,
    /// The host probe, polled between samples.
    pub host: &'a mut HostProbe,
    /// Operation and gate accounting.
    pub gates: &'a mut Gates,
    /// Window length, all epochs together.
    pub window: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
}

fn check_answer(gates: &mut Gates, what: &str, got: &JoinAnswer, want: &Reference) {
    gates.check(answer_matches(got, &want.answer), || {
        format!(
            "{what}: served answer {:?} != in-process estimate {:?}",
            got, want.answer
        )
    });
}

fn check_state(gates: &mut Gates, what: &str, node: &Server, want: &Reference) -> Result<(), Fail> {
    for stream in StreamId::ALL {
        let got = node.snapshot(stream).map_err(fail("state snapshot"))?;
        gates.check(state_matches(&got, &want.sketches[stream as usize]), || {
            format!("{what}: stream {stream} counters or l1_mass differ from the reference")
        });
    }
    Ok(())
}

fn final_state(node: &Server) -> Result<Option<[SkimmedSketch; 2]>, Fail> {
    Ok(Some([
        node.snapshot(StreamId::F).map_err(fail("final snapshot"))?,
        node.snapshot(StreamId::G).map_err(fail("final snapshot"))?,
    ]))
}

/// One timed pass: `send_all(F)` + `send_all(G)` + the snapshot barrier.
/// The barrier costs microseconds and runs in this process, so a faster
/// query cannot move a write figure.
fn timed_pass(env: &mut PlainEnv, cx: &mut Cx, out: &mut Outcome) -> Result<(), Fail> {
    let pass = cx.tracer.request("workload.pass");
    let mut acked = 0;
    for stream in StreamId::ALL {
        let call = cx.tracer.child(&pass, "client.send_all");
        let report = send_stream(&mut env.client, &env.inputs, stream)?;
        cx.tracer.end(call);
        out.batches += report.batches;
        out.throttled += report.throttled;
        cx.gates.attempted += report.batches;
        acked += report.updates;
    }
    let call = cx.tracer.child(&pass, "server.snapshot");
    barrier(&env.server)?;
    cx.tracer.end(call);
    out.blocks.push(cx.tracer, pass);
    env.ledger.add_pass();
    cx.gates.check(acked == PASS_UPDATES, || {
        format!("a pass acknowledged {acked} of {PASS_UPDATES} updates")
    });
    Ok(())
}

fn timed_query(
    client: &mut ServerClient,
    cx: &mut Cx,
    out: &mut Outcome,
) -> Result<(JoinAnswer, u64), Fail> {
    let call = cx.tracer.request("client.query_join");
    let answer = client.query_join().map_err(fail("query_join"))?;
    let ns = out.queries.push(cx.tracer, call);
    cx.gates.attempted += 1;
    Ok((answer, ns))
}

/// `ingest_wire`: timed passes back to back; after each, one query timed
/// on its own and checked.
fn ingest_wire(
    env: &mut PlainEnv,
    exact: &Exact,
    cx: &mut Cx,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), Fail> {
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        cx.host.maybe_probe();
        timed_pass(env, cx, out)?;
        let (answer, _) = timed_query(&mut env.client, cx, out)?;
        let want = exact.reference(&env.inputs, &env.ledger);
        check_answer(cx.gates, "ingest_wire", &answer, &want);
    }
    Ok(())
}

/// `query_scan`: rounds of [`SCAN_ROUND`], each opening with one timed
/// refresh pass and then issuing `query_join` back to back until the round
/// ends.
fn query_scan(
    env: &mut PlainEnv,
    exact: &Exact,
    cx: &mut Cx,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), Fail> {
    let config = EstimatorConfig::default();
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        let round_end = deadline.min(Instant::now() + SCAN_ROUND);
        cx.host.maybe_probe();
        timed_pass(env, cx, out)?;
        let want = exact.reference(&env.inputs, &env.ledger);
        let mut first = true;
        while first || Instant::now() < round_end {
            first = false;
            let (answer, ns) = timed_query(&mut env.client, cx, out)?;
            check_answer(cx.gates, "query_scan", &answer, &want);
            if cx.traced && out.queries.ns.len().is_multiple_of(ADDED_EVERY) {
                // The same estimate on identical state, a neighbour in
                // time: what the round trip adds to it.
                let t = Instant::now();
                let local = estimate_join(&want.sketches[0], &want.sketches[1], &config);
                let local_ns = t.elapsed().as_nanos() as u64;
                std::hint::black_box(local);
                out.neighbours.push((ns, local_ns));
            }
        }
    }
    Ok(())
}

/// `mixed_rw`: cycle = 16 F batches, 16 G batches (each exactly the pool's
/// queue capacity), one `query_join`; eight cycles are one pass and one
/// block, queries included.
fn mixed_rw(
    env: &mut PlainEnv,
    exact: &Exact,
    cx: &mut Cx,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), Fail> {
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        cx.host.maybe_probe();
        let block = cx.tracer.request("workload.block");
        let mut last = None;
        for cycle in 0..BLOCK_CYCLES {
            let (from, to) = (cycle * CYCLE_BATCHES, (cycle + 1) * CYCLE_BATCHES);
            for stream in StreamId::ALL {
                let call = cx.tracer.child(&block, "client.send_all");
                let report = env
                    .client
                    .send_all(stream, env.inputs.batches(stream, from, to), BATCH)
                    .map_err(fail("send_all"))?;
                cx.tracer.end(call);
                out.batches += report.batches;
                out.throttled += report.throttled;
                cx.gates.attempted += report.batches;
            }
            let call = cx.tracer.child(&block, "client.query_join");
            last = Some(env.client.query_join().map_err(fail("query_join"))?);
            out.queries.push(cx.tracer, call);
            cx.gates.attempted += 1;
        }
        out.blocks.push(cx.tracer, block);
        env.ledger.add_pass();
        let want = exact.reference(&env.inputs, &env.ledger);
        if let Some(answer) = last {
            check_answer(cx.gates, "mixed_rw", &answer, &want);
        }
    }
    Ok(())
}

/// One sequenced batch, strictly: THROTTLE is retried under the product's
/// own backoff, exactly as the shipped `send_all` does for a sequenced
/// session. Returns the THROTTLE replies absorbed.
pub fn send_sequenced(
    client: &mut ServerClient,
    backoff: &mut Backoff,
    stream: StreamId,
    batch: &[stream_model::Update],
) -> Result<u64, ClientError> {
    let mut throttled = 0;
    loop {
        match client.send_batch(stream, batch)? {
            BatchOutcome::Accepted(_) => {
                backoff.reset();
                return Ok(throttled);
            }
            BatchOutcome::Throttled { .. } => {
                throttled += 1;
                std::thread::sleep(backoff.delay());
            }
        }
    }
}

/// One epoch of `durable_repl`: blocks of 64 sequenced batches to the
/// primary; after each, 32 `query_join` to the follower over the second
/// connection. Every epoch starts over a fresh copy of the prepared log,
/// so block `k` of every epoch starts at the same log position. The
/// program reads the whole active segment on every replication poll, so a
/// block costs more the longer the log is: without the restart the blocks
/// of one window would not be samples of identical work.
pub fn durable_repl(
    env: &mut ReplEnv,
    inputs: &Inputs,
    exact: &Exact,
    cx: &mut Cx,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), Fail> {
    let mut backoff = Backoff::new(&BackoffConfig::default());
    // Blocks walk one pass in four quarters: F[0..64), F[64..128),
    // G[0..64), G[64..128).
    let mut quarter = 0u64;
    // A block is a second or more, so one is started only while the
    // epoch's mean block time still fits in what is left of the slice:
    // the slice is wall-clock, and an overrun of most of a block in each
    // of five epochs would not fit the driver's time cap.
    let started = Instant::now();
    let fits = |done: u64| {
        let spent = started.elapsed();
        done == 0 || spent + spent / done as u32 <= slice
    };
    while fits(quarter) {
        cx.host.maybe_probe();
        let stream = StreamId::ALL[(quarter / 2 % 2) as usize];
        let first = quarter % 2 * REPL_BLOCK_BATCHES;
        let block = cx.tracer.request("workload.block");
        for i in first..first + REPL_BLOCK_BATCHES {
            let call = cx.tracer.child(&block, "client.send_batch");
            out.throttled += send_sequenced(
                &mut env.producer,
                &mut backoff,
                stream,
                inputs.batches(stream, i, i + 1),
            )
            .map_err(fail("send_batch"))?;
            out.acks.push(cx.tracer.end(call));
            out.lag_max = out
                .lag_max
                .max(env.follower.replication_lag_bytes().unwrap_or(0));
        }
        let call = cx.tracer.child(&block, "server.snapshot");
        barrier(&env.primary)?;
        cx.tracer.end(call);
        out.blocks.push(cx.tracer, block);
        out.block_positions.push(quarter as u32);
        quarter += 1;
        out.batches += REPL_BLOCK_BATCHES;
        cx.gates.attempted += REPL_BLOCK_BATCHES;
        env.ledger.add(stream, REPL_BLOCK_BATCHES);

        // An ack implies the follower applied the batch, so every answer
        // it gives now is the reference at this block count.
        let want = exact.reference(inputs, &env.ledger);
        for _ in 0..REPL_BLOCK_QUERIES {
            let (answer, _) = timed_query(&mut env.reader, cx, out)?;
            check_answer(cx.gates, "durable_repl follower", &answer, &want);
        }
    }

    let want = exact.reference(inputs, &env.ledger);
    let drained = wait_until(Duration::from_secs(30), || {
        mirrored(&env.primary, &env.follower)
    });
    cx.gates.check(drained, || {
        format!(
            "follower lag never drained (lag {:?})",
            env.follower.replication_lag_bytes()
        )
    });
    check_state(cx.gates, "primary at end of epoch", &env.primary, &want)?;
    check_state(cx.gates, "drained follower", &env.follower, &want)?;
    if cx.traced {
        out.state = final_state(&env.primary)?;
    }
    Ok(())
}

/// After the last epoch of `durable_repl`: `halt()` the primary, promote
/// the follower and check its answer, re-bind over the primary's log and
/// check the recovered answer.
pub fn fail_over(
    mut env: ReplEnv,
    inputs: &Inputs,
    exact: &Exact,
    cx: &mut Cx,
    out: &mut Outcome,
) -> Result<(), Fail> {
    let want = exact.reference(inputs, &env.ledger);
    env.producer.goodbye().map_err(fail("producer goodbye"))?;
    env.primary.halt();
    let t = Instant::now();
    let epoch = env.reader.promote(2).map_err(fail("promote"))?;
    let answer = env.reader.query_join().map_err(fail("promoted query"))?;
    out.promote_ms = Some(t.elapsed().as_secs_f64() * 1e3);
    cx.gates
        .check(epoch == 2, || format!("promote echoed epoch {epoch}"));
    check_answer(cx.gates, "promoted follower", &answer, &want);
    check_state(cx.gates, "promoted follower", &env.follower, &want)?;
    env.reader.goodbye().map_err(fail("reader goodbye"))?;
    env.follower.shutdown().map_err(fail("follower shutdown"))?;

    let recovered = Server::bind("127.0.0.1:0", wal_config(&env.primary_dir))
        .map_err(fail("re-bind over the primary's log"))?;
    check_state(cx.gates, "recovered primary", &recovered, &want)?;
    let mut client =
        ServerClient::connect(recovered.local_addr()).map_err(fail("connect recovered"))?;
    let answer = client.query_join().map_err(fail("recovered query"))?;
    check_answer(cx.gates, "recovered primary", &answer, &want);
    client.goodbye().map_err(fail("recovered goodbye"))?;
    recovered.shutdown().map_err(fail("recovered shutdown"))?;
    Ok(())
}

/// One epoch of the WAL-less workload `name` on `env`: `slice` of its loop,
/// then the end-of-epoch state check.
pub fn run_plain(
    name: &str,
    env: &mut PlainEnv,
    exact: &Exact,
    cx: &mut Cx,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), Fail> {
    match name {
        "ingest_wire" => ingest_wire(env, exact, cx, slice, out)?,
        "query_scan" => query_scan(env, exact, cx, slice, out)?,
        "mixed_rw" => mixed_rw(env, exact, cx, slice, out)?,
        other => return Err(format!("{other} is not a WAL-less workload")),
    }
    let want = exact.reference(&env.inputs, &env.ledger);
    check_state(cx.gates, "end of epoch", &env.server, &want)?;
    if cx.traced {
        out.state = final_state(&env.server)?;
    }
    Ok(())
}
