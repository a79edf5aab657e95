//! The traced run: where the per-layer numbers come from.
//!
//! `--trace 1` reruns every workload for a sixth of `--seconds` with the
//! harness recording spans around its own client calls, then replays
//! sampled requests through the layers' public functions on a mirror of
//! the node's final state, then climbs the loopback rungs and the
//! in-process ladder. Tracing *inside* the program (`ClientConfig::trace`,
//! INSPECT phases) is deliberately not used. Per-layer numbers come only
//! from this run; end-to-end numbers only from untraced runs.

use crate::host::HostProbe;
use crate::inputs::{self, Exact, Inputs, BATCH, PASS_UPDATES};
use crate::ladder::{self, seeded_pool, shipped_pool, RUNG_SECS};
use crate::nodes::{self, fail, Fail, Gates, Scratch, LOG_PASSES};
use crate::report::{self, Report, PER_LAYER};
use crate::run::{measure, Measured};
use crate::rungs;
use crate::spans::{self, Tracer};
use crate::stats;
use crate::workloads::{Cx, Outcome, ADDED_EVERY, WORKLOADS};
use skimmed_sketch::{est_subjoin, EstimatorConfig, SkimmedSketch};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stream_durability::{Wal, WalConfig};
use stream_model::{StreamSink, Update};
use stream_sketches::LinearSynopsis;
use stream_wire::{Frame, StreamId};

/// Requests of each kind replayed per workload.
const REPLAYS: usize = 16;
/// `trace.overhead_pct` at or above this fails the traced run.
const OVERHEAD_LIMIT_PCT: f64 = 2.0;

/// Kernel intervals observed on the mirror pool's worker threads.
type KernelLog = Arc<Mutex<Vec<(Instant, u64)>>>;

/// A sketch that notes when its batch kernel ran: the harness's own type
/// in the harness's own pool, so a worker thread's interval is observed
/// from outside the program.
#[derive(Clone)]
struct Timed {
    inner: SkimmedSketch,
    log: KernelLog,
}

impl StreamSink for Timed {
    fn update(&mut self, update: Update) {
        self.inner.update(update);
    }

    fn update_batch(&mut self, batch: &[Update]) {
        let at = Instant::now();
        self.inner.add_batch(batch);
        let ns = at.elapsed().as_nanos() as u64;
        // A poisoned log only loses replay spans, never a measurement.
        if let Ok(mut log) = self.log.lock() {
            log.push((at, ns));
        }
    }
}

impl LinearSynopsis for Timed {
    fn compatible(&self, other: &Self) -> bool {
        self.inner.compatible(&other.inner)
    }

    fn merge_from(&mut self, other: &Self) {
        self.inner.merge_from(&other.inner);
    }

    fn negate(&mut self) {
        self.inner.negate();
    }

    fn clear(&mut self) {
        self.inner.clear();
    }
}

/// Up to `n` of `ids`, evenly spaced.
fn spread(ids: &[u64], n: usize) -> Vec<u64> {
    let step = ids.len().div_ceil(n).max(1);
    ids.iter().copied().step_by(step).collect()
}

fn recorded_ids(samples: &crate::workloads::Samples) -> Vec<u64> {
    samples
        .ids
        .iter()
        .zip(&samples.recorded)
        .filter_map(|(&id, &rec)| rec.then_some(id))
        .collect()
}

/// Replays sampled requests of one workload through the layer functions:
/// `query → {ingest.snapshot ×2, core.skim ×2, core.subjoin, wire.encode}`
/// and `batch → {wire.encode, wire.decode, ingest.dispatch → core.add_batch,
/// durability.append}` (the last only where the node logs). Prints each
/// layer's self time as a share of the replayed requests.
fn replay(
    tracer: &mut Tracer,
    workload: &str,
    out: &Outcome,
    inputs: &Inputs,
    wal_dir: Option<&Path>,
) -> Result<(), Fail> {
    let Some(state) = &out.state else {
        return Err(format!("{workload}: no final state to mirror"));
    };
    let schema = inputs::schema();
    let config = EstimatorConfig::default();

    let from = tracer.spans().len();
    let pools = [
        seeded_pool(Some(state[0].clone())),
        seeded_pool(Some(state[1].clone())),
    ];
    for id in spread(&recorded_ids(&out.queries), REPLAYS) {
        let root = tracer.replay("replay.query", id);
        let mut snaps = Vec::with_capacity(2);
        for pool in &pools {
            let call = tracer.child(&root, "ingest.snapshot");
            snaps.push(pool.snapshot().map_err(fail("mirror snapshot"))?);
            tracer.end(call);
        }
        let mut dense = Vec::with_capacity(2);
        for sketch in &mut snaps {
            let call = tracer.child(&root, "core.skim");
            let t = config.policy.threshold(sketch.base(), sketch.l1_mass());
            dense.push(sketch.skim(t, config.max_candidates));
            tracer.end(call);
        }
        let call = tracer.child(&root, "core.subjoin");
        let dd = dense[0].dot(&dense[1]) as f64;
        let ds = est_subjoin(&dense[0], snaps[1].base());
        let sd = est_subjoin(&dense[1], snaps[0].base());
        let ss = snaps[0].base().join_estimate(snaps[1].base());
        tracer.end(call);
        let call = tracer.child(&root, "wire.encode");
        std::hint::black_box(
            Frame::Answer {
                estimate: dd + ds + sd + ss,
                dense_dense: dd,
                dense_sparse: ds,
                sparse_dense: sd,
                sparse_sparse: ss,
                dense_f: dense[0].len() as u64,
                dense_g: dense[1].len() as u64,
            }
            .encode(),
        );
        tracer.end(call);
        tracer.end(root);
    }
    for pool in pools {
        pool.finish().map_err(fail("mirror finish"))?;
    }
    print_shares(tracer, workload, "query", from, &out.queries.ns);

    let from = tracer.spans().len();
    let log: KernelLog = Arc::default();
    let pool = {
        let log = log.clone();
        shipped_pool(move || Timed {
            inner: SkimmedSketch::new(schema.clone()),
            log: log.clone(),
        })
    };
    let mut wal = match wal_dir {
        Some(dir) => Some(
            Wal::open(WalConfig::new(dir))
                .map_err(fail("replay log"))?
                .0,
        ),
        None => None,
    };
    // One batch per replay, attributed round-robin to the recorded blocks.
    let blocks = recorded_ids(&out.blocks);
    let batches = inputs.stream(StreamId::F).chunks(BATCH).take(REPLAYS);
    for (&id, batch) in blocks.iter().cycle().zip(batches) {
        let root = tracer.replay("replay.batch", id);
        let call = tracer.child(&root, "wire.encode");
        let record = stream_wire::encode_update_batch(StreamId::F, 7, id + 1, batch);
        tracer.end(call);
        let call = tracer.child(&root, "wire.decode");
        let (frame, _) =
            Frame::decode(&record, stream_wire::DEFAULT_MAX_PAYLOAD).map_err(fail("decode"))?;
        tracer.end(call);
        let Frame::UpdateBatch { updates, .. } = frame else {
            return Err("an encoded batch decoded to another frame kind".into());
        };
        let call = tracer.child(&root, "ingest.dispatch");
        pool.dispatch(updates);
        pool.snapshot().map_err(fail("mirror barrier"))?;
        if let Ok(mut log) = log.lock() {
            for (at, ns) in log.drain(..) {
                tracer.attach(&call, "core.add_batch", at, ns);
            }
        }
        tracer.end(call);
        if let Some(wal) = wal.as_mut() {
            let call = tracer.child(&root, "durability.append");
            wal.append_encoded(&record).map_err(fail("replay append"))?;
            tracer.end(call);
        }
        tracer.end(root);
    }
    pool.finish().map_err(fail("mirror finish"))?;
    // One acknowledged batch as the window saw it: a block's Q25 over its
    // batches.
    let per_batch: Vec<u64> = out
        .blocks
        .ns
        .iter()
        .map(|ns| ns * BATCH as u64 / out.block_updates)
        .collect();
    print_shares(tracer, workload, "batch", from, &per_batch);
    Ok(())
}

fn print_shares(tracer: &Tracer, workload: &str, kind: &str, from: usize, measured_ns: &[u64]) {
    let spans = &tracer.spans()[from..];
    let roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    if roots.is_empty() || measured_ns.is_empty() {
        return;
    }
    let (replayed, measured) = (stats::q25(&roots), stats::q25(measured_ns));
    println!(
        "layers {workload} {kind}: replayed in-process {:.1} us of {:.1} us measured over the \
         wire (Q25, n={}); self-time shares of the replay:",
        replayed as f64 / 1e3,
        measured as f64 / 1e3,
        roots.len()
    );
    for (name, share) in spans::self_shares(tracer.spans(), from) {
        println!(
            "layers {workload} {kind}:   {name:<22} {:5.1} %",
            share * 100.0
        );
    }
}

/// What recording a request's spans adds to it, in percent: the median over
/// all recorded requests of `recorded ÷ the unrecorded request issued next
/// to it` (its predecessor, else its successor), minus one. Neighbours are
/// milliseconds apart, so both saw the same host; the coin that picks the
/// recorded half is a fixed function of the request id. `None` if no
/// recorded request has an unrecorded neighbour.
fn overhead_pct(queries: &crate::workloads::Samples) -> Option<f64> {
    let (ns, rec) = (&queries.ns, &queries.recorded);
    let mut ratios: Vec<f64> = (0..ns.len())
        .filter(|&i| rec[i])
        .filter_map(|i| {
            let before = i.checked_sub(1).filter(|&j| !rec[j]);
            let after = Some(i + 1).filter(|&j| j < ns.len() && !rec[j]);
            before.or(after).map(|j| ns[i] as f64 / ns[j] as f64)
        })
        .collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(f64::total_cmp);
    Some((ratios[ratios.len() / 2] - 1.0) * 100.0)
}

/// Runs the traced run; `named` is the workload the driver asked for,
/// which names the span file. Returns whether every gate held.
pub fn run(named: &str, seed: u64, seconds: f64) -> bool {
    println!("workload {named} seed {seed} seconds {seconds} trace 1");
    let mut report = Report::default();
    let mut gates = Gates::default();
    let mut tracer = Tracer::sampling(seed);
    let mut host = HostProbe::start();
    let result = climb(
        seed,
        seconds,
        RUNG_SECS,
        &mut report,
        &mut gates,
        &mut tracer,
        &mut host,
    );
    let probe = host.finish();
    report.push_named("host.spin_slow_share", probe.spin_slow_share, probe.probes);
    report.push_named("host.handoff_p25_us", probe.handoff_p25_us, probe.probes);
    if let Err(e) = result {
        gates.fail(e);
    }
    // Gated here, on the full-length traced window, not in `climb`: its
    // unit test runs half-second windows, where forty neighbour pairs
    // cannot resolve two percent.
    if let Some(overhead) = report.get("trace.overhead_pct") {
        gates.check(overhead < OVERHEAD_LIMIT_PCT, || {
            format!("trace.overhead_pct is {overhead:.2} %, the budget is {OVERHEAD_LIMIT_PCT} %")
        });
    }
    for (name, _) in PER_LAYER {
        gates.check(report.get(name).is_some(), || {
            format!("{name} was not measured")
        });
    }
    if let Err(e) = write_spans(&tracer, named, seed) {
        gates.fail(e);
    }
    for note in &gates.notes {
        eprintln!("FAILED traced run: {note}");
    }
    report::finish(&report.result_line(&PER_LAYER, gates.attempted, gates.failed));
    gates.failed == 0
}

fn write_spans(tracer: &Tracer, named: &str, seed: u64) -> Result<(), Fail> {
    let dir = nodes::out_dir();
    std::fs::create_dir_all(&dir).map_err(fail("create out dir"))?;
    let path = dir.join(format!("spans-{named}-{seed}.json"));
    std::fs::write(&path, spans::chrome_trace_json(tracer.spans())).map_err(fail("write spans"))?;
    println!(
        "spans {} recorded, written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn climb(
    seed: u64,
    seconds: f64,
    rung_secs: f64,
    r: &mut Report,
    gates: &mut Gates,
    tracer: &mut Tracer,
    host: &mut HostProbe,
) -> Result<(), Fail> {
    let window = Duration::from_secs_f64(seconds / 6.0);
    let rung_window = Duration::from_secs_f64(seconds / 10.0);
    let inputs = Inputs::generate(seed);
    let exact = Exact::of(&inputs, inputs::schema());
    let scratch = Scratch::new("traced").map_err(fail("scratch"))?;

    // --- the four workloads, traced, each followed by its replays ---------
    let mut windows: Vec<Measured> = Vec::with_capacity(WORKLOADS.len());
    for workload in WORKLOADS {
        let measured = measure(
            workload,
            seed,
            1,
            &mut Cx {
                tracer,
                host,
                gates,
                window,
                traced: true,
            },
        )?;
        let replay_log = scratch.path().join("replay-log");
        let wal_dir = (workload == "durable_repl").then_some(replay_log.as_path());
        replay(tracer, workload, &measured.outcome, &inputs, wal_dir)?;
        windows.push(measured);
    }
    let [ingest, scan, mixed, repl] = windows.as_slice() else {
        return Err("a workload is missing from the traced run".into());
    };

    let unseq = 1e3 / ingest.outcome.melem_s();
    r.push_named(
        "server.unseq_ns_per_update",
        unseq,
        ingest.outcome.blocks.ns.len(),
    );
    let offered = ingest.outcome.batches + ingest.outcome.throttled;
    r.push_named(
        "server.throttle_share",
        ingest.outcome.throttled as f64 / offered as f64,
        offered as usize,
    );

    let queries = &scan.outcome.queries;
    let n = queries.ns.len();
    r.push_named(
        "server.query_p50_us",
        stats::p50(&queries.ns) as f64 / 1e3,
        n,
    );
    r.push_named(
        "server.query_p99_us",
        stats::tail(&queries.ns, 99, 30).0 as f64 / 1e3,
        n,
    );
    // Every eighth query was followed by the same estimate in-process:
    // what the round trip adds is the difference of the two Q25s.
    let nb = &scan.outcome.neighbours;
    if nb.is_empty() {
        return Err(format!(
            "the traced query_scan window was too short to pair a query with an in-process \
             estimate ({n} queries, one in {ADDED_EVERY} is paired)"
        ));
    }
    let wire: Vec<u64> = nb.iter().map(|p| p.0).collect();
    let local: Vec<u64> = nb.iter().map(|p| p.1).collect();
    r.push_named(
        "server.query_added_us",
        (stats::q25(&wire) as f64 - stats::q25(&local) as f64) / 1e3,
        nb.len(),
    );
    let overhead = overhead_pct(queries).ok_or(
        "the traced query_scan window recorded all or none of its queries, so the tracing \
         overhead has no neighbours to compare",
    )?;
    r.push_named("trace.overhead_pct", overhead, n);

    let scan_q25 = scan.outcome.query_q25_us();
    r.push_named(
        "server.mixed_query_wait_us",
        mixed.outcome.query_q25_us() - scan_q25,
        mixed.outcome.queries.ns.len(),
    );

    let acks = &repl.outcome.acks;
    let (p50, p95) = repl.outcome.ack_p50_p95_us();
    r.push_named("server.repl_batch_ack_p50_us", p50, acks.len());
    r.push_named("server.repl_batch_ack_p95_us", p95, acks.len());
    r.push_named(
        "server.replica_lag_bytes_max",
        repl.outcome.lag_max as f64,
        acks.len(),
    );
    let logged_melem = (LOG_PASSES * PASS_UPDATES) as f64 / 1e6;
    let (recovery, bootstrap) = repl
        .restart
        .ok_or("durable_repl reported no restart times")?;
    r.push_named(
        "server.bootstrap_s_per_melem",
        bootstrap.as_secs_f64() / logged_melem,
        1,
    );
    r.push_named(
        "server.recovery_s_per_melem",
        recovery.as_secs_f64() / logged_melem,
        1,
    );
    r.push_named(
        "server.promote_first_answer_ms",
        repl.outcome
            .promote_ms
            .ok_or("durable_repl reported no promotion")?,
        1,
    );

    // --- loopback rungs ----------------------------------------------------
    let seq = rungs::sequenced_rung(&inputs, &exact, None, rung_window, gates)?;
    r.push_named("server.seq_ns_per_update", seq.ns_per_update, seq.blocks);
    let wal_dir = scratch.path().join("seq-wal");
    let seq_wal = rungs::sequenced_rung(&inputs, &exact, Some(&wal_dir), rung_window, gates)?;
    r.push_named(
        "server.seq_wal_ns_per_update",
        seq_wal.ns_per_update,
        seq_wal.blocks,
    );
    r.push_named(
        "server.gate_wait_us",
        (stats::q25(acks) as f64 - seq_wal.ack_q25_ns as f64) / 1e3,
        acks.len(),
    );
    let routed = rungs::routed_rung(&inputs, &exact, rung_window, rung_secs, gates)?;
    r.push_named("cluster.split_ns_per_update", routed.split_ns_per_update, 1);
    r.push_named(
        "cluster.routed_s2_ns_per_update",
        routed.ns_per_update,
        routed.blocks,
    );
    r.push_named(
        "cluster.router_added_ns_per_update",
        routed.ns_per_update - seq.ns_per_update,
        routed.blocks,
    );
    r.push_named("cluster.shard_query_us", routed.shard_query_us, 1);
    r.push_named(
        "cluster.shard_query_bytes",
        routed.shard_query_bytes as f64,
        1,
    );
    r.push_named("cluster.merge_us", routed.merge_us, 1);
    r.push_named(
        "cluster.routed_query_added_us",
        routed.query_q25_us - scan_q25,
        1,
    );
    r.push_named(
        "cluster.degraded_share",
        routed.degraded_share,
        routed.blocks,
    );

    // --- the in-process ladder ---------------------------------------------
    let template = scratch.path().join("prepared-log");
    let log_bytes = nodes::prepare_log(&template, &inputs)?;
    ladder::run(r, &inputs, &exact, seed, &template, log_bytes, rung_secs)?;
    let dispatch = r
        .get("ingest.dispatch_ns_per_update")
        .ok_or("the ladder took no ingest.dispatch rung")?;
    r.push_named("server.wire_added_ns_per_update", unseq - dispatch, 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_compares_recorded_requests_with_their_neighbours() {
        // The host doubles every time half-way through; recorded requests
        // cost 1 % more than the unrecorded ones beside them throughout.
        let mut q = crate::workloads::Samples::default();
        for i in 0..40u64 {
            let host = if i < 20 { 1000 } else { 2000 };
            let recorded = i % 2 == 1;
            q.ns.push(if recorded { host + host / 100 } else { host });
            q.recorded.push(recorded);
        }
        let overhead = overhead_pct(&q).expect("every recorded request has a neighbour");
        assert!((overhead - 1.0).abs() < 1e-9, "{overhead}");
        q.recorded.fill(true);
        assert_eq!(overhead_pct(&q), None, "nothing to compare with");
    }

    #[test]
    fn traced_run_takes_every_per_layer_metric() {
        let mut report = Report::default();
        let mut gates = Gates::default();
        let mut tracer = Tracer::sampling(3);
        let mut host = HostProbe::start();
        // Half-second windows, 0.3 s loopback rungs, 20 ms ladder rungs.
        climb(
            3,
            3.0,
            0.02,
            &mut report,
            &mut gates,
            &mut tracer,
            &mut host,
        )
        .unwrap_or_else(|e| panic!("traced run failed: {e}"));
        let probe = host.finish();
        report.push_named("host.spin_slow_share", probe.spin_slow_share, probe.probes);
        report.push_named("host.handoff_p25_us", probe.handoff_p25_us, probe.probes);
        assert_eq!(gates.failed, 0, "gates: {:?}", gates.notes);
        for (name, _) in PER_LAYER {
            assert!(report.get(name).is_some(), "no {name}");
        }
        for exact in [
            "core.dense_count",
            "core.state_bytes",
            "wire.bytes_per_update",
        ] {
            assert!(report.get(exact).is_some_and(|v| v > 0.0));
        }
        assert_eq!(report.get("cluster.degraded_share"), Some(0.0));
        // Spans nest: every child lies under a recorded parent of the same
        // request.
        let spans = tracer.spans();
        assert!(spans.iter().any(|s| s.name == "core.add_batch"));
        for s in spans {
            if let Some(p) = s.parent {
                assert_eq!(spans[p].request_id, s.request_id, "{}", s.name);
            }
        }
    }
}
