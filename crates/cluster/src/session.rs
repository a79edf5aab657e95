//! One router→shard connection with the retry, resume, and
//! exactly-once machinery the fan-out path needs.
//!
//! Each router handler thread owns one [`ShardSession`] per shard,
//! sequenced under a client id unique to that handler — so a shard sees
//! the router as a set of independent idempotent producers, and the
//! server-side `(client_id, stream, seq)` dedup it already implements
//! for direct clients gives the router exactly-once delivery for free.
//!
//! The crash-window argument for [`ShardSession::send_batch`]: the
//! session captures the shard-side sequence number a batch will be
//! applied under *before* the first send attempt. If the connection
//! dies without an ack, the retry reconnects and RESUMEs; the shard's
//! recovered high-water mark then tells the truth — if it advanced past
//! the captured number the batch was applied (and WAL-persisted) before
//! the crash, otherwise it is resent under the same number. Either way
//! the shard applies it exactly once.

use std::sync::Arc;
use std::time::Instant;
use stream_model::update::Update;
use stream_server::{Attempt, BatchOutcome, ClientConfig, ClientError, Redial, ServerClient};
use stream_wire::{StreamId, TraceContext};

use crate::failover::AddressBook;
use crate::telem::ShardMetrics;

/// A shard operation abandoned after the session's whole retry budget:
/// the typed ingredients of the degraded-mode SHARD_UNAVAILABLE reply,
/// naming the missing partition instead of silently under-counting.
#[derive(Debug)]
pub struct ShardError {
    /// The partition (= manifest index) that is unreachable.
    pub partition: usize,
    /// Its address, for the operator.
    pub addr: String,
    /// Attempts spent before giving up.
    pub attempts: u32,
    /// The failure that ended the last attempt.
    pub last: ClientError,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partition {} ({}) unavailable after {} attempts: {}",
            self.partition, self.addr, self.attempts, self.last
        )
    }
}

impl std::error::Error for ShardError {}

/// A forwarded sub-batch counts as delivered only once the shard acked
/// it; a THROTTLE keeps the connection and retries.
fn delivered(outcome: Result<BatchOutcome, ClientError>) -> Result<(), Attempt> {
    match outcome {
        Ok(BatchOutcome::Accepted(_)) => Ok(()),
        Ok(BatchOutcome::Throttled { .. }) => Err(Attempt::Throttled),
        Err(e) => Err(Attempt::Failed(e)),
    }
}

/// One handler thread's connection to one shard server: the shared
/// [`Redial`] core plus what only the fan-out path needs — the failover
/// address book, throttles spending retry budget, per-shard telemetry.
pub struct ShardSession {
    partition: usize,
    link: Redial,
    metrics: Option<ShardMetrics>,
}

impl ShardSession {
    /// A session for `partition` at `addr`, sequenced under
    /// `config.client_id` (which must be unique per handler thread) and
    /// allowed `retry_budget` retries per operation.
    pub fn new(partition: usize, addr: String, config: ClientConfig, retry_budget: u32) -> Self {
        ShardSession {
            partition,
            link: Redial::new(addr, config, retry_budget.max(1)),
            metrics: stream_telemetry::ENABLED.then(|| crate::telem::shard_metrics(partition)),
        }
    }

    /// Attaches the failover address book: the session follows
    /// promotions by re-reading its partition's primary whenever the
    /// book's version moves (one atomic load when nothing changed). The
    /// dropped-and-redialed connection then RESUMEs against the new
    /// primary, whose replicated idempotency table dedups anything the
    /// old primary already applied.
    pub fn with_address_book(mut self, book: Arc<AddressBook>) -> Self {
        let partition = self.partition;
        // Version 0 is below any real book version, so the first dial
        // syncs the address even if a promotion raced bind.
        let mut seen = 0;
        self.link = self.link.with_resolver(move || {
            let version = book.version();
            if version == seen {
                return None;
            }
            seen = version;
            book.primary(partition)
        });
        self
    }

    /// The partition this session feeds.
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// Runs `op` under the session's retry budget (reconnect-and-RESUME
    /// between connection failures, throttles spending budget too so a
    /// wedged shard still converges to the typed degraded error), with
    /// per-shard RTT/health telemetry.
    fn with_retries<T>(
        &mut self,
        ctx: Option<TraceContext>,
        mut op: impl FnMut(&mut ServerClient) -> Result<T, Attempt>,
    ) -> Result<T, ShardError> {
        let metrics = self.metrics.as_ref();
        let outcome = self.link.run(|client| {
            // Stamped on the wire verbatim so the shard's spans join
            // the end client's trace.
            client.set_forward_trace(ctx);
            let t0 = Instant::now();
            let v = op(client)?;
            if let Some(m) = metrics {
                m.fanout_rtt.record(t0.elapsed().as_nanos() as u64);
            }
            Ok(v)
        });
        let (attempts, up) = match &outcome {
            Ok((_, attempts)) => (*attempts, true),
            Err((attempts, _)) => (*attempts, false),
        };
        if let Some(m) = metrics {
            m.retries.add(u64::from(attempts - 1));
            m.healthy.set(up as i64);
            if !up {
                m.failures.inc();
            }
        }
        outcome
            .map(|(v, _)| v)
            .map_err(|(attempts, last)| ShardError {
                partition: self.partition,
                addr: self.link.addr().to_string(),
                attempts,
                last,
            })
    }

    /// Forwards one sub-batch exactly once, surviving shard crashes and
    /// restarts in the middle (see the module docs for the seq-capture
    /// argument). `ctx` is stamped on the wire verbatim so the shard's
    /// spans join the end client's trace.
    pub fn send_batch(
        &mut self,
        stream: StreamId,
        updates: &[Update],
        ctx: Option<TraceContext>,
    ) -> Result<(), ShardError> {
        // The shard-side seq this batch will go out under, captured on
        // the first attempt that reaches a connected client.
        let mut base: Option<u64> = None;
        self.with_retries(ctx, |client| {
            if client.client_id() != 0 {
                let cur = client.next_seq(stream);
                match base {
                    None => base = Some(cur),
                    // RESUME fast-forwarded past the captured number:
                    // the shard applied (and WAL-persisted) the batch
                    // before the crash. Done — do not re-apply.
                    Some(b) if cur > b => return Ok(()),
                    // The shard came back *behind* the captured number
                    // (recovered from an older state); re-capture and
                    // resend under the shard's actual next seq.
                    Some(b) if cur < b => base = Some(cur),
                    Some(_) => {}
                }
            }
            delivered(client.send_batch(stream, updates))
        })
    }

    /// Forwards one sub-batch *as the upstream producer*: the batch
    /// goes out under the upstream's `(client_id, seq)` verbatim, so
    /// the shard's own idempotency table absorbs duplicates end to end
    /// — across upstream retries, handler threads, and router restarts
    /// alike. Used for sequenced upstream traffic; unsequenced traffic
    /// goes through [`ShardSession::send_batch`] under the session's
    /// handler-unique identity instead.
    pub fn send_batch_as(
        &mut self,
        stream: StreamId,
        client_id: u64,
        seq: u64,
        updates: &[Update],
        ctx: Option<TraceContext>,
    ) -> Result<(), ShardError> {
        self.with_retries(ctx, |client| {
            delivered(client.send_batch_as(stream, client_id, seq, updates))
        })
    }

    /// Reads the upstream producer `client_id`'s applied high-water
    /// marks on this shard (for the router's fanned-out RESUME answer).
    pub fn resume_of(
        &mut self,
        client_id: u64,
        ctx: Option<TraceContext>,
    ) -> Result<(u64, u64), ShardError> {
        self.with_retries(ctx, |client| {
            client.resume_of(client_id).map_err(Attempt::Failed)
        })
    }

    /// Fetches the shard's encoded sketch state for `streams`
    /// (idempotent, so retries are plain re-asks).
    pub fn query(
        &mut self,
        streams: u8,
        ctx: Option<TraceContext>,
    ) -> Result<(Vec<u8>, Vec<u8>), ShardError> {
        self.with_retries(ctx, |client| {
            client.shard_query(streams).map_err(Attempt::Failed)
        })
    }
}
