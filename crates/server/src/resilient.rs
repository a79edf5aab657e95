//! `ResilientClient` — a producer that survives disconnects, server
//! restarts, and in-flight corruption without ever double-counting a
//! batch.
//!
//! The plain [`ServerClient`] is one TCP session: any socket failure
//! ends it. `ResilientClient` wraps session management around it:
//!
//! 1. every batch is **sequenced** (a nonzero `client_id` is required),
//!    so the server's idempotency table knows exactly which batches are
//!    applied;
//! 2. on any session failure it reconnects under capped exponential
//!    backoff with deterministic jitter (the shared [`Redial`] core,
//!    one budget of consecutive failures per operation);
//! 3. after each reconnect it sends RESUME, learns the last applied
//!    sequence number per stream, and **replays from the first
//!    unacknowledged batch** — a batch whose BATCH_ACK was lost in the
//!    failure is skipped, not re-sent, because the server already
//!    applied it.
//!
//! The result is exactly-once ingestion over an at-least-once
//! transport, which is what the chaos suite leans on: a seeded fault
//! plan may kill the connection mid-ACK, and the totals still match.

use crate::client::{Backoff, BatchOutcome, ClientConfig, ClientError, JoinAnswer, SendReport};
use crate::redial::{Attempt, Redial};
use crate::ServerClient;
use std::net::SocketAddr;
use stream_model::update::Update;
use stream_wire::StreamId;

/// A reconnecting, resuming, exactly-once wrapper over [`ServerClient`].
#[derive(Debug)]
pub struct ResilientClient {
    /// The session core; its budget is the consecutive failed attempts
    /// (dials and operations alike) one operation may spend before it
    /// gives up with [`ClientError::Exhausted`].
    link: Redial,
    /// Pacing of THROTTLE retries (which never spend reconnect budget).
    throttle: Backoff,
}

/// What one round trip of [`ResilientClient::send_all`] achieved.
enum Step {
    /// RESUME moved the server's frontier to this chunk index.
    Frontier(usize),
    /// The current chunk was acknowledged for this many updates.
    Accepted(u64),
    /// The current chunk bounced off a full ingest queue.
    Throttled,
}

fn exhausted((attempts, last): (u32, ClientError)) -> ClientError {
    ClientError::Exhausted {
        attempts,
        last: Box::new(last),
    }
}

impl ResilientClient {
    /// Creates a (not yet connected) resilient producer; the first
    /// operation dials.
    ///
    /// # Panics
    /// If `config.client_id == 0`: resumable replay is meaningless
    /// without a stable producer identity.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        assert!(
            config.client_id != 0,
            "ResilientClient needs a nonzero client_id for idempotent replay"
        );
        ResilientClient {
            throttle: Backoff::new(&config.backoff),
            link: Redial::new(addr.to_string(), config, 10),
        }
    }

    /// Overrides the reconnect budget (default 10): an operation gives
    /// up after `attempts + 1` consecutive failed attempts.
    pub fn with_max_reconnects(mut self, attempts: u32) -> Self {
        self.link = self.link.with_budget(attempts);
        self
    }

    /// The session currently in use, dialing (with backoff + RESUME) if
    /// none is open. Mostly useful for one-off requests the wrapper has
    /// no verb for.
    pub fn session(&mut self) -> Result<&mut ServerClient, ClientError> {
        self.link.run(|_| Ok(())).map_err(exhausted)?;
        self.link.open().ok_or(ClientError::Timeout)
    }

    /// Streams `updates` in `chunk`-sized batches with exactly-once
    /// semantics across any number of disconnects: each batch gets a
    /// fixed sequence number up front, and after every reconnect the
    /// RESUME reply tells this method which batches the server already
    /// applied — those are counted as acknowledged and skipped.
    pub fn send_all(
        &mut self,
        stream: StreamId,
        updates: &[Update],
        chunk: usize,
    ) -> Result<SendReport, ClientError> {
        assert!(chunk > 0, "chunk size must be nonzero");
        let chunks: Vec<&[Update]> = updates.chunks(chunk).collect();
        let mut report = SendReport::default();
        // Chunk i is forever (base_seq + i); the mapping survives
        // reconnects because sequence numbers only advance on ACK.
        let base_seq = self.session()?.next_seq(stream);
        let mut idx = 0usize;
        self.throttle.reset();
        while let Some(current) = chunks.get(idx) {
            // One round trip under the reconnect budget. A failed send
            // leaves the session dropped; the RESUME of the re-dial
            // decides whether the chunk was actually applied.
            let (step, _) = self
                .link
                .run(|session| {
                    let applied = session.next_seq(stream).saturating_sub(base_seq) as usize;
                    if applied != idx {
                        return Ok(Step::Frontier(applied.min(chunks.len())));
                    }
                    match session.send_batch(stream, current) {
                        Ok(BatchOutcome::Accepted(n)) => Ok(Step::Accepted(n)),
                        Ok(BatchOutcome::Throttled { .. }) => Ok(Step::Throttled),
                        Err(e) => Err(Attempt::Failed(e)),
                    }
                })
                .map_err(exhausted)?;
            match step {
                // The frontier jumped past chunks whose ACK we never
                // saw: the server applied them, so they are done —
                // never re-sent.
                Step::Frontier(applied) if applied > idx => {
                    for done in chunks.iter().take(applied).skip(idx) {
                        report.batches += 1;
                        report.updates += done.len() as u64;
                    }
                    idx = applied;
                }
                // The frontier regressed: a failover promoted a
                // follower that was replicating asynchronously (its
                // primary's gate had waived — the follower-loss double
                // fault), so chunks we saw acked are missing over
                // there. We still hold them — rewind and re-send; any
                // shard that did apply them dedups the replay.
                Step::Frontier(applied) => {
                    for lost in chunks.iter().take(idx).skip(applied) {
                        report.batches = report.batches.saturating_sub(1);
                        report.updates = report.updates.saturating_sub(lost.len() as u64);
                    }
                    idx = applied;
                }
                Step::Accepted(n) => {
                    report.batches += 1;
                    report.updates += n;
                    idx += 1;
                    self.throttle.reset();
                }
                Step::Throttled => {
                    report.throttled += 1;
                    std::thread::sleep(self.throttle.delay());
                }
            }
        }
        Ok(report)
    }

    /// `COUNT(F ⋈ G)`, retried across reconnects (queries are
    /// idempotent, so a blind retry is safe).
    pub fn query_join(&mut self) -> Result<JoinAnswer, ClientError> {
        self.retry_query(|session| session.query_join())
    }

    /// Self-join estimate of one stream, retried across reconnects.
    pub fn query_self_join(&mut self, stream: StreamId) -> Result<f64, ClientError> {
        self.retry_query(move |session| session.query_self_join(stream))
    }

    fn retry_query<T>(
        &mut self,
        mut op: impl FnMut(&mut ServerClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.link
            .run(|session| op(session).map_err(Attempt::Failed))
            .map(|(v, _)| v)
            .map_err(exhausted)
    }

    /// Clean close of the current session, if one is open.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.link.take() {
            Some(session) => session.goodbye(),
            None => Ok(()),
        }
    }
}
