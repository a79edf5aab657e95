//! `Redial` — the one client session core: dial lazily, HELLO, RESUME
//! when the session is sequenced, run the operation, and on any
//! connection-level failure drop the socket so the next attempt
//! re-dials.
//!
//! [`ServerClient`] is the one-socket primitive; everything that must
//! outlive a socket sits on this: [`ResilientClient`] (adds chunk→seq
//! replay), the cluster's shard sessions (add the failover address
//! book, a throttle budget and per-shard metrics), a follower's
//! replication poll loop and the router supervisor's heartbeat probe.
//! [`Redial::attempt`] is one try; [`Redial::run`] is the only
//! reconnect-with-backoff loop, with **one** budget of consecutive
//! failed attempts — a failed dial and a failed operation spend from
//! the same pot.
//!
//! [`ResilientClient`]: crate::ResilientClient

use crate::client::{Backoff, ClientConfig, ClientError, ServerClient};
use std::time::Duration;

/// Why one attempt did not complete.
#[derive(Debug)]
pub enum Attempt {
    /// The peer is alive but backpressuring: keep the connection, pay
    /// backoff, try again.
    Throttled,
    /// Connection-level failure: the session is suspect, re-dial.
    Failed(ClientError),
}

/// Re-resolves the address to dial; `None` keeps the current one.
type Resolver = Box<dyn FnMut() -> Option<String> + Send>;

/// A lazily-dialled, self-healing session to one (re-resolvable) peer.
pub struct Redial {
    addr: String,
    config: ClientConfig,
    /// Consecutive failed attempts [`Redial::run`] tolerates: it gives
    /// up on failure number `budget + 1`.
    budget: u32,
    backoff: Backoff,
    client: Option<ServerClient>,
    resolve: Option<Resolver>,
}

impl std::fmt::Debug for Redial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Redial")
            .field("addr", &self.addr)
            .field("connected", &self.client.is_some())
            .finish_non_exhaustive()
    }
}

impl Redial {
    /// A (not yet connected) session to `addr`; the first attempt dials.
    pub fn new(addr: String, config: ClientConfig, budget: u32) -> Self {
        Redial {
            addr,
            backoff: Backoff::new(&config.backoff),
            config,
            budget,
            client: None,
            resolve: None,
        }
    }

    /// Consults `resolve` before every attempt: when it names a
    /// different address the connection is dropped and the next dial
    /// goes there (a failover moved the peer).
    pub fn with_resolver(
        mut self,
        resolve: impl FnMut() -> Option<String> + Send + 'static,
    ) -> Self {
        self.resolve = Some(Box::new(resolve));
        self
    }

    /// The address the next dial goes to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Drops the connection so the next attempt re-dials (and RESUMEs).
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    /// Replaces the budget of consecutive failed attempts.
    pub fn with_budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self
    }

    /// The open session, if any.
    pub fn open(&mut self) -> Option<&mut ServerClient> {
        self.client.as_mut()
    }

    /// Takes the open session, if any (for a clean GOODBYE).
    pub fn take(&mut self) -> Option<ServerClient> {
        self.client.take()
    }

    /// The next pause of the capped-jitter backoff ladder, for callers
    /// that pace their own [`Redial::attempt`]s; a successful attempt
    /// resets the ladder.
    pub fn backoff_delay(&mut self) -> Duration {
        self.backoff.delay()
    }

    /// The open session, dialling first if there is none. A fresh
    /// sequenced session RESUMEs inside the same attempt: one that
    /// cannot learn its replay point is useless.
    fn session(&mut self) -> Result<&mut ServerClient, ClientError> {
        if let Some(addr) = self.resolve.as_mut().and_then(|resolve| resolve()) {
            if addr != self.addr {
                self.addr = addr;
                self.client = None;
            }
        }
        let client = match self.client.take() {
            Some(open) => open,
            None => {
                let mut fresh = ServerClient::connect_with(&*self.addr, self.config.clone())?;
                if fresh.client_id() != 0 {
                    fresh.resume()?;
                }
                fresh
            }
        };
        Ok(self.client.insert(client))
    }

    /// One try: (re-resolve, dial, RESUME,) run `op`. A
    /// [`Attempt::Failed`] outcome drops the connection.
    pub fn attempt<T>(
        &mut self,
        op: impl FnOnce(&mut ServerClient) -> Result<T, Attempt>,
    ) -> Result<T, Attempt> {
        let outcome = match self.session() {
            Ok(client) => op(client),
            Err(e) => Err(Attempt::Failed(e)),
        };
        match &outcome {
            Ok(_) => self.backoff.reset(),
            Err(Attempt::Throttled) => {}
            Err(Attempt::Failed(_)) => self.client = None,
        }
        outcome
    }

    /// Runs `op` until it succeeds, sleeping the backoff ladder between
    /// attempts. Gives up with `(attempts, last failure)` once more than
    /// `budget` consecutive attempts have failed; on success reports
    /// how many attempts it took.
    pub fn run<T>(
        &mut self,
        mut op: impl FnMut(&mut ServerClient) -> Result<T, Attempt>,
    ) -> Result<(T, u32), (u32, ClientError)> {
        self.backoff.reset();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let last = match self.attempt(&mut op) {
                Ok(v) => return Ok((v, attempts)),
                Err(Attempt::Throttled) => ClientError::Timeout,
                Err(Attempt::Failed(e)) => e,
            };
            if attempts > self.budget {
                return Err((attempts, last));
            }
            // ss-analyze: allow(a4-blocking-hot-path) -- deliberate retry backoff against a failed/throttling peer; the calling thread owns no other work mid-operation
            std::thread::sleep(self.backoff.delay());
        }
    }
}
