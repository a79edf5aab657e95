//! # ss-cluster
//!
//! Sharded multi-node deployment of the skimmed-sketch pipeline: a
//! [`Router`] partitions the key domain `[0, N)` across a set of shard
//! servers (plain [`stream_server::Server`]s run with
//! [`stream_server::ServerConfig::shard`] set), fans UPDATE_BATCH
//! traffic to the owning shards, and answers join / self-join / snapshot
//! queries by fetching each shard's **unskimmed** sketch state and
//! merging it via sketch linearity — so routed answers are
//! **bit-identical** to a single node fed the same stream.
//!
//! The pieces:
//!
//! * [`ClusterManifest`] / [`Partitioner`] — the versioned cluster
//!   identity `(seed, shard set)` and the `2^61 − 1` pairwise-hash
//!   domain split it pins; served over the wire as SHARD_MAP.
//! * [`Router`] / [`RouterConfig`] — the client-facing front. Speaks the
//!   same protocol as a single server (v2 clients work unchanged) plus
//!   the v3 cluster vocabulary.
//! * [`ShardSession`] / [`ShardError`] — one handler's connection to one
//!   shard: the shared `stream_server::Redial` core (capped-jitter
//!   retries, reconnect-and-RESUME) plus exactly-once forwarding, the
//!   failover address book and per-shard health/latency telemetry. [`ShardError`] is
//!   the typed ingredient of the degraded-mode SHARD_UNAVAILABLE reply.
//! * [`FailureDetector`] / [`AddressBook`] — the failover machinery:
//!   when [`RouterConfig::followers`] names per-shard replicas, a
//!   supervisor thread heartbeats every primary, and after a run of
//!   missed probes PROMOTEs the follower under the next fencing epoch,
//!   repointing the shared address book (handler sessions re-dial and
//!   RESUME) and bumping the manifest version. Replicated WAL state is
//!   byte-identical, so answers stay bit-identical across a failover.
//!
//! See `DESIGN.md` §11 for the full architecture and failure-semantics
//! discussion (§12 for the replication/failover contract), and the
//! crate's integration tests for the bit-identity and kill/restart
//! convergence proofs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod failover;
mod manifest;
mod router;
mod session;
mod telem;

pub use failover::{AddressBook, Clock, DetectorConfig, FailureDetector, SystemClock};
pub use manifest::{ClusterManifest, Partitioner};
pub use router::{Router, RouterConfig, RouterError};
pub use session::{ShardError, ShardSession};
