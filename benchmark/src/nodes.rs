//! Set-up and tear-down of the nodes a workload drives.
//!
//! Everything is bound *as shipped*: `ServerConfig::new`,
//! `ClientConfig::default`, `WalConfig::new`. A workload sets topology
//! fields only — `wal`, `follower_of`, `shard`, a producer's `client_id`.
//!
//! A **set-up** is what `setup_s` times. For the WAL-less node it is:
//! generate inputs → bind → preload [`PRELOAD_PASSES`] passes over the wire
//! → barrier → [`WARMUP_QUERIES`] warm-up `query_join`. For the replicated
//! pair it is the restart operators pay: bind the primary over a prepared
//! log of [`LOG_PASSES`] sequenced passes (recovery replay), bind an empty
//! follower, wait until its lag is 0 and both nodes' `l1_mass` agree
//! (bootstrap), connect the producer and the reader.

use crate::inputs::{self, Inputs, Ledger, BATCH, STREAM_BATCHES};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stream_durability::{Wal, WalConfig};
use stream_server::{ClientConfig, Server, ServerClient, ServerConfig};
use stream_wire::StreamId;

/// Passes preloaded over the wire by a WAL-less set-up.
pub const PRELOAD_PASSES: u64 = 16;
/// Warm-up queries closing a WAL-less set-up.
pub const WARMUP_QUERIES: usize = 32;
/// Sequenced passes in the prepared log a replicated set-up recovers.
pub const LOG_PASSES: u64 = 4;
/// Producer identity the prepared log was written under.
pub const LOG_CLIENT_ID: u64 = 0x10C;
/// Producer identity of the window's sequenced producer.
pub const PRODUCER_CLIENT_ID: u64 = 0xBE7C;

/// A failed operation or gate; ends the workload, never the clean-up.
pub type Fail = String;

/// Renders any error as a [`Fail`] naming what was being done.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> Fail {
    move |e| format!("{what}: {e}")
}

/// Operations attempted and failed, gate checks included.
#[derive(Debug, Default)]
pub struct Gates {
    /// Requests issued plus gates checked.
    pub attempted: u64,
    /// Requests that errored plus gates that did not hold.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Gates {
    /// Counts one gate; `what` is rendered only when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// The benchmark's output directory: `out/` next to the package's own
/// manifest, in the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop — on success and
/// on a failed gate alike.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `out/<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — a unique-name counter; it publishes no data.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// One stream's pass, sent as the shipped client sends it.
pub fn send_stream(
    client: &mut ServerClient,
    inputs: &Inputs,
    stream: StreamId,
) -> Result<stream_server::SendReport, Fail> {
    client
        .send_all(stream, inputs.stream(stream), BATCH)
        .map_err(fail("send_all"))
}

/// The ingest barrier: a snapshot queues behind every dispatched chunk, so
/// when both return everything acknowledged has been absorbed.
pub fn barrier(server: &Server) -> Result<(), Fail> {
    for stream in StreamId::ALL {
        server.snapshot(stream).map_err(fail("barrier snapshot"))?;
    }
    Ok(())
}

/// A WAL-less node with one connection, preloaded and warm.
pub struct PlainEnv {
    /// The generated streams.
    pub inputs: Inputs,
    /// The node.
    pub server: Server,
    /// The one connection.
    pub client: ServerClient,
    /// What the node has acknowledged so far.
    pub ledger: Ledger,
}

impl PlainEnv {
    /// One timed set-up, generating into `buffers` (the previous
    /// repetition's inputs, or empty); returns the environment and its
    /// duration.
    pub fn set_up(seed: u64, buffers: Inputs) -> Result<(Self, Duration), Fail> {
        let t = Instant::now();
        let inputs = buffers.regenerate(seed);
        let server = Server::bind("127.0.0.1:0", ServerConfig::new(inputs::schema()))
            .map_err(fail("bind"))?;
        let mut client = ServerClient::connect(server.local_addr()).map_err(fail("connect"))?;
        for _ in 0..PRELOAD_PASSES {
            for stream in StreamId::ALL {
                send_stream(&mut client, &inputs, stream)?;
            }
        }
        barrier(&server)?;
        for _ in 0..WARMUP_QUERIES {
            client.query_join().map_err(fail("warm-up query"))?;
        }
        let env = PlainEnv {
            inputs,
            server,
            client,
            ledger: Ledger::after_passes(PRELOAD_PASSES),
        };
        Ok((env, t.elapsed()))
    }

    /// Full tear-down: GOODBYE, then a draining shutdown. Hands the input
    /// buffers back for the next set-up to refill.
    pub fn tear_down(self) -> Result<Inputs, Fail> {
        self.client.goodbye().map_err(fail("goodbye"))?;
        self.server.shutdown().map_err(fail("shutdown"))?;
        Ok(self.inputs)
    }
}

/// Writes the prepared log: [`LOG_PASSES`] sequenced passes appended
/// through `Wal::append_encoded` as the records a primary writes for
/// producer [`LOG_CLIENT_ID`], then dropped unsnapshotted — what a crash
/// leaves behind. Returns the log's size in bytes.
pub fn prepare_log(dir: &Path, inputs: &Inputs) -> Result<u64, Fail> {
    let (mut wal, _) = Wal::open(WalConfig::new(dir)).map_err(fail("open prepared log"))?;
    let mut bytes = 0u64;
    for pass in 0..LOG_PASSES {
        for stream in StreamId::ALL {
            for (i, batch) in inputs.stream(stream).chunks(BATCH).enumerate() {
                let seq = pass * STREAM_BATCHES + i as u64 + 1;
                let record = stream_wire::encode_update_batch(stream, LOG_CLIENT_ID, seq, batch);
                wal.append_encoded(&record)
                    .map_err(fail("append prepared log"))?;
                bytes += record.len() as u64;
            }
        }
    }
    wal.sync().map_err(fail("sync prepared log"))?;
    Ok(bytes)
}

/// A WAL-backed primary with an attached follower, a sequenced producer
/// connected to the primary and a reader connected to the follower.
pub struct ReplEnv {
    /// The primary (writes, WAL, ack gate).
    pub primary: Server,
    /// The follower (replicates, answers the reader).
    pub follower: Server,
    /// Sequenced strict producer → primary.
    pub producer: ServerClient,
    /// Reader → follower.
    pub reader: ServerClient,
    /// The primary's WAL directory (re-bound after the window).
    pub primary_dir: PathBuf,
    /// The follower's WAL directory.
    pub follower_dir: PathBuf,
    /// What the primary has acknowledged so far.
    pub ledger: Ledger,
    /// Time to bind the primary over the prepared log.
    pub recovery: Duration,
    /// Time from binding the empty follower until it mirrors the primary.
    pub bootstrap: Duration,
}

/// `ServerConfig::new` plus a WAL at `dir`.
pub fn wal_config(dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(inputs::schema());
    config.wal = Some(WalConfig::new(dir));
    config
}

/// Polls `done` once a millisecond until it holds or `patience` runs out.
/// The only harness sleep: it waits on the product's own replication
/// poll, in set-up and after the window, never inside a timed sample.
pub fn wait_until(patience: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + patience;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Whether `follower` has applied everything `primary` holds.
pub fn mirrored(primary: &Server, follower: &Server) -> bool {
    follower.replication_lag_bytes() == Some(0)
        && StreamId::ALL
            .into_iter()
            .all(|s| match (primary.snapshot(s), follower.snapshot(s)) {
                (Ok(p), Ok(f)) => p.l1_mass() == f.l1_mass(),
                _ => false,
            })
}

impl ReplEnv {
    /// One timed set-up over a private copy of `template` (the copy is
    /// made before the clock starts: it is the harness's, not the
    /// operator's).
    pub fn set_up(template: &Path, scratch: &Path, rep: usize) -> Result<(Self, Duration), Fail> {
        let primary_dir = scratch.join(format!("primary-{rep}"));
        let follower_dir = scratch.join(format!("follower-{rep}"));
        copy_dir(template, &primary_dir).map_err(fail("copy prepared log"))?;

        let t = Instant::now();
        let primary =
            Server::bind("127.0.0.1:0", wal_config(&primary_dir)).map_err(fail("bind primary"))?;
        let recovery = t.elapsed();
        let t_boot = Instant::now();
        let mut follower_config = wal_config(&follower_dir);
        follower_config.follower_of = Some(primary.local_addr().to_string());
        let follower =
            Server::bind("127.0.0.1:0", follower_config).map_err(fail("bind follower"))?;
        if !wait_until(Duration::from_secs(60), || mirrored(&primary, &follower)) {
            return Err("follower never caught up with the recovered primary".into());
        }
        let bootstrap = t_boot.elapsed();
        let producer = ServerClient::connect_with(
            primary.local_addr(),
            ClientConfig {
                client_id: PRODUCER_CLIENT_ID,
                ..ClientConfig::default()
            },
        )
        .map_err(fail("connect producer"))?;
        let reader =
            ServerClient::connect(follower.local_addr()).map_err(fail("connect reader"))?;
        let elapsed = t.elapsed();
        let env = ReplEnv {
            primary,
            follower,
            producer,
            reader,
            primary_dir,
            follower_dir,
            ledger: Ledger::after_passes(LOG_PASSES),
            recovery,
            bootstrap,
        };
        Ok((env, elapsed))
    }

    /// Full tear-down between set-up repetitions, private log copies
    /// included.
    pub fn tear_down(self) -> Result<(), Fail> {
        self.producer.goodbye().map_err(fail("producer goodbye"))?;
        self.reader.goodbye().map_err(fail("reader goodbye"))?;
        self.follower
            .shutdown()
            .map_err(fail("follower shutdown"))?;
        self.primary.shutdown().map_err(fail("primary shutdown"))?;
        for dir in [&self.primary_dir, &self.follower_dir] {
            std::fs::remove_dir_all(dir).map_err(fail("remove log copy"))?;
        }
        Ok(())
    }
}
