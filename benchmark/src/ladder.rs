//! The in-process ladder: each layer's public call timed from outside, on
//! the workloads' own inputs.
//!
//! Every rung repeats one fixed unit of work for at least [`RUNG_SECS`] and
//! reports the Q25 of its samples (rule 1). Write-side rungs are ns per
//! update and nest: `hashing` ⊂ `sketches.add_batch` ⊂ `core.add_batch` ⊂
//! `ingest.dispatch`. Read-side rungs are µs per call and add up:
//! `core.estimate_join` ≈ 2·`core.skim` + `core.subjoin`.

use crate::inputs::{self, Exact, Inputs, Ledger, BATCH, STREAM_BATCHES, STREAM_LEN};
use crate::nodes::{fail, Fail, Scratch, LOG_CLIENT_ID, LOG_PASSES, PRELOAD_PASSES};
use crate::report::Report;
use crate::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use skimmed_sketch::{
    decode_skimmed, encode_skimmed, est_subjoin, estimate_join, EstimatorConfig, SkimmedSchema,
    SkimmedSketch,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use stream_durability::{DedupEntry, SnapshotBlob, Wal, WalConfig};
use stream_hash::prime::{mul_mod, reduce};
use stream_hash::{lanes, PairwiseHash, SeedSequence, SignFamily};
use stream_ingest::IngestPool;
use stream_model::gen::ZipfGenerator;
use stream_model::{ratio_error, Domain, FrequencyVector, Update};
use stream_server::ServerConfig;
use stream_sketches::{HashSketch, LinearSynopsis};
use stream_wire::{Frame, StreamId};

/// Seconds of samples behind every in-process rung.
pub const RUNG_SECS: f64 = 0.5;
/// Instances in the `core.ratio_error` panel.
const PANEL: u64 = 64;
/// Updates per stream per panel instance and in the dyadic arm's prefix.
const PREFIX: usize = 1 << 17;

/// Runs `f`, returning its result and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Repeats `unit` for `secs` (three times at least); `unit` returns the
/// nanoseconds of the part of it that counts, so it may set up untimed.
pub fn try_sample(
    secs: f64,
    mut unit: impl FnMut() -> Result<u64, Fail>,
) -> Result<Vec<u64>, Fail> {
    let mut ns = Vec::new();
    let started = Instant::now();
    while ns.len() < 3 || started.elapsed().as_secs_f64() < secs {
        ns.push(unit()?);
    }
    Ok(ns)
}

/// [`try_sample`] of an infallible `unit`, timed whole.
pub fn sample_for(secs: f64, mut unit: impl FnMut()) -> Vec<u64> {
    try_sample(secs, || Ok(timed(&mut unit).1)).unwrap_or_default()
}

fn q25_per(ns: &[u64], units: usize) -> f64 {
    stats::q25(ns) as f64 / units as f64
}

fn q25_us(ns: &[u64]) -> f64 {
    stats::q25(ns) as f64 / 1e3
}

/// The snapshot a primary installs for the state `[f, g]`.
fn snapshot_blob(state: &[SkimmedSketch; 2]) -> SnapshotBlob {
    SnapshotBlob {
        blobs: [
            encode_skimmed(&state[0]).to_vec(),
            encode_skimmed(&state[1]).to_vec(),
        ],
        dedup: vec![DedupEntry {
            client_id: LOG_CLIENT_ID,
            last_seq: [1, 1],
        }],
    }
}

/// A pool of the shape `Server::bind` builds: shipped worker and queue
/// counts.
pub fn shipped_pool<S>(make: impl FnMut() -> S) -> IngestPool<S>
where
    S: LinearSynopsis + Clone + Send + 'static,
{
    let shipped = ServerConfig::new(inputs::schema());
    IngestPool::with_queue_depth(shipped.ingest_workers, shipped.queue_depth, make)
}

/// A shipped-shape pool of skimmed sketches whose worker 0 starts from
/// `seed`, as a recovered server's does.
pub fn seeded_pool(seed: Option<SkimmedSketch>) -> IngestPool<SkimmedSketch> {
    let mut seed = seed;
    shipped_pool(move || {
        seed.take()
            .unwrap_or_else(|| SkimmedSketch::new(inputs::schema()))
    })
}

fn owned_batches(updates: &[Update]) -> Vec<Vec<Update>> {
    updates.chunks(BATCH).map(<[Update]>::to_vec).collect()
}

/// The stream rung and the write side: generator → hash family → blocked
/// kernel → skimmed sketch → ingest pool.
fn write_side(r: &mut Report, inputs: &Inputs, secs: f64) -> Result<(), Fail> {
    let schema = inputs::schema();
    let f = inputs.stream(StreamId::F);

    let gen = ZipfGenerator::new(inputs::domain(), 1.0, 0);
    let mut rng = StdRng::seed_from_u64(1);
    let ns = sample_for(secs, || {
        for _ in 0..BATCH {
            black_box(gen.sample(&mut rng));
        }
    });
    r.push_named(
        "stream.generate_melem_s",
        BATCH as f64 * 1e3 / stats::q25(&ns) as f64,
        ns.len(),
    );

    // The hash evaluation the shipped `add_batch` performs for one batch:
    // seven tables' buckets and signs over 8192 keys, through whichever
    // kernel `lanes::VECTOR_KERNEL` selects on this build.
    let root = SeedSequence::new(42).fork(0x48534B);
    let tables = schema.base().tables();
    let hashes: Vec<(PairwiseHash, SignFamily)> = (0..tables as u64)
        .map(|i| {
            (
                PairwiseHash::from_seed(root.fork(2 * i), schema.base().buckets()),
                SignFamily::from_seed(root.fork(2 * i + 1)),
            )
        })
        .collect();
    let keys: Vec<u64> = f[..BATCH].iter().map(|u| u.value).collect();
    let weights = vec![1i64; BATCH];
    let (mut buckets, mut signs) = (vec![0usize; BATCH], vec![0i64; BATCH]);
    let ns = if lanes::VECTOR_KERNEL {
        let mut limbs = vec![vec![0u64; BATCH]; 6];
        sample_for(secs, || {
            for (j, &k) in keys.iter().enumerate() {
                for (lane, limb) in limbs.iter_mut().zip(lanes::power_limbs(reduce(k))) {
                    lane[j] = limb;
                }
            }
            for (h, s) in &hashes {
                h.bucket_block(&limbs[0], &limbs[1], &mut buckets);
                s.signed_weight_block(
                    &limbs[0], &limbs[1], &limbs[2], &limbs[3], &limbs[4], &limbs[5], &weights,
                    &mut signs,
                );
                black_box((&buckets, &signs));
            }
        })
    } else {
        let (mut x, mut x2, mut x3) = (vec![0u64; BATCH], vec![0u64; BATCH], vec![0u64; BATCH]);
        sample_for(secs, || {
            for (j, &k) in keys.iter().enumerate() {
                x[j] = reduce(k);
                x2[j] = mul_mod(x[j], x[j]);
                x3[j] = mul_mod(x2[j], x[j]);
            }
            for (h, s) in &hashes {
                h.bucket_batch(&x, &mut buckets);
                s.sign_batch_with_powers(&x, &x2, &x3, &mut signs);
                black_box((&buckets, &signs));
            }
        })
    };
    r.push_named(
        "hashing.bucket_sign_ns_per_update",
        q25_per(&ns, BATCH),
        ns.len(),
    );

    let mut hash_sketch = HashSketch::new(schema.base().clone());
    let mut next = (0..STREAM_BATCHES as usize).cycle();
    let ns = sample_for(secs, || {
        let i = next.next().unwrap_or(0);
        hash_sketch.add_batch(&f[i * BATCH..(i + 1) * BATCH]);
    });
    r.push_named(
        "sketches.add_batch_ns_per_update",
        q25_per(&ns, BATCH),
        ns.len(),
    );

    let mut sketch = SkimmedSketch::new(schema.clone());
    let ns = sample_for(secs, || {
        let i = next.next().unwrap_or(0);
        sketch.add_batch(&f[i * BATCH..(i + 1) * BATCH]);
    });
    let core_add = q25_per(&ns, BATCH);
    r.push_named("core.add_batch_ns_per_update", core_add, ns.len());

    // One stream's pass through a shipped pool: first dispatch → finish.
    // The batches are cloned before the clock starts, as the server's
    // decoder hands the pool owned vectors.
    let ns = try_sample(secs, || {
        let batches = owned_batches(f);
        let pool = seeded_pool(None);
        let (finished, ns) = timed(|| {
            for batch in batches {
                pool.dispatch(batch);
            }
            pool.finish()
        });
        finished.map_err(fail("ingest pool finish"))?;
        Ok(ns)
    })?;
    let dispatch = q25_per(&ns, STREAM_LEN);
    r.push_named("ingest.dispatch_ns_per_update", dispatch, ns.len());
    // What the pool adds over a perfect split of the kernel across the
    // workers that can actually run at once. (Against the one-thread
    // kernel figure the difference is negative on a two-core host: two
    // workers more than pay for the hand-off.)
    let shipped = ServerConfig::new(schema.clone());
    let parallel =
        std::thread::available_parallelism().map_or(1, |p| p.get().min(shipped.ingest_workers));
    r.push_named(
        "ingest.pool_added_ns_per_update",
        dispatch - core_add / parallel as f64,
        ns.len(),
    );

    let pool = seeded_pool(None);
    let snapshot_ns = |pool: &IngestPool<SkimmedSketch>| -> Result<u64, Fail> {
        let (snap, ns) = timed(|| pool.snapshot());
        snap.map_err(fail("ingest pool snapshot"))?;
        Ok(ns)
    };
    let ns = try_sample(secs, || snapshot_ns(&pool))?;
    r.push_named("ingest.snapshot_idle_us", q25_us(&ns), ns.len());
    let ns = try_sample(secs, || {
        for batch in owned_batches(&f[..2 * shipped.queue_depth * BATCH]) {
            pool.dispatch(batch);
        }
        snapshot_ns(&pool)
    })?;
    r.push_named("ingest.snapshot_busy_us", q25_us(&ns), ns.len());

    // An unthrottled dispatcher offering a pass batch by batch: how often
    // is the first offer refused?
    let (mut offered, mut refused) = (0u64, 0u64);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs {
        for batch in owned_batches(f) {
            offered += 1;
            let mut offer = batch;
            let mut first = true;
            while let Err(back) = pool.try_dispatch(offer) {
                refused += u64::from(first);
                first = false;
                offer = back;
                std::thread::yield_now();
            }
        }
    }
    r.push_named(
        "ingest.refused_share",
        refused as f64 / offered as f64,
        offered as usize,
    );
    pool.finish().map_err(fail("ingest pool finish"))?;
    Ok(())
}

/// The read side on the set-up state: hashes → point estimates
/// → SKIMDENSE → sub-joins → ESTSKIMJOINSIZE, then the codec.
fn read_side(r: &mut Report, state: &[SkimmedSketch; 2], secs: f64) -> Result<(), Fail> {
    let schema = inputs::schema();
    let config = EstimatorConfig::default();
    let (f, g) = (&state[0], &state[1]);
    let n = inputs::domain().size();
    let tables = schema.base().tables();

    let ns = sample_for(secs, || {
        for i in 0..tables {
            for v in 0..n {
                black_box(schema.base().bucket(i, v));
                black_box(schema.base().sign(i, v));
            }
        }
    });
    r.push_named(
        "hashing.point_hash_ns",
        q25_per(&ns, tables * n as usize),
        ns.len(),
    );
    let ns = sample_for(secs, || {
        for v in 0..n {
            black_box(f.base().point_estimate(v));
        }
    });
    r.push_named(
        "sketches.point_estimate_ns",
        q25_per(&ns, n as usize),
        ns.len(),
    );

    let threshold = |s: &SkimmedSketch| config.policy.threshold(s.base(), s.l1_mass());
    let (tf, tg) = (threshold(f), threshold(g));
    let ns = sample_for(secs, || {
        let mut copy = f.clone();
        black_box(copy.skim(tf, config.max_candidates));
    });
    r.push_named("core.skim_us", q25_us(&ns), ns.len());

    let (mut skimmed_f, mut skimmed_g) = (f.clone(), g.clone());
    let dense_f = skimmed_f.skim(tf, config.max_candidates);
    let dense_g = skimmed_g.skim(tg, config.max_candidates);
    let ns = sample_for(secs, || {
        black_box(dense_f.dot(&dense_g));
        black_box(est_subjoin(&dense_f, skimmed_g.base()));
        black_box(est_subjoin(&dense_g, skimmed_f.base()));
        black_box(skimmed_f.base().join_estimate(skimmed_g.base()));
    });
    r.push_named("core.subjoin_us", q25_us(&ns), ns.len());

    let ns = sample_for(secs, || {
        black_box(estimate_join(f, g, &config));
    });
    r.push_named("core.estimate_join_us", q25_us(&ns), ns.len());
    let answer = estimate_join(f, g, &config);
    r.push_named(
        "core.dense_count",
        (answer.dense_f + answer.dense_g) as f64,
        1,
    );

    let ns = sample_for(secs, || {
        black_box(encode_skimmed(f));
    });
    r.push_named("core.encode_us", q25_us(&ns), ns.len());
    let encoded = encode_skimmed(f);
    r.push_named("core.state_bytes", encoded.len() as f64, 1);
    let ns = try_sample(secs, || {
        let (decoded, ns) = timed(|| decode_skimmed(encoded.clone()));
        decoded.map_err(fail("decode_skimmed"))?;
        Ok(ns)
    })?;
    r.push_named("core.decode_us", q25_us(&ns), ns.len());
    Ok(())
}

fn zipf_prefix(domain: Domain, z: f64, shift: u64, seed: u64) -> Vec<Update> {
    let gen = ZipfGenerator::new(domain, z, shift);
    gen.generate(&mut StdRng::seed_from_u64(seed), PREFIX)
}

/// The rungs that leave the workloads' schema: the 2^18 domain, the dyadic
/// arm of §4.2, and the accuracy panel.
fn off_schema(r: &mut Report, inputs: &Inputs, seed: u64, secs: f64) {
    let config = EstimatorConfig::default();

    let wide = Domain::with_log2(18);
    let schema = SkimmedSchema::scanning(wide, 7, 256, 42);
    let mut sketch = SkimmedSketch::new(schema);
    sketch.add_batch(&zipf_prefix(wide, 1.0, 0, seed));
    let t = config.policy.threshold(sketch.base(), sketch.l1_mass());
    let ns = sample_for(secs, || {
        let mut copy = sketch.clone();
        black_box(copy.skim(t, config.max_candidates));
    });
    r.push_named("core.skim_d18_us", q25_us(&ns), ns.len());

    let schema = SkimmedSchema::dyadic(inputs::domain(), 7, 256, 42);
    let mut dyadic = [
        SkimmedSketch::new(schema.clone()),
        SkimmedSketch::new(schema),
    ];
    let prefix_batches = PREFIX / BATCH;
    let mut next = (0..prefix_batches).cycle();
    let f = inputs.stream(StreamId::F);
    let ns = sample_for(secs, || {
        let i = next.next().unwrap_or(0);
        dyadic[0].add_batch(&f[i * BATCH..(i + 1) * BATCH]);
    });
    r.push_named(
        "core.dyadic_add_batch_ns_per_update",
        q25_per(&ns, BATCH),
        ns.len(),
    );
    dyadic[1].add_batch(&inputs.stream(StreamId::G)[..PREFIX]);
    let ns = sample_for(secs, || {
        black_box(estimate_join(&dyadic[0], &dyadic[1], &config));
    });
    r.push_named("core.dyadic_estimate_join_us", q25_us(&ns), ns.len());

    // §5.1 ratio error over a panel of independent instances: the same
    // distributions as the workloads, a fresh rng seed each.
    let schema = inputs::schema();
    let domain = inputs::domain();
    let mut sum = 0.0;
    for i in 0..PANEL {
        let instance = seed.wrapping_mul(1000).wrapping_add(2 * i);
        let fv = FrequencyVector::from_updates(domain, zipf_prefix(domain, 1.0, 0, instance));
        let gv = FrequencyVector::from_updates(domain, zipf_prefix(domain, 0.8, 1, instance + 1));
        let sf = SkimmedSketch::from_frequencies(schema.clone(), fv.nonzero());
        let sg = SkimmedSketch::from_frequencies(schema.clone(), gv.nonzero());
        sum += ratio_error(
            estimate_join(&sf, &sg, &config).estimate,
            fv.join(&gv) as f64,
        );
    }
    r.push_named("core.ratio_error", sum / PANEL as f64, PANEL as usize);
}

/// The codec and the log: wire encode/decode/CRC, WAL append with and
/// without fsync, recovery of the prepared log, snapshot install.
fn wire_and_wal(
    r: &mut Report,
    inputs: &Inputs,
    state: &[SkimmedSketch; 2],
    template: &Path,
    log_bytes: u64,
    scratch: &Path,
    secs: f64,
) -> Result<(), Fail> {
    let f = inputs.stream(StreamId::F);
    let batch = &f[..BATCH];
    let ns = sample_for(secs, || {
        black_box(stream_wire::encode_update_batch(StreamId::F, 7, 1, batch));
    });
    r.push_named("wire.encode_ns_per_update", q25_per(&ns, BATCH), ns.len());
    let record = stream_wire::encode_update_batch(StreamId::F, 7, 1, batch);
    let ns = try_sample(secs, || {
        let (decoded, ns) = timed(|| Frame::decode(&record, stream_wire::DEFAULT_MAX_PAYLOAD));
        decoded.map_err(fail("Frame::decode"))?;
        Ok(ns)
    })?;
    r.push_named("wire.decode_ns_per_update", q25_per(&ns, BATCH), ns.len());
    let pass_bytes: usize = StreamId::ALL
        .into_iter()
        .flat_map(|s| inputs.stream(s).chunks(BATCH).map(move |b| (s, b)))
        .map(|(s, b)| stream_wire::encode_update_batch(s, 0, 0, b).len())
        .sum();
    r.push_named(
        "wire.bytes_per_update",
        pass_bytes as f64 / inputs::PASS_UPDATES as f64,
        1,
    );
    let block = vec![0xA5u8; 64 << 10];
    let ns = sample_for(secs, || {
        black_box(stream_wire::crc32(black_box(&block)));
    });
    r.push_named(
        "wire.crc_gb_s",
        block.len() as f64 / stats::q25(&ns) as f64,
        ns.len(),
    );

    // Appends of one encoded batch. The log is reopened empty every 1024
    // appends (untimed) so a rung holds at most ~21 MiB on disk, and the
    // rung stops at 8192 samples even if that is under `secs`: an
    // unsynced append is microseconds, and half a second of them would
    // push a gigabyte through the page cache.
    for (name, fsync) in [
        ("durability.append_ns_per_update", false),
        ("durability.append_fsync_ns_per_update", true),
    ] {
        let dir = scratch.join(name);
        let open = || -> Result<Wal, Fail> {
            let _ = std::fs::remove_dir_all(&dir);
            let mut config = WalConfig::new(&dir);
            config.fsync = fsync;
            Ok(Wal::open(config).map_err(fail("open rung log"))?.0)
        };
        let mut wal = open()?;
        let mut ns = Vec::new();
        let started = Instant::now();
        while ns.len() < 3 || (started.elapsed().as_secs_f64() < secs && ns.len() < 8192) {
            if ns.len() % 1024 == 1023 {
                wal = open()?;
            }
            let (appended, took) = timed(|| wal.append_encoded(&record));
            appended.map_err(fail("append_encoded"))?;
            ns.push(took);
        }
        r.push_named(name, q25_per(&ns, BATCH), ns.len());
    }

    let logged = LOG_PASSES * inputs::PASS_UPDATES;
    r.push_named(
        "durability.wal_bytes_per_update",
        log_bytes as f64 / logged as f64,
        1,
    );
    let ns = try_sample(secs, || {
        let (opened, ns) = timed(|| Wal::open(WalConfig::new(template)));
        let replayed = opened.map_err(fail("recover log"))?.1.replayed_updates();
        if replayed != logged {
            return Err(format!(
                "recovery replayed {replayed} of {logged} logged updates"
            ));
        }
        Ok(ns)
    })?;
    r.push_named(
        "durability.recover_s_per_melem",
        stats::q25(&ns) as f64 / 1e9 / (logged as f64 / 1e6),
        ns.len(),
    );

    let dir = scratch.join("snapshot-install");
    let (mut wal, _) = Wal::open(WalConfig::new(&dir)).map_err(fail("open snapshot log"))?;
    let blob = snapshot_blob(state);
    let ns = try_sample(secs, || {
        let (installed, ns) = timed(|| wal.install_snapshot(&blob));
        installed.map_err(fail("install_snapshot"))?;
        Ok(ns)
    })?;
    r.push_named("durability.snapshot_install_us", q25_us(&ns), ns.len());
    Ok(())
}

/// Runs the whole in-process ladder for `seed`. `template` is the prepared
/// log `durable_repl` recovers, `log_bytes` its size.
pub fn run(
    r: &mut Report,
    inputs: &Inputs,
    exact: &Exact,
    seed: u64,
    template: &Path,
    log_bytes: u64,
    secs: f64,
) -> Result<(), Fail> {
    let scratch = Scratch::new("ladder").map_err(fail("ladder scratch"))?;
    let state = exact
        .reference(inputs, &Ledger::after_passes(PRELOAD_PASSES))
        .sketches;
    write_side(r, inputs, secs)?;
    read_side(r, &state, secs)?;
    off_schema(r, inputs, seed, secs);
    wire_and_wal(r, inputs, &state, template, log_bytes, scratch.path(), secs)
}
