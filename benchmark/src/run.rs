//! The untraced run: five epochs of set-up and window slice, gates, the
//! four end-to-end metrics.

use crate::host::HostProbe;
use crate::inputs::{self, Exact, Inputs};
use crate::nodes::{fail, prepare_log, Fail, Gates, PlainEnv, ReplEnv, Scratch};
use crate::report::{self, Report, END_TO_END};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, Cx, Outcome};
use crate::Args;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Epochs per run. An epoch is one full set-up (a `setup_s` sample) and a
/// fifth of the window; the set-ups are therefore spread over the whole
/// run instead of bunched before it, and `setup_s` is their Q25 (of five:
/// the second smallest).
pub const EPOCHS: usize = 5;

/// `VmHWM` of this process, MiB. [`measure`] reads it when the first epoch
/// ends: one set-up, one slice of the window and its state check, which is
/// what a node that was started once holds. Each later epoch is the
/// harness repeating itself inside one process, and every repetition leaves
/// allocator history behind (`durable_repl` read 185 MiB after the first
/// epoch in ten runs of ten, and anything from 283 to 352 MiB after the
/// fifth).
pub fn peak_rss_mb() -> Result<f64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail("read VmHWM"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What [`measure`] took: the set-up times and the pooled samples of every
/// epoch's slice of the window.
pub struct Measured {
    /// One duration per set-up, ns.
    pub setup_ns: Vec<u64>,
    /// The window, all epochs pooled in the order they ran.
    pub outcome: Outcome,
    /// `(recovery, bootstrap)` of the last replicated set-up.
    pub restart: Option<(Duration, Duration)>,
}

/// Runs `workload` for `epochs` epochs: each sets the nodes up from
/// nothing (timed), runs `cx.window / epochs` of the workload's loop,
/// checks the state the epoch ended in and tears everything down.
pub fn measure(workload: &str, seed: u64, epochs: usize, cx: &mut Cx) -> Result<Measured, Fail> {
    let slice = cx.window / epochs as u32;
    let mut setup_ns = Vec::with_capacity(epochs);
    let mut outcome = Outcome::of(workload);
    if workload == "durable_repl" {
        let inputs = Inputs::generate(seed);
        let exact = Exact::of(&inputs, inputs::schema());
        let scratch = Scratch::new(workload).map_err(fail("scratch"))?;
        let template = scratch.path().join("prepared-log");
        prepare_log(&template, &inputs)?;
        let mut restart = None;
        for epoch in 0..epochs {
            let (mut env, took) = ReplEnv::set_up(&template, scratch.path(), epoch)?;
            setup_ns.push(took.as_nanos() as u64);
            restart = Some((env.recovery, env.bootstrap));
            workloads::durable_repl(&mut env, &inputs, &exact, cx, slice, &mut outcome)?;
            if epoch == 0 {
                outcome.peak_rss_mb = peak_rss_mb()?;
            }
            if epoch + 1 < epochs {
                env.tear_down()?;
            } else {
                workloads::fail_over(env, &inputs, &exact, cx, &mut outcome)?;
            }
        }
        return Ok(Measured {
            setup_ns,
            outcome,
            restart,
        });
    }
    let mut buffers = Inputs::default();
    // Same seed, same inputs every epoch: one exact count serves them all.
    let mut exact = None;
    for epoch in 0..epochs {
        let (mut env, took) = PlainEnv::set_up(seed, buffers)?;
        setup_ns.push(took.as_nanos() as u64);
        let exact = exact.get_or_insert_with(|| Exact::of(&env.inputs, inputs::schema()));
        workloads::run_plain(workload, &mut env, exact, cx, slice, &mut outcome)?;
        if epoch == 0 {
            outcome.peak_rss_mb = peak_rss_mb()?;
        }
        buffers = env.tear_down()?;
    }
    Ok(Measured {
        setup_ns,
        outcome,
        restart: None,
    })
}

/// Records the window's figures: the end-to-end metrics first, then the
/// diagnostics printed beside them.
pub fn record(r: &mut Report, m: &Measured) {
    let out = &m.outcome;
    let each: Vec<String> = m
        .setup_ns
        .iter()
        .map(|&ns| format!("{:.3}", ns as f64 / 1e9))
        .collect();
    println!("set-ups, one per epoch, s: {}", each.join(" "));
    r.push_named(
        "setup_s",
        stats::q25(&m.setup_ns) as f64 / 1e9,
        m.setup_ns.len(),
    );
    r.push_named("ingest_melem_s", out.melem_s(), out.blocks.ns.len());
    r.push_named("query_p25_us", out.query_q25_us(), out.queries.ns.len());
    // The same samples without the quiet stretch: how much of the window
    // the host disturbed.
    r.push(
        "ingest_flat_melem_s",
        out.block_updates as f64 * 1e3 / stats::q25(&out.blocks.ns) as f64,
        "Melem/s",
        out.blocks.ns.len(),
    );
    let n = out.queries.ns.len();
    r.push(
        "query_flat_p25_us",
        stats::q25(&out.queries.ns) as f64 / 1e3,
        "us",
        n,
    );
    r.push(
        "query_p50_us",
        stats::p50(&out.queries.ns) as f64 / 1e3,
        "us",
        n,
    );
    let (tail, pct) = stats::tail(&out.queries.ns, 99, 30);
    r.push(&format!("query_p{pct:.0}_us"), tail as f64 / 1e3, "us", n);
    r.push(
        "block_p50_ms",
        stats::p50(&out.blocks.ns) as f64 / 1e6,
        "ms",
        out.blocks.ns.len(),
    );
    r.push(
        "throttle_share",
        out.throttled as f64 / (out.batches + out.throttled).max(1) as f64,
        "ratio",
        (out.batches + out.throttled) as usize,
    );
    if !out.acks.is_empty() {
        let (n, (p50, p95)) = (out.acks.len(), out.ack_p50_p95_us());
        r.push("repl_batch_ack_p50_us", p50, "us", n);
        r.push("repl_batch_ack_p95_us", p95, "us", n);
        r.push("replica_lag_bytes_max", out.lag_max as f64, "bytes", n);
        // The trend the program puts into an epoch: the log grows, and a
        // gated ack reads all of it.
        let last = out.block_positions.iter().copied().max().unwrap_or(0);
        for position in [0, last] {
            if let Some((ms, n)) = out.block_q25_ms_at(position) {
                r.push(&format!("repl_block_{position}_p25_ms"), ms, "ms", n);
            }
        }
    }
    if let Some(ms) = out.promote_ms {
        r.push("promote_first_answer_ms", ms, "ms", 1);
    }
    if let Some((recovery, bootstrap)) = m.restart {
        r.push("recovery_s", recovery.as_secs_f64(), "s", 1);
        r.push("bootstrap_s", bootstrap.as_secs_f64(), "s", 1);
    }
}

/// Runs one workload untraced and prints its result line. Returns whether
/// every gate held.
pub fn run(workload: &str, seed: u64, seconds: f64) -> bool {
    println!("workload {workload} seed {seed} seconds {seconds} trace 0");
    let mut report = Report::default();
    let mut gates = Gates::default();
    let mut tracer = Tracer::off();
    let mut host = HostProbe::start();
    let measured = measure(
        workload,
        seed,
        EPOCHS,
        &mut Cx {
            tracer: &mut tracer,
            host: &mut host,
            gates: &mut gates,
            window: Duration::from_secs_f64(seconds),
            traced: false,
        },
    );
    let probe = host.finish();
    match measured {
        Ok(m) => {
            record(&mut report, &m);
            report.push_named("peak_rss_mb", m.outcome.peak_rss_mb, 1);
        }
        Err(e) => gates.fail(e),
    }
    report.push(
        "host.spin_slow_share",
        probe.spin_slow_share,
        "ratio",
        probe.probes,
    );
    report.push(
        "host.handoff_p25_us",
        probe.handoff_p25_us,
        "us",
        probe.probes,
    );
    // A metric that was not taken, or is not a positive number, fails the
    // run like any other gate.
    for (name, _) in END_TO_END {
        gates.check(report.get(name).is_some_and(|v| v > 0.0), || {
            format!("{name} was not measured")
        });
    }
    for note in &gates.notes {
        eprintln!("FAILED {workload}: {note}");
    }
    report::finish(&report.result_line(&END_TO_END, gates.attempted, gates.failed));
    gates.failed == 0
}

/// Runs `args` (minus any `--workload`) once per workload, a fresh process
/// each, one after the other; echoes every child's output.
pub fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for workload in workloads::WORKLOADS {
        match child(workload, args.seed, args.seconds, args.trace) {
            Ok((passed, stdout)) => {
                print!("{stdout}");
                ok &= passed;
            }
            Err(e) => {
                eprintln!("FAILED {workload}: {e}");
                ok = false;
            }
        }
        // One traced run already covers all four workloads.
        if args.trace {
            break;
        }
    }
    ok
}

/// Runs one workload in a fresh process of this executable and waits for
/// it; returns whether it exited with 0 and its standard output.
pub fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(bool, String), Fail> {
    let exe = std::env::current_exe().map_err(fail("current_exe"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(fail("spawn workload process"))?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// A one-second window of `workload`: every gate holds and all four
    /// end-to-end metrics are finite and positive.
    fn smoke(workload: &str) {
        let mut report = Report::default();
        let mut gates = Gates::default();
        let mut tracer = Tracer::off();
        let mut host = HostProbe::start();
        let measured = measure(
            workload,
            3,
            1,
            &mut Cx {
                tracer: &mut tracer,
                host: &mut host,
                gates: &mut gates,
                window: Duration::from_secs(1),
                traced: false,
            },
        )
        .unwrap_or_else(|e| panic!("{workload} failed: {e}"));
        let probe = host.finish();
        assert!(probe.probes >= 1 && probe.handoff_p25_us > 0.0);
        assert_eq!(gates.failed, 0, "{workload} gates: {:?}", gates.notes);
        assert!(gates.attempted > 0);
        record(&mut report, &measured);
        report.push_named("peak_rss_mb", measured.outcome.peak_rss_mb, 1);
        for (name, _) in END_TO_END {
            let v = report
                .get(name)
                .unwrap_or_else(|| panic!("{workload} lacks {name}"));
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
        }
        let line = report.result_line(&END_TO_END, gates.attempted, gates.failed);
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert!(
            tracer.spans().is_empty(),
            "an untraced run records no spans"
        );
    }

    #[test]
    fn smoke_ingest_wire() {
        smoke(WORKLOADS[0]);
    }

    #[test]
    fn smoke_query_scan() {
        smoke(WORKLOADS[1]);
    }

    #[test]
    fn smoke_mixed_rw() {
        smoke(WORKLOADS[2]);
    }

    #[test]
    fn smoke_durable_repl() {
        smoke(WORKLOADS[3]);
    }
}
