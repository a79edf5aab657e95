//! The host probe: was the *machine* disturbed while a run measured?
//!
//! Once a second, between samples, the generator thread times a fixed
//! integer spin (about 200 µs of dependent multiplies, no memory traffic)
//! and 64 round trips over a channel pair to a parked helper thread. The
//! share of spins slower than 1.25× the run's fastest says how often
//! another tenant held the core; the Q25 hand-off is the scheduler's
//! wake-up cost when it did not. Neither is a metric of the program: they
//! label a run, they never drop one.

use crate::stats;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SPIN_ITERS: u64 = 200_000;
const HANDOFFS: usize = 64;
const EVERY: Duration = Duration::from_secs(1);

fn spin() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x)
}

/// The probe and its parked helper thread.
pub struct HostProbe {
    ping: Sender<u64>,
    pong: Receiver<u64>,
    helper: JoinHandle<()>,
    last: Option<Instant>,
    spin_ns: Vec<u64>,
    handoff_ns: Vec<u64>,
}

/// What the probe saw over a run.
pub struct HostReport {
    /// Share of spins slower than 1.25× the fastest.
    pub spin_slow_share: f64,
    /// Q25 of one channel round trip, µs.
    pub handoff_p25_us: f64,
    /// Probes taken.
    pub probes: usize,
}

impl HostProbe {
    /// Starts the helper, which parks in `recv` between probes.
    pub fn start() -> Self {
        let (ping, helper_rx) = channel::<u64>();
        let (helper_tx, pong) = channel::<u64>();
        let helper = std::thread::spawn(move || {
            for v in helper_rx {
                if helper_tx.send(v).is_err() {
                    break;
                }
            }
        });
        HostProbe {
            ping,
            pong,
            helper,
            last: None,
            spin_ns: Vec::new(),
            handoff_ns: Vec::new(),
        }
    }

    /// Takes one probe if a second has passed since the last. Call between
    /// samples only: a probe costs about a millisecond.
    pub fn maybe_probe(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        self.last = Some(Instant::now());
        let t = Instant::now();
        spin();
        self.spin_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        for i in 0..HANDOFFS as u64 {
            // The helper outlives every probe (it exits only when `ping`
            // drops in `finish`), so a failed hand-off is a harness bug.
            self.ping.send(i).expect("host helper alive");
            self.pong.recv().expect("host helper alive");
        }
        self.handoff_ns
            .push(t.elapsed().as_nanos() as u64 / HANDOFFS as u64);
    }

    /// Stops the helper and summarises the probes.
    pub fn finish(mut self) -> HostReport {
        if self.spin_ns.is_empty() {
            self.last = None;
            self.maybe_probe();
        }
        drop(self.ping);
        self.helper.join().expect("host helper exits cleanly");
        let fastest = self.spin_ns.iter().copied().min().unwrap_or(1);
        let slow = self
            .spin_ns
            .iter()
            .filter(|&&ns| ns * 4 > fastest * 5)
            .count();
        HostReport {
            spin_slow_share: slow as f64 / self.spin_ns.len() as f64,
            handoff_p25_us: stats::q25(&self.handoff_ns) as f64 / 1e3,
            probes: self.spin_ns.len(),
        }
    }
}
