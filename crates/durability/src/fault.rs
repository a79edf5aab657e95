//! Deterministic fault injection for the serving path.
//!
//! [`FaultyTransport`] is a TCP proxy that sits between a client and a
//! server and applies a [`FaultPlan`] — a per-connection, per-direction
//! list of faults pinned to exact **byte offsets** of the forwarded
//! stream. Because the trigger is a byte offset rather than a timer,
//! the same plan against the same traffic always tears the stream at
//! the same place: chaos tests are reproducible from a single `u64`
//! seed, and a failure seed can be replayed under a debugger.
//!
//! Five fault kinds cover the failure modes the wire protocol and the
//! WAL claim to survive:
//!
//! | kind           | models                                     |
//! |----------------|--------------------------------------------|
//! | `BitFlip`      | in-flight corruption past TCP's checksum   |
//! | `Truncate`     | half-close mid-frame (crashed peer)        |
//! | `Stall`        | a long scheduling or network pause         |
//! | `PartialWrite` | pathological segmentation / tiny congestion windows |
//! | `Disconnect`   | hard connection loss (RST, pulled cable)   |
//!
//! The proxy accepts any number of sequential connections (reconnect
//! loops are part of what gets tested); connections beyond the plan's
//! list are forwarded clean.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What happens to the stream when a fault triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bit `bit` (0..8) of the byte at the fault's offset, then
    /// keep forwarding. The receiver's CRCs must catch this.
    BitFlip {
        /// Which bit of the target byte to flip.
        bit: u8,
    },
    /// Forward everything before the offset, then half-close this
    /// direction. The peer sees a mid-frame EOF.
    Truncate,
    /// Forward everything before the offset, then pause this direction.
    Stall {
        /// Pause length in milliseconds.
        millis: u64,
    },
    /// From the offset on, deliver this direction's current buffer in
    /// `trickle`-byte writes separated by pauses — bytes arrive, but
    /// never a whole frame at once.
    PartialWrite {
        /// Bytes per write.
        trickle: usize,
        /// Pause between writes in milliseconds.
        millis: u64,
    },
    /// Forward everything before the offset, then tear down both
    /// directions of the connection.
    Disconnect,
}

/// One fault, armed at a byte offset of one direction of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Fires when this many bytes of the direction have been forwarded.
    pub offset: u64,
    /// What to do at that point.
    pub kind: FaultKind,
}

/// The faults for one proxied connection, split by direction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnPlan {
    /// Client → server faults.
    pub c2s: Vec<Fault>,
    /// Server → client faults.
    pub s2c: Vec<Fault>,
}

impl ConnPlan {
    /// A connection that is forwarded untouched.
    pub fn clean() -> Self {
        Self::default()
    }

    /// An asymmetric per-direction stall schedule: each `(offset,
    /// millis)` pair pauses its direction once that many bytes of it
    /// have been forwarded. The directions are independent — a
    /// client→server stall never delays server→client bytes — which is
    /// what makes replication-lag and heartbeat-miss tests
    /// deterministic: stall only the direction under test (e.g. the
    /// primary's REPLICATE chunks) at exact byte offsets instead of
    /// calibrating sleeps against the unstalled traffic.
    pub fn stalls(c2s: &[(u64, u64)], s2c: &[(u64, u64)]) -> Self {
        fn schedule(pairs: &[(u64, u64)]) -> Vec<Fault> {
            pairs
                .iter()
                .map(|&(offset, millis)| Fault {
                    offset,
                    kind: FaultKind::Stall { millis },
                })
                .collect()
        }
        ConnPlan {
            c2s: schedule(c2s),
            s2c: schedule(s2c),
        }
    }
}

/// A full fault schedule: one [`ConnPlan`] per accepted connection, in
/// accept order. Connections beyond the list are forwarded clean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-connection plans, indexed by accept order.
    pub conns: Vec<ConnPlan>,
}

/// `xorshift64*` — tiny, deterministic, and plenty for picking fault
/// shapes. Not a crypto or statistical PRNG and does not need to be.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // Zero is the one absorbing state; nudge away from it.
        XorShift64(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

impl FaultPlan {
    /// Derives a plan for `conns` connections from a seed. The mapping
    /// is pure: the same `(seed, conns)` always yields the same plan,
    /// so a chaos matrix is just a list of integers.
    ///
    /// Each connection gets one fault in one direction: kind, direction,
    /// and offset (8..=2048 — inside the first few frames of a session)
    /// all drawn from the seed. Stalls are kept short (≤ 100 ms) so
    /// seeded suites stay fast.
    pub fn from_seed(seed: u64, conns: usize) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut plan = FaultPlan::default();
        for _ in 0..conns {
            let offset = 8 + rng.below(2041);
            let kind = match rng.below(5) {
                0 => FaultKind::BitFlip {
                    bit: (rng.below(8)) as u8,
                },
                1 => FaultKind::Truncate,
                2 => FaultKind::Stall {
                    millis: 20 + rng.below(81),
                },
                3 => FaultKind::PartialWrite {
                    trickle: 1 + rng.below(7) as usize,
                    millis: 1 + rng.below(5),
                },
                _ => FaultKind::Disconnect,
            };
            let fault = Fault { offset, kind };
            let mut conn = ConnPlan::clean();
            if rng.below(2) == 0 {
                conn.c2s.push(fault);
            } else {
                conn.s2c.push(fault);
            }
            plan.conns.push(conn);
        }
        plan
    }

    /// The same per-connection plan for each of `conns` accepted
    /// connections — reconnect loops (a follower's capped-jitter
    /// redial, a router's retry) keep hitting the same schedule instead
    /// of falling off the end of the list into clean forwarding.
    pub fn repeated(conn: ConnPlan, conns: usize) -> Self {
        FaultPlan {
            conns: vec![conn; conns],
        }
    }
}

/// How often pump threads wake up to check the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// A fault-injecting TCP proxy in front of one upstream address.
///
/// Listens on an ephemeral loopback port; point the client at
/// [`FaultyTransport::local_addr`] instead of the real server. Each
/// accepted connection is paired with a fresh upstream connection and
/// pumped in both directions by two threads that apply the plan's
/// faults at their byte offsets.
pub struct FaultyTransport {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultyTransport {
    /// Starts the proxy in front of `upstream` with the given plan.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            thread::Builder::new()
                .name("faulty-transport".into())
                .spawn(move || proxy_connections(listener, upstream, plan, stop, accepted))
                // ss-analyze: allow(a2-panic-free) -- deterministic fault-injection test harness, not a serving path; failing to spawn the proxy thread should abort the test loudly
                .expect("spawn faulty-transport acceptor")
        };
        Ok(FaultyTransport {
            local_addr,
            stop,
            accepted,
            acceptor: Some(acceptor),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted so far (reconnect tests assert on this).
    pub fn connections(&self) -> u64 {
        self.accepted.load(Ordering::Acquire)
    }

    /// Stops accepting and tears down all pump threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultyTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn proxy_connections(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                let idx = accepted.fetch_add(1, Ordering::AcqRel) as usize;
                let conn_plan = plan.conns.get(idx).cloned().unwrap_or_default();
                match TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) {
                    Ok(server) => {
                        pumps.extend(spawn_pumps(client, server, conn_plan, Arc::clone(&stop)))
                    }
                    Err(_) => drop(client), // upstream gone: refuse by closing
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => break,
        }
    }
    for pump in pumps {
        let _ = pump.join();
    }
}

/// Wires `client` and `server` together with two fault-applying pump
/// threads sharing a per-connection kill switch (for `Disconnect`).
fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    plan: ConnPlan,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let conn_dead = Arc::new(AtomicBool::new(false));
    let c2 = client.try_clone();
    let s2 = server.try_clone();
    let (Ok(client_rx), Ok(server_rx)) = (c2, s2) else {
        return Vec::new();
    };
    let up = {
        let stop = Arc::clone(&stop);
        let dead = Arc::clone(&conn_dead);
        thread::spawn(move || pump(client_rx, server, plan.c2s, stop, dead))
    };
    let down = {
        let stop = Arc::clone(&stop);
        let dead = Arc::clone(&conn_dead);
        thread::spawn(move || pump(server_rx, client, plan.s2c, stop, dead))
    };
    vec![up, down]
}

/// Forwards `src` → `dst`, applying `faults` at their byte offsets.
/// Exits on EOF, I/O error, proxy stop, or the connection kill switch.
fn pump(
    src: TcpStream,
    mut dst: TcpStream,
    mut faults: Vec<Fault>,
    stop: Arc<AtomicBool>,
    conn_dead: Arc<AtomicBool>,
) {
    faults.sort_by_key(|f| f.offset);
    let mut src = src;
    if src.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut pos: u64 = 0; // bytes forwarded so far in this direction
    let mut buf = [0u8; 16 << 10];
    'outer: loop {
        if stop.load(Ordering::Acquire) || conn_dead.load(Ordering::Acquire) {
            break;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => break, // peer closed: propagate EOF
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        // ss-analyze: allow(a2-panic-free) -- test-harness proxy; `read` contracts `n <= buf.len()`
        let mut chunk = &mut buf[..n];
        // Apply every fault that lands inside this chunk, in offset
        // order; `pos` tracks the stream offset of `chunk[0]`.
        while let Some(fault) = faults.first().copied() {
            if fault.offset >= pos + chunk.len() as u64 {
                break;
            }
            faults.remove(0);
            let split = (fault.offset.saturating_sub(pos)) as usize;
            match fault.kind {
                FaultKind::BitFlip { bit } => {
                    // ss-analyze: allow(a2-panic-free) -- `split < chunk.len()` by the `fault.offset >= pos + chunk.len()` guard above
                    chunk[split] ^= 1 << (bit & 7);
                    // A flip corrupts in place; forwarding continues.
                }
                FaultKind::Truncate => {
                    // ss-analyze: allow(a2-panic-free) -- `split < chunk.len()` by the same offset guard
                    let _ = dst.write_all(&chunk[..split]);
                    let _ = dst.flush();
                    let _ = dst.shutdown(Shutdown::Write);
                    let _ = src.shutdown(Shutdown::Read);
                    break 'outer;
                }
                FaultKind::Stall { millis } => {
                    let (head, rest) = chunk.split_at_mut(split);
                    if dst.write_all(head).is_err() {
                        break 'outer;
                    }
                    let _ = dst.flush();
                    sleep_unless(&stop, &conn_dead, millis);
                    pos += head.len() as u64;
                    chunk = rest;
                }
                FaultKind::PartialWrite { trickle, millis } => {
                    let (head, rest) = chunk.split_at_mut(split);
                    if dst.write_all(head).is_err() {
                        break 'outer;
                    }
                    pos += head.len() as u64;
                    let step = trickle.max(1);
                    for piece in rest.chunks(step) {
                        if dst.write_all(piece).is_err() {
                            break 'outer;
                        }
                        let _ = dst.flush();
                        pos += piece.len() as u64;
                        sleep_unless(&stop, &conn_dead, millis);
                    }
                    continue 'outer; // whole chunk already delivered
                }
                FaultKind::Disconnect => {
                    // ss-analyze: allow(a2-panic-free) -- `split < chunk.len()` by the same offset guard
                    let _ = dst.write_all(&chunk[..split]);
                    let _ = dst.flush();
                    conn_dead.store(true, Ordering::Release);
                    let _ = dst.shutdown(Shutdown::Both);
                    let _ = src.shutdown(Shutdown::Both);
                    break 'outer;
                }
            }
        }
        if dst.write_all(chunk).is_err() {
            break;
        }
        pos += chunk.len() as u64;
    }
    // Whatever ended this pump, let the peer observe the half-close
    // instead of hanging on a read.
    let _ = dst.shutdown(Shutdown::Write);
}

/// Sleeps up to `millis`, waking early if the proxy or connection dies.
fn sleep_unless(stop: &AtomicBool, conn_dead: &AtomicBool, millis: u64) {
    let mut remaining = Duration::from_millis(millis);
    while remaining > Duration::ZERO {
        if stop.load(Ordering::Acquire) || conn_dead.load(Ordering::Acquire) {
            return;
        }
        let step = remaining.min(POLL);
        thread::sleep(step);
        remaining -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-connection-at-a-time echo server; lives until dropped sockets
    /// end its accept loop (it is a daemon-ish test fixture).
    fn echo_server() -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        listener.set_nonblocking(true).unwrap();
        thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((mut sock, _)) => {
                        let flag = Arc::clone(&flag);
                        thread::spawn(move || {
                            sock.set_read_timeout(Some(POLL)).unwrap();
                            let mut buf = [0u8; 4096];
                            while !flag.load(Ordering::Acquire) {
                                match sock.read(&mut buf) {
                                    Ok(0) => break,
                                    Ok(n) => {
                                        if sock.write_all(&buf[..n]).is_err() {
                                            break;
                                        }
                                    }
                                    Err(e)
                                        if e.kind() == io::ErrorKind::WouldBlock
                                            || e.kind() == io::ErrorKind::TimedOut =>
                                    {
                                        continue
                                    }
                                    Err(_) => break,
                                }
                            }
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
                    Err(_) => break,
                }
            }
        });
        (addr, stop)
    }

    fn talk(addr: SocketAddr, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_read_timeout(Some(Duration::from_secs(5)))?;
        sock.write_all(payload)?;
        sock.shutdown(Shutdown::Write)?;
        let mut back = Vec::new();
        sock.read_to_end(&mut back)?;
        Ok(back)
    }

    #[test]
    fn clean_plan_forwards_bytes_verbatim() {
        let (upstream, stop) = echo_server();
        let proxy = FaultyTransport::start(upstream, FaultPlan::default()).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload);
        assert_eq!(proxy.connections(), 1);
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let (upstream, stop) = echo_server();
        let plan = FaultPlan {
            conns: vec![ConnPlan {
                c2s: vec![Fault {
                    offset: 100,
                    kind: FaultKind::BitFlip { bit: 3 },
                }],
                s2c: vec![],
            }],
        };
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        let payload = vec![0u8; 1000];
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back.len(), 1000);
        assert_eq!(back[100], 1 << 3, "targeted byte flipped");
        let clean = back.iter().enumerate().all(|(i, &b)| i == 100 || b == 0);
        assert!(clean, "every other byte untouched");
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn truncate_delivers_exact_prefix() {
        let (upstream, stop) = echo_server();
        let plan = FaultPlan {
            conns: vec![ConnPlan {
                c2s: vec![],
                s2c: vec![Fault {
                    offset: 64,
                    kind: FaultKind::Truncate,
                }],
            }],
        };
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        let payload: Vec<u8> = (0..500u16).map(|i| i as u8).collect();
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, &payload[..64], "reply cut mid-stream at offset 64");
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn disconnect_kills_the_connection_but_not_the_proxy() {
        let (upstream, stop) = echo_server();
        let mut plan = FaultPlan {
            conns: vec![ConnPlan {
                c2s: vec![Fault {
                    offset: 10,
                    kind: FaultKind::Disconnect,
                }],
                s2c: vec![],
            }],
        };
        plan.conns.push(ConnPlan::clean());
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        // First connection dies early…
        let back = talk(proxy.local_addr(), &vec![7u8; 256]);
        // A reset before any reply is also a valid outcome, hence no
        // assertion on the Err arm.
        if let Ok(bytes) = back {
            assert!(bytes.len() <= 10, "at most the pre-fault prefix echoes");
        }
        // …the next one sails through.
        let payload = vec![42u8; 256];
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload);
        assert_eq!(proxy.connections(), 2);
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn partial_write_still_delivers_every_byte() {
        let (upstream, stop) = echo_server();
        let plan = FaultPlan {
            conns: vec![ConnPlan {
                c2s: vec![Fault {
                    offset: 32,
                    kind: FaultKind::PartialWrite {
                        trickle: 3,
                        millis: 1,
                    },
                }],
                s2c: vec![],
            }],
        };
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        let payload: Vec<u8> = (0..600u32).map(|i| (i * 7 % 256) as u8).collect();
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload, "slow, but complete and uncorrupted");
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn stall_pauses_then_resumes() {
        let (upstream, stop) = echo_server();
        let plan = FaultPlan {
            conns: vec![ConnPlan {
                c2s: vec![],
                s2c: vec![Fault {
                    offset: 16,
                    kind: FaultKind::Stall { millis: 60 },
                }],
            }],
        };
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        let payload = vec![1u8; 128];
        let started = std::time::Instant::now();
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload);
        assert!(
            started.elapsed() >= Duration::from_millis(50),
            "the stall was observable"
        );
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn stall_schedule_fires_every_entry_in_one_direction() {
        let (upstream, stop) = echo_server();
        // Three stalls on the request path only; the reply direction is
        // untouched.
        let plan = FaultPlan::repeated(ConnPlan::stalls(&[(8, 30), (16, 30), (24, 30)], &[]), 1);
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        let payload = vec![5u8; 64];
        let started = std::time::Instant::now();
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload, "stalls delay, never drop or corrupt");
        assert!(
            started.elapsed() >= Duration::from_millis(80),
            "all three stalls were observable, got {:?}",
            started.elapsed()
        );
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn asymmetric_schedules_stall_each_direction_independently() {
        let (upstream, stop) = echo_server();
        // Different shapes per direction on the same connection: a
        // short early request stall, a long reply stall. Both fire, the
        // stream survives both.
        let plan = FaultPlan::repeated(ConnPlan::stalls(&[(4, 20)], &[(32, 60)]), 2);
        assert_eq!(plan.conns.len(), 2);
        assert_eq!(plan.conns[0], plan.conns[1], "repeated() clones the plan");
        let proxy = FaultyTransport::start(upstream, plan).unwrap();
        let payload: Vec<u8> = (0..200u8).collect();
        let started = std::time::Instant::now();
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload);
        assert!(
            started.elapsed() >= Duration::from_millis(70),
            "both directions' stalls add up, got {:?}",
            started.elapsed()
        );
        // The second connection gets the same schedule (not clean
        // forwarding).
        let back = talk(proxy.local_addr(), &payload).unwrap();
        assert_eq!(back, payload);
        assert_eq!(proxy.connections(), 2);
        proxy.stop();
        stop.store(true, Ordering::Release);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::from_seed(0xDEAD_BEEF, 8);
        let b = FaultPlan::from_seed(0xDEAD_BEEF, 8);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::from_seed(0xDEAD_BEF0, 8);
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.conns.len(), 8);
        for conn in &a.conns {
            assert_eq!(
                conn.c2s.len() + conn.s2c.len(),
                1,
                "exactly one fault per connection"
            );
        }
    }
}
