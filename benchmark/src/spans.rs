//! In-memory spans around the harness's own calls into each layer.
//!
//! The [`Tracer`] is the one timer every workload uses: `request`/`child`
//! read the clock and `end` returns the elapsed nanoseconds, traced or not.
//! In a traced run a fixed pseudo-random half of the requests is also
//! *recorded* — a [`Span`] (`name, start_ns, end_ns, parent, request_id`)
//! pushed at the start and closed at the end, inside the timed region — so
//! recorded and unrecorded neighbours of one window give the tracing
//! overhead. Spans stay in memory and are written once, at exit, as
//! Chrome-trace JSON.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request_id: u64,
}

/// A running timer; recorded when `span` is set.
pub struct Timer {
    start_ns: u64,
    span: Option<usize>,
    request_id: u64,
}

impl Timer {
    /// Whether this timer also writes a span.
    pub fn recorded(&self) -> bool {
        self.span.is_some()
    }

    /// The request this timer belongs to.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }
}

/// The harness clock and span log.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Record half of the requests (a traced run) or none.
    sampling: bool,
    coin_seed: u64,
    next_request: u64,
}

/// SplitMix64 finaliser: the recorded half is a fixed function of the
/// request id and the seed, not of timing.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Tracer {
    /// A tracer that times but records nothing (end-to-end runs).
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            sampling: false,
            coin_seed: 0,
            next_request: 0,
        }
    }

    /// A tracer that records the pseudo-random half of requests chosen by
    /// `seed`.
    pub fn sampling(seed: u64) -> Self {
        Tracer {
            spans: Vec::with_capacity(1 << 16),
            sampling: true,
            coin_seed: seed,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request_id: u64) -> Timer {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        Timer {
            start_ns,
            span: Some(self.spans.len() - 1),
            request_id,
        }
    }

    fn start(&mut self, name: &'static str, request_id: u64, record: bool) -> Timer {
        if record {
            return self.open(name, None, request_id);
        }
        Timer {
            start_ns: self.now_ns(),
            span: None,
            request_id,
        }
    }

    /// Starts a top-level request; in a traced run the coin decides
    /// whether it is recorded.
    pub fn request(&mut self, name: &'static str) -> Timer {
        let request_id = self.next_request;
        self.next_request += 1;
        let record = self.sampling && mix(request_id ^ self.coin_seed) & 1 == 0;
        self.start(name, request_id, record)
    }

    /// Starts the in-process replay of request `request_id`; always
    /// recorded in a traced run.
    pub fn replay(&mut self, name: &'static str, request_id: u64) -> Timer {
        self.start(name, request_id, self.sampling)
    }

    /// Starts a call made on behalf of `parent`; recorded iff it is.
    pub fn child(&mut self, parent: &Timer, name: &'static str) -> Timer {
        match parent.span {
            Some(p) => self.open(name, Some(p), parent.request_id),
            None => Timer {
                start_ns: self.now_ns(),
                span: None,
                request_id: parent.request_id,
            },
        }
    }

    /// Stops `timer`, closing its span if it has one; returns the elapsed
    /// nanoseconds.
    pub fn end(&mut self, timer: Timer) -> u64 {
        let end_ns = self.now_ns();
        if let Some(i) = timer.span {
            self.spans[i].end_ns = end_ns;
        }
        end_ns - timer.start_ns
    }

    /// Attaches an interval observed on another thread (an ingest worker's
    /// kernel call) under `parent`. `at` is the instant it started.
    pub fn attach(&mut self, parent: &Timer, name: &'static str, at: Instant, dur_ns: u64) {
        let Some(p) = parent.span else { return };
        let start_ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(p),
            request_id: parent.request_id,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                covered[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut sum, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    sum += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - sum
        })
        .collect()
}

/// Self time per span name over `spans[from..]`, as shares of the summed
/// duration of that range's root spans. Sorted by share, largest first.
pub fn self_shares(spans: &[Span], from: usize) -> Vec<(&'static str, f64)> {
    let selfs = self_times(spans);
    let mut by_name: Vec<(&'static str, u64)> = Vec::new();
    let mut total = 0u64;
    for (s, own) in spans.iter().zip(selfs).skip(from) {
        if s.parent.is_none() {
            total += s.end_ns - s.start_ns;
        }
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, ns)) => *ns += own,
            None => by_name.push((s.name, own)),
        }
    }
    by_name.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    by_name
        .into_iter()
        .map(|(n, ns)| (n, ns as f64 / total.max(1) as f64))
        .collect()
}

/// Chrome-trace "JSON array format": one complete (`"ph":"X"`) event per
/// span, one track per request.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"request_id\":{}}}}}{}\n",
            s.name,
            s.request_id,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.request_id,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("request", 0, 100, None),
            // Two overlapping children cover [10, 50): 40 ns, not 60.
            span("a", 10, 40, Some(0)),
            span("b", 20, 50, Some(0)),
            // A child that sticks out of its parent is clipped to [90, 100).
            span("c", 90, 130, Some(0)),
            // A grandchild reduces its parent's self time, not the root's.
            span("a.inner", 15, 25, Some(1)),
            // A child wholly outside its parent covers nothing.
            span("stray", 200, 300, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 40, 10, 100]);
        let shares = self_shares(&spans, 0);
        assert_eq!(shares[0], ("stray", 1.0));
        assert_eq!(shares[1], ("request", 0.5));
    }

    #[test]
    fn recorded_half_is_fixed_by_the_seed() {
        let pick = |seed| {
            let mut t = Tracer::sampling(seed);
            (0..256)
                .map(|_| {
                    let timer = t.request("r");
                    let rec = timer.recorded();
                    t.end(timer);
                    rec
                })
                .collect::<Vec<bool>>()
        };
        let a = pick(7);
        assert_eq!(a, pick(7));
        assert_ne!(a, pick(8));
        let on = a.iter().filter(|&&r| r).count();
        assert!((96..=160).contains(&on), "about half: {on}");

        let mut off = Tracer::off();
        let parent = off.request("r");
        let child = off.child(&parent, "c");
        assert!(!parent.recorded() && !child.recorded());
        off.end(child);
        off.end(parent);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn children_nest_and_export() {
        let mut t = Tracer::sampling(1);
        let root = t.replay("request", 9);
        let kid = t.child(&root, "layer.call");
        t.attach(&kid, "worker.call", Instant::now(), 5);
        t.end(kid);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.request_id == spans[0].request_id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_trace_json(spans);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
