//! The benchmark's own in-memory spans, recorded around calls into the
//! library crates (nothing is recorded inside them). A span has a name,
//! the layer whose public call it wraps, start, end and the span that
//! caused it. A layer's self time is its spans' durations minus the part
//! their direct children cover. Spans are written out in chrome-trace
//! form when the traced run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer that owns spans no library call accounts for.
pub const HARNESS: &str = "harness";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Records spans on the thread that drives the workload. Work timed on
/// another thread against the same epoch (the evaluator decorator under
/// the pipelined engine) is merged in afterwards with [`Recorder::adopt`].
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { enabled: true, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// The tracing-off recorder: `scope` and `time` just run the closure.
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new() }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` may open further spans, which become
    /// children.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(layer, name, |_| f())
    }

    /// Add an already-closed span (nanoseconds since [`Recorder::epoch`])
    /// as a child of `parent`.
    pub fn adopt(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span { name, layer, start_ns, end_ns, parent: Some(parent) });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recent span called `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Summed duration and count of every span called `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    /// Self time per layer over the subtree of span `root`: each span's
    /// duration minus its direct children's, summed by layer.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut children = vec![0.0; self.spans.len()];
        // Parents precede children, so one forward pass marks the subtree.
        let mut inside = vec![false; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            inside[id] = id == root || s.parent.is_some_and(|p| inside[p]);
            if let Some(p) = s.parent {
                children[p] += s.seconds();
            }
        }
        let mut by_layer = BTreeMap::new();
        for ((s, covered), _) in self.spans.iter().zip(&children).zip(&inside).filter(|(_, i)| **i)
        {
            *by_layer.entry(s.layer).or_insert(0.0) += (s.seconds() - covered).max(0.0);
        }
        by_layer
    }

    /// Share of span `root`'s time attributed to a library layer: the sum
    /// of the non-harness self times in its subtree over its duration.
    pub fn closure_frac(&self, root: usize) -> f64 {
        let total = self.spans[root].seconds();
        let attributed: f64 =
            self.self_times(root).iter().filter(|(l, _)| **l != HARNESS).map(|(_, t)| t).sum();
        if total > 0.0 {
            attributed / total
        } else {
            0.0
        }
    }

    /// The spans as a chrome-trace document (complete `X` events,
    /// microseconds).
    pub fn chrome_trace(&self, workload: &str, rep: u64) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Int(id as u64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                            ("workload", Json::str(workload)),
                            ("rep", Json::Int(rep)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans:
    /// root 0..100 (harness) > a 10..60 (vsmol) > b 20..50 (vsscore);
    /// root > c 60..90 (vsmol).
    fn fixture() -> Recorder {
        let mut r = Recorder::new();
        let mk =
            |name, layer, start_ns, end_ns, parent| Span { name, layer, start_ns, end_ns, parent };
        r.spans = vec![
            mk("root", HARNESS, 0, 100, None),
            mk("a", "vsmol", 10, 60, Some(0)),
            mk("b", "vsscore", 20, 50, Some(1)),
            mk("c", "vsmol", 60, 90, Some(0)),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = fixture();
        let st = r.self_times(0);
        let ns = |layer: &str| (st[layer] * 1e9).round() as u64;
        assert_eq!(ns(HARNESS), 100 - 50 - 30);
        assert_eq!(ns("vsmol"), (50 - 30) + 30);
        assert_eq!(ns("vsscore"), 30);
        assert_eq!(st.values().map(|t| (t * 1e9).round() as u64).sum::<u64>(), 100);
        assert!((r.closure_frac(0) - 0.8).abs() < 1e-12);
        // The subtree of `a` alone: its own 20 ns plus b's 30 ns.
        let sub = r.self_times(1);
        assert_eq!(sub.len(), 2);
        assert!((r.closure_frac(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adopted_spans_count_against_their_parent() {
        let mut r = fixture();
        r.adopt(3, "vsched", "d", 65, 85);
        let st = r.self_times(0);
        assert_eq!((st["vsmol"] * 1e9).round() as u64, 20 + 10);
        assert_eq!((st["vsched"] * 1e9).round() as u64, 20);
        assert_eq!(r.total("d"), (20e-9, 1));
        assert_eq!(r.last("a"), Some(1));
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut r = Recorder::new();
        let v = r.scope(HARNESS, "outer", |r| {
            r.time("vsmol", "inner", || 7) + r.time("vsmol", "inner", || 1)
        });
        assert_eq!(v, 8);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(r.total("inner").1, 2);

        let mut off = Recorder::disabled();
        assert_eq!(off.scope(HARNESS, "outer", |r| r.time("vsmol", "inner", || 7)), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_back() {
        let doc = fixture().chrome_trace("dock_pairs", 0).render();
        let v = vstrace::json::parse(&doc).expect("chrome trace must be valid JSON");
        let events = crate::json::arr(&v, "traceEvents").unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(crate::json::text(&events[2], "cat").unwrap(), "vsscore");
        assert_eq!(crate::json::num(&events[2], "dur").unwrap(), 0.03);
        let args = events[2].get("args").unwrap();
        assert_eq!(crate::json::num(args, "parent").unwrap(), 1.0);
    }
}
