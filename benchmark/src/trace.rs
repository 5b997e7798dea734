//! In-memory span recorder for the traced twin.
//!
//! The traced run drives an unrolled twin of a workload through the
//! lower public API and records one span per call into a layer:
//! `{id, parent, op, layer, start_ns, end_ns}`. Spans stay in memory
//! and are written once, at exit. A layer's *self time* is its spans'
//! durations minus the part of each interval its child spans cover.
//!
//! Some public calls are opaque (`Setup::simulator` builds the routing
//! table inside). Their inner cost is timed *beside* the call, on the
//! same inputs, and recorded as a synthetic child span placed at the
//! parent's start ([`Recorder::beside`]) — so the parent's self time is
//! the call minus the part measured beside it.

use std::time::Instant;

/// The layers of the stack, named after the repository's crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The twin's own glue (never reported as a layer).
    Root,
    FieldTopology,
    Layout,
    SimRouting,
    SimBuild,
    SimRun,
    Power,
    CoreSpecJson,
    CoreCache,
    CoreSweep,
    BenchServe,
}

impl Layer {
    /// The reported layers, in stack order.
    pub const REPORTED: [Layer; 10] = [
        Layer::FieldTopology,
        Layer::Layout,
        Layer::SimRouting,
        Layer::SimBuild,
        Layer::SimRun,
        Layer::Power,
        Layer::CoreSpecJson,
        Layer::CoreCache,
        Layer::CoreSweep,
        Layer::BenchServe,
    ];

    /// The layer's name inside `share.<name>` metrics.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Root => "root",
            Layer::FieldTopology => "field_topology",
            Layer::Layout => "layout",
            Layer::SimRouting => "sim_routing",
            Layer::SimBuild => "sim_build",
            Layer::SimRun => "sim_run",
            Layer::Power => "power",
            Layer::CoreSpecJson => "core_spec_json",
            Layer::CoreCache => "core_cache",
            Layer::CoreSweep => "core_sweep",
            Layer::BenchServe => "bench_serve",
        }
    }
}

/// A span id (its index in the recorder).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub op: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store of one traced twin pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The spans opened and not yet closed, innermost last.
    open: Vec<SpanId>,
    /// Real time spent re-measuring inner costs beside their calls.
    beside_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            beside_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Recorder::close`] ends.
    pub fn open(&mut self, op: &'static str, layer: Layer, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            parent,
            op,
            layer,
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Ends the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        op: &'static str,
        layer: Layer,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.open(op, layer, Some(parent));
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Runs `f` *beside* the already-closed span `parent` and records it
    /// as a synthetic child at the parent's start, clipped to the
    /// parent: the inner cost of an opaque call, re-measured on the
    /// same inputs. Successive calls stack one after the other. The
    /// real interval `f` took is recorded too, as a `trace.beside` span
    /// of no layer under the innermost open span, so that no enclosing
    /// span counts the re-measurement as its own time.
    pub fn beside<T>(
        &mut self,
        op: &'static str,
        layer: Layer,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let real_start = self.now_ns();
        let out = f();
        let real_end = self.now_ns();
        let dur = real_end - real_start;
        self.beside_ns += dur;
        // Children are always recorded after their parent.
        let start = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let end = (start + dur).min(self.spans[parent].end_ns);
        self.spans.push(Span {
            parent: Some(parent),
            op,
            layer,
            start_ns: start,
            end_ns: end.max(start),
        });
        self.spans.push(Span {
            parent: self.open.last().copied(),
            op: "trace.beside",
            layer: Layer::Root,
            start_ns: real_start,
            end_ns: real_end,
        });
        out
    }

    /// Appends a synthetic span of `dur_s` seconds at the end of
    /// `parent`, extending the parent (and nothing above it): time that
    /// was measured in a separate pass and belongs to this one.
    pub fn append(&mut self, op: &'static str, layer: Layer, parent: SpanId, dur_s: f64) {
        let start = self.spans[parent].end_ns;
        let end = start + (dur_s.max(0.0) * 1e9) as u64;
        self.spans[parent].end_ns = end;
        self.spans.push(Span {
            parent: Some(parent),
            op,
            layer,
            start_ns: start,
            end_ns: end,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_s(&self, id: SpanId) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Real seconds spent so far in [`Recorder::beside`] closures. They
    /// re-run work the spans already cover, so they belong to the
    /// tracing, not to the twin: subtract them from any real interval
    /// that is compared with untraced time.
    pub fn beside_s(&self) -> f64 {
        self.beside_ns as f64 * 1e-9
    }

    /// Self time of every span in seconds: its duration minus the part
    /// of its interval that its direct children cover.
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                if b > a {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Self seconds summed per layer (indexed like [`Layer::REPORTED`]).
    pub fn layer_self_s(&self) -> [f64; 10] {
        let mut out = [0.0; 10];
        for (s, own) in self.spans.iter().zip(self.self_times_s()) {
            if let Some(i) = Layer::REPORTED.iter().position(|&l| l == s.layer) {
                out[i] += own;
            }
        }
        out
    }

    /// The spans as a JSON array (written once, at exit).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(", ");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": \"{}\", \"layer\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            op: "t",
            layer,
            start_ns,
            end_ns,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
            beside_ns: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let rec = recorder(vec![
            span(None, Layer::Root, 0, 1_000),
            span(Some(0), Layer::SimBuild, 100, 500),
            // Child of the build, overlapping a sibling: the union counts once.
            span(Some(1), Layer::SimRouting, 100, 300),
            span(Some(1), Layer::SimRouting, 200, 350),
            span(Some(0), Layer::SimRun, 500, 900),
            // A child that sticks out of its parent is clipped to it.
            span(Some(4), Layer::Power, 850, 2_000),
        ]);
        let own = rec.self_times_s();
        let ns = |i: usize| (own[i] * 1e9).round() as u64;
        assert_eq!(ns(0), 1_000 - 400 - 400, "root minus build and run");
        assert_eq!(ns(1), 400 - 250, "build minus the union [100, 350)");
        assert_eq!(ns(2), 200);
        assert_eq!(ns(3), 150);
        assert_eq!(ns(4), 400 - 50, "run minus the clipped power child");
        assert_eq!(ns(5), 1_150, "a span's own duration is never clipped");
        let layers = rec.layer_self_s();
        let at = |l: Layer| {
            let i = Layer::REPORTED.iter().position(|&x| x == l).unwrap();
            (layers[i] * 1e9).round() as u64
        };
        assert_eq!(at(Layer::SimRouting), 350);
        assert_eq!(at(Layer::SimBuild), 150);
        assert_eq!(at(Layer::SimRun), 350);
        assert_eq!(at(Layer::Layout), 0);
    }

    #[test]
    fn beside_spans_stack_at_the_parent_start_and_clip() {
        let mut rec = Recorder::new();
        let root = rec.open("root", Layer::Root, None);
        let point = rec.open("point", Layer::CoreSweep, Some(root));
        let (build, ()) = rec.time("build", Layer::SimBuild, point, || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        rec.beside("table", Layer::SimRouting, build, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        rec.beside("too long", Layer::Layout, build, || {
            std::thread::sleep(std::time::Duration::from_millis(8));
        });
        rec.close(point);
        rec.close(root);
        let s = rec.spans();
        let (table, too_long) = (build + 1, build + 3);
        assert_eq!(s[table].start_ns, s[build].start_ns);
        assert_eq!(s[too_long].start_ns, s[table].end_ns, "stacked after it");
        assert_eq!(s[too_long].end_ns, s[build].end_ns, "clipped to the parent");
        let own = rec.self_times_s();
        assert!(own[build].abs() < 1e-12, "fully explained");
        assert!(rec.beside_s() >= 0.009, "both beside closures ran for real");
        // The enclosing open span does not count the re-measurement.
        assert_eq!(s[build + 2].op, "trace.beside");
        assert_eq!(s[build + 2].parent, Some(point));
        assert!(
            own[point] < 0.002,
            "point keeps only its glue: {}",
            own[point]
        );
    }

    #[test]
    fn append_extends_only_the_parent() {
        let mut rec = Recorder::new();
        let root = rec.open("root", Layer::Root, None);
        rec.close(root);
        let before = rec.duration_s(root);
        rec.append("framing", Layer::BenchServe, root, 0.25);
        assert!((rec.duration_s(root) - before - 0.25).abs() < 1e-9);
        assert!((rec.duration_s(1) - 0.25).abs() < 1e-9);
        assert!(rec.to_json().contains("\"layer\": \"bench_serve\""));
    }
}
