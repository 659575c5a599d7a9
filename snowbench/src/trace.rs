//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions, kept in memory and written when
//! the run ends. Nothing inside the libraries is instrumented.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use snowplow_core::fleet::InferenceClient;
use snowplow_core::learning::QueryGraph;
use snowplow_core::prelude::ServeError;
use snowplow_core::ArgLoc;

use crate::json::{obj, Value};
use crate::stats;

/// One timed call. `parent` is the index of the enclosing span in the
/// trace; `trace` groups the spans of one request (a campaign seed, a
/// harvest unit, a query index).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one run plus the counts recorded at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `at`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, trace: u64, at: Instant) -> usize {
        let start_ns = self.ns(at);
        self.spans.push(Span {
            parent: self.open.last().copied(),
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize, at: Instant) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(at);
    }

    /// Records a finished span from timestamps taken earlier.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Writes the first `cap` spans as JSON lines
    /// (`{id, parent, trace, name, start_ns, end_ns}`).
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(cap) {
            let line = obj([
                ("id", Value::from(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                ),
                ("trace", Value::from(s.trace)),
                ("name", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
            ]);
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy time minus the part of each span its children cover.
    pub self_ns: u64,
    pub p50_ns: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Per-name aggregates, with self time computed over the span tree.
pub fn layer_stats(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let st = out.entry(s.name).or_default();
        st.calls += 1;
        st.busy_ns += s.dur_ns();
        st.self_ns += s.dur_ns() - covered_ns(s, children[i].iter().map(|&c| &spans[c]));
        durations.entry(s.name).or_default().push(s.dur_ns() as f64);
    }
    for (name, d) in durations {
        let d = stats::sorted(d);
        let st = out.get_mut(name).expect("every named span has stats");
        st.p50_ns = stats::quantile(&d, 0.5);
        st.tail = stats::tail_percentile(d.len()).map(|p| (p, stats::quantile(&d, p / 100.0)));
    }
    out
}

/// Length of the part of `parent`'s interval that the union of the
/// `children` intervals covers.
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, parent.start_ns);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Shared handle so a client called from inside library code can add
/// spans under the benchmark's open span.
pub type SharedTracer = Arc<Mutex<Tracer>>;

pub fn lock(t: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    t.lock()
        .expect("a tracer is only poisoned by a panic that already failed the run")
}

/// An [`InferenceClient`] that times each call to the client it wraps
/// (`pmm.model.predict`) and counts the size of every query graph
/// (`pmm.graph.*`).
pub struct TracedClient<C> {
    pub inner: C,
    pub tracer: SharedTracer,
    pub trace: u64,
}

impl<C: InferenceClient> InferenceClient for TracedClient<C> {
    fn predict(&mut self, graph: &QueryGraph) -> Result<Vec<(ArgLoc, f32)>, ServeError> {
        let id = lock(&self.tracer).begin("pmm.model.predict", self.trace, Instant::now());
        let result = self.inner.predict(graph);
        let end = Instant::now();
        let mut t = lock(&self.tracer);
        t.end(id, end);
        t.count("pmm.graph.queries", 1);
        t.count("pmm.graph.nodes", graph.node_count() as u64);
        t.count("pmm.graph.candidates", graph.candidate_count() as u64);
        if result.is_err() {
            t.count("pmm.model.predict.failed", 1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            trace: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, "step", 0, 100),
            span(Some(0), "predict", 10, 30),
            // Overlaps the first child: counted once.
            span(Some(0), "predict", 20, 40),
            // Runs past the parent's end: clipped.
            span(Some(0), "predict", 90, 120),
            span(Some(1), "forward", 12, 18),
            span(None, "step", 200, 250),
        ];
        let st = layer_stats(&spans);
        assert_eq!(st["step"].calls, 2);
        assert_eq!(st["step"].busy_ns, 150);
        assert_eq!(st["step"].self_ns, 100 - 30 - 10 + 50);
        assert_eq!(st["predict"].busy_ns, 20 + 20 + 30);
        assert_eq!(st["predict"].self_ns, 70 - 6);
        assert_eq!(st["forward"].self_ns, 6);
        assert_eq!(st["step"].p50_ns, 75.0);
        assert_eq!(st["step"].tail, None);
    }

    #[test]
    fn begin_end_nest_spans_under_the_innermost_open_one() {
        let ns = std::time::Duration::from_nanos;
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let a = t.begin("outer", 7, origin);
        let b = t.begin("inner", 7, origin + ns(5));
        t.end(b, origin + ns(8));
        let c = t.record("after", 7, Some(a), origin + ns(8), origin + ns(9));
        t.end(a, origin + ns(10));
        assert_eq!(t.spans[a].parent, None);
        assert_eq!(t.spans[b].parent, Some(a));
        assert_eq!(t.spans[c].parent, Some(a));
        assert_eq!((t.spans[b].start_ns, t.spans[b].end_ns), (5, 8));
        assert_eq!(layer_stats(&t.spans)["outer"].self_ns, 10 - 3 - 1);
    }
}
