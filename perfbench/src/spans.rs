//! In-memory spans for the traced replay: name, start, end, parent and
//! request id, kept until the run ends and then written out. A span's self
//! time is its duration minus the part of its interval that its children
//! cover; a request span's self time is its `unattributed` remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identifies a span inside one [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first dot. Request
    /// spans (`request.*`) have no layer; their self time is unattributed.
    pub fn layer(&self) -> &str {
        match self.name.split_once('.') {
            Some(("request", _)) => "unattributed",
            Some((layer, _)) => layer,
            None => &self.name,
        }
    }
}

/// A span recorder shared by the replay thread and the pool worker it
/// hands jobs to. When disabled, recording is a no-op (the untraced arm of
/// the trace-overhead measurement).
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Arc<Mutex<Vec<Span>>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Arc::new(Mutex::new(Vec::new()))),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span whose start and end were taken elsewhere (a pool
    /// worker's queue wait).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let Some(spans) = &self.spans else {
            return 0;
        };
        let mut spans = spans.lock().expect("span store lock poisoned");
        spans.push(Span {
            name: name.to_string(),
            start: self.offset(start),
            end: self.offset(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&self, name: &str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn end(&self, id: SpanId) {
        if let Some(spans) = &self.spans {
            let end = self.offset(Instant::now());
            spans.lock().expect("span store lock poisoned")[id].end = end;
        }
    }

    /// Names a span after the fact, once the call it wraps has shown what
    /// it did (a memo lookup that had to build the engine).
    pub fn rename(&self, id: SpanId, name: &str) {
        if let Some(spans) = &self.spans {
            spans.lock().expect("span store lock poisoned")[id].name = name.to_string();
        }
    }

    /// Runs `f` inside a span; returns its result and its wall time, which
    /// is measured whether or not spans are recorded.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, parent, request);
        let started = Instant::now();
        let out = f(id);
        let took = started.elapsed();
        self.end(id);
        (out, took)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span store lock poisoned").clone())
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own. Never negative, whether children nest,
/// touch or overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end);
                let end = end.clamp(start, span.end);
                covered += end - start;
                reach = reach.max(end);
            }
            span.duration() - covered
        })
        .collect()
}

/// Walks up to the request span a span belongs to.
fn root_of(spans: &[Span], mut id: SpanId) -> SpanId {
    while let Some(parent) = spans[id].parent {
        id = parent;
    }
    id
}

/// Per request type (`request.read`, `request.write`, ...): total request
/// time, and the self time of every span name below it, with the request
/// spans' own self time reported as `unattributed`. The parts sum to the
/// total exactly.
pub struct Breakdown {
    pub total: BTreeMap<String, u64>,
    pub parts: BTreeMap<String, BTreeMap<String, u64>>,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut total: BTreeMap<String, u64> = BTreeMap::new();
    let mut parts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let root = &spans[root_of(spans, id)];
        if span.parent.is_none() {
            *total.entry(span.name.clone()).or_default() += span.duration();
        }
        let part = if span.parent.is_none() {
            "unattributed".to_string()
        } else {
            span.name.clone()
        };
        *parts
            .entry(root.name.clone())
            .or_default()
            .entry(part)
            .or_default() += selfs[id];
    }
    Breakdown { total, parts }
}

/// Self time per layer, summed over the requests whose request span is
/// named in `roots`.
pub fn layer_self_times(spans: &[Span], roots: &[&str]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (id, own) in self_times(spans).into_iter().enumerate() {
        if roots.contains(&spans[root_of(spans, id)].name.as_str()) {
            *out.entry(spans[id].layer().to_string()).or_default() += own;
        }
    }
    out
}

/// Spans as tab-separated lines: id, parent, request, name, start, end (ns).
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}",
            span.request, span.name, span.start, span.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("request.read", 0, 100, None),
            // Adjacent children: [10, 30) and [30, 50).
            span("serve.parse", 10, 30, Some(0)),
            span("core.enumerate", 30, 50, Some(0)),
            // A child with its own nested child.
            span("core.decide", 60, 90, Some(0)),
            span("exec.eval_tuples", 65, 85, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 10, 20]);
    }

    #[test]
    fn overlapping_or_overhanging_children_never_make_self_time_negative() {
        let spans = vec![
            span("request.read", 10, 50, None),
            span("a.x", 0, 30, Some(0)),
            span("b.y", 20, 40, Some(0)),
            span("c.z", 45, 70, Some(0)),
        ];
        // Covered: [10, 40) and [45, 50) → 35 of 40.
        assert_eq!(self_times(&spans)[0], 5);
        let spans = vec![
            span("request.read", 0, 10, None),
            span("a.x", 0, 10, Some(0)),
            span("b.y", 0, 10, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn parts_plus_unattributed_equal_the_request_span() {
        let spans = vec![
            span("request.read", 0, 100, None),
            span("serve.parse", 0, 10, Some(0)),
            span("core.decide", 20, 90, Some(0)),
            span("exec.eval_tuples", 30, 60, Some(2)),
            span("request.write", 200, 260, None),
            span("data.mutate", 200, 220, Some(4)),
            span("request.read", 300, 350, None),
            span("serve.parse", 300, 305, Some(6)),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.total["request.read"], 150);
        assert_eq!(b.total["request.write"], 60);
        for (kind, parts) in &b.parts {
            assert_eq!(parts.values().sum::<u64>(), b.total[kind], "{kind}");
        }
        assert_eq!(b.parts["request.read"]["unattributed"], 20 + 45);
        assert_eq!(b.parts["request.read"]["core.decide"], 40);
        assert_eq!(b.parts["request.write"]["unattributed"], 40);
        let layers = layer_self_times(&spans, &["request.read", "request.write"]);
        assert_eq!(layers["unattributed"], 65 + 40);
        assert_eq!(layers["exec"], 30);
        let reads = layer_self_times(&spans, &["request.read"]);
        assert_eq!(reads["unattributed"], 65);
        assert!(!reads.contains_key("data"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let (id, _) = tracer.span("request.read", None, 1, |id| id);
        assert_eq!(id, 0);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        tracer.span("request.read", None, 1, |root| {
            let (_, took) = tracer.span("serve.parse", Some(root), 1, |_| ());
            assert!(took < Duration::from_secs(1));
            tracer.rename(root, "request.view");
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "request.view");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
