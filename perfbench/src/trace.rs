//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A span holds a layer name, start and end (nanoseconds since the tracer's
//! epoch), the span that was open when it began, and the request it serves.
//! Spans stay in memory until the run ends; a layer's self time is its
//! spans' durations minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `synthesis.lower`.
    pub name: &'static str,
    /// Nanoseconds from the tracer epoch to the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer epoch to the return.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (spec or plan request) the call served.
    pub request: u64,
}

/// Per-layer totals derived from a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Sum of the spans' self times, in seconds.
    pub self_s: f64,
    /// Number of spans.
    pub calls: u64,
}

/// A span recorder. A disabled tracer records nothing, so the same replay
/// code runs traced and untraced and the difference is the tracing cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing from `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end without begin");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Appends another tracer's spans (e.g. one client thread's), keeping
    /// their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = out.entry(span.name).or_default();
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.self_s += own as f64 * 1e-9;
            entry.calls += 1;
        }
        out
    }

    /// Seconds covered by the direct children of spans named `parent`.
    pub fn time_under(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(|span| (span.end_ns - span.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.begin("outer", 7);
        tracer.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tracer.end();
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let times = tracer.layer_times();
        let outer = times["outer"];
        let inner = times["inner"];
        assert!(inner.self_s >= 0.019);
        assert!(outer.self_s < inner.self_s);
        assert_eq!((outer.calls, inner.calls), (1, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_merge_keeps_parents() {
        let mut off = Tracer::new(false, Instant::now());
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, epoch);
        b.begin("b", 1);
        b.span("c", 1, || ());
        b.end();
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.to_json().contains("\"name\":\"c\""));
    }
}
