//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each library layer.  Each span carries a name, its start and
//! end (nanoseconds since the recorder was created), the span that caused it
//! and the operation it belongs to; nothing is written until the run ends.
//! A disabled recorder only runs the wrapped closure, so the untraced run
//! pays no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.open_resume`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The operation (setup repetition or timed operation) the span
    /// belongs to; spans of one operation share it.
    pub op: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; see the module documentation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between operations (the traced run
    /// alternates to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Starts a new operation: later spans carry a fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap: the recorder is single
    /// threaded and strictly nested).
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(span, children)| (span.end_ns - span.start_ns - children) as f64 * 1e-9)
            .collect()
    }

    /// Per operation, the summed duration of the spans named `name`; one
    /// entry per operation that has such a span, in operation order.
    pub fn per_op_seconds(&self, name: &str) -> Vec<f64> {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_op.entry(span.op).or_default() += span.seconds();
        }
        per_op.into_values().collect()
    }

    /// One row per span name: count, total seconds and self seconds, sorted
    /// by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut rows: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_seconds()) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.seconds();
            row.2 += own;
        }
        rows.into_iter()
            .map(|(name, (count, total, own))| (name, count, total, own))
            .collect()
    }

    /// The spans as JSON lines (`name`, `id`, `parent`, `op`, `start_ns`,
    /// `end_ns`), tagged with `run`.
    pub fn to_json_lines(&self, run: &str) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":\"{run}\",\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                span.op, span.name, span.start_ns, span.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut tracer = Tracer::new(true);
        tracer.next_op();
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = tracer.self_seconds();
        assert!((own[0] + spans[1].seconds() - spans[0].seconds()).abs() < 1e-9);
        assert!(own[0] >= 0.002 && own[0] < spans[0].seconds());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
