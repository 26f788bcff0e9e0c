//! The benchmark's own tracing: in-memory spans around calls into each
//! layer's public functions, written out as JSON when the run ends.
//!
//! A span is `(name, start, end, parent, id)`. `parent` is the span that
//! caused it; `id` is the request or iteration the span belongs to, so the
//! spans of one request share an identifier. A layer's per-layer number is
//! its *self time*: the span's duration minus the durations of its direct
//! children.
//!
//! The spans are recorded from outside the program. Where a layer calls the
//! next one internally (`parse_client_frame` parses JSON; `train()` learns
//! the hierarchy inside the hierarchical fit), the harness re-executes the
//! inner call on the same input right after the outer call returns and
//! records it as a child ([`Tracer::under`]). Such a child lies after its
//! parent in wall time; parentage is the call structure, not containment.

use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Request or iteration identifier shared by the spans of one unit.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread. When disabled every method
/// still runs the measured closure but records nothing, which is how the
/// tracing overhead is measured: the same pass runs once with and once
/// without recording.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    /// The request/iteration id stamped on new spans.
    current_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            current_id: 0,
        }
    }

    pub fn set_id(&mut self, id: u64) {
        self.current_id = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, parented to the innermost open
    /// span. Nested `span` calls made by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id: self.current_id,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Runs `f` as a span that is a child of the most recent span named
    /// `parent` — the re-executed inner call described in the module docs.
    pub fn under<R>(
        &mut self,
        parent: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self
            .spans
            .iter()
            .rposition(|s| s.name == parent)
            .unwrap_or_else(|| panic!("under(): no span named '{parent}' was recorded"));
        self.stack.push(parent);
        let result = self.span(name, f);
        self.stack.pop();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus its direct children's
    /// durations (saturating: a re-executed child can run longer than the
    /// call it mirrors when the scheduler interferes).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Self times grouped by span name, in first-appearance order.
    pub fn self_times_by_name(&self) -> Vec<(&'static str, Vec<u64>)> {
        let mut groups: Vec<(&'static str, Vec<u64>)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            match groups.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, values)) => values.push(self_ns),
                None => groups.push((span.name, vec![self_ns])),
            }
        }
        groups
    }

    /// Total (not self) durations of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"id\": {}}}",
                span.name, span.start_ns, span.end_ns, span.id
            ));
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Times one closure with the wall clock (the untraced counterpart of a
/// span, used for end-to-end numbers).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer whose spans have hand-set times, so self-time
    /// arithmetic is checked exactly.
    fn with_spans(spans: Vec<Span>) -> Tracer {
        let mut tracer = Tracer::new(true);
        tracer.spans = spans;
        tracer
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] has siblings a [10,40] and b [50,70]; a has child c
        // [15,25]. Grandchildren are subtracted from their parent only.
        let tracer = with_spans(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ]);
        assert_eq!(tracer.self_times_ns(), vec![50, 20, 10, 20]);
        assert_eq!(
            tracer.self_times_by_name(),
            vec![
                ("root", vec![50]),
                ("a", vec![20]),
                ("c", vec![10]),
                ("b", vec![20])
            ]
        );
    }

    #[test]
    fn self_time_saturates_when_a_reexecuted_child_outlasts_its_parent() {
        let tracer = with_spans(vec![span("p", 0, 10, None), span("k", 10, 30, Some(0))]);
        assert_eq!(tracer.self_times_ns(), vec![0, 20]);
    }

    #[test]
    fn span_and_child_record_the_call_structure() {
        let mut tracer = Tracer::new(true);
        tracer.set_id(7);
        tracer.span("request", |t| {
            t.span("parse", |_| ());
            t.under("parse", "json", |_| ());
            t.under("parse", "utf8", |_| ());
            t.span("encode", |_| ());
        });
        let names: Vec<_> = tracer.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("request", None),
                ("parse", Some(0)),
                ("json", Some(1)),
                ("utf8", Some(1)),
                ("encode", Some(0))
            ]
        );
        assert!(tracer.spans().iter().all(|s| s.id == 7));
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let json = tracer.to_json();
        assert!(json.contains("\"name\": \"json\"") && json.contains("\"parent\": 1"));
        assert!(serde_json::parse(&json).is_ok());
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("x", |t| t.under("nowhere", "y", |_| 41) + 1);
        assert_eq!(value, 42);
        assert!(tracer.spans().is_empty());
    }
}
