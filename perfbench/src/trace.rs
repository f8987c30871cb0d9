//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory and are written out once, when the run ends. A
//! disabled tracer records nothing and costs one branch per call, which
//! is how the end-to-end passes run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer boundary it wraps (`cell`, `merge`, `micro`, ...).
    pub kind: &'static str,
    /// What it wrapped (an experiment slug, a cell label, a bench name).
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` gives one that records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `body` inside a span of `kind` named by `name`; the name is
    /// only built when recording.
    pub fn span<R>(
        &mut self,
        kind: &'static str,
        name: impl FnOnce() -> String,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return body(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            kind,
            name: name(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span counts per kind.
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.kind).or_insert(0) += 1;
        }
        counts
    }

    /// The spans as a JSON document, with `header` (a JSON object body)
    /// as its provenance block.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(128 + 112 * self.spans.len());
        out.push_str("{\n  \"provenance\": ");
        out.push_str(header);
        out.push_str(",\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n    {{\"id\": {i}, \"kind\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.kind,
                escape(&s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.span(
            "pass",
            || "p".into(),
            |t| t.span("cell", || "c".into(), |_| ()),
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.counts_by_kind()["cell"], 1);
        assert!(t.to_json("{}").contains("\"parent\": 0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("pass", || unreachable!(), |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
