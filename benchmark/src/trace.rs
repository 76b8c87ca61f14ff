//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (the product
//! crates are not instrumented by this change), kept in memory, and
//! written as JSON lines when the run ends. A disabled tracer records
//! nothing, so end-to-end metrics always come from untraced rounds.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder; cheap no-op while disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next `begin`.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off and stamps later spans with `round`.
    pub fn set_round(&mut self, enabled: bool, round: u32) {
        self.enabled = enabled;
        self.round = round;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// part its children cover, summed over spans of the same name, in
    /// first-seen order. Children of one span never overlap here (the
    /// benchmark thread opens them one after the other).
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, t, c)) => {
                    *t += own;
                    *c += 1;
                }
                None => out.push((s.name, own, 1)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.span("a", |t| t.span("b", |_| ()));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_round(true, 3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].round, 3);
        let st = t.self_times();
        assert_eq!(st[0].0, "outer");
        assert_eq!(st[1].2, 2);
        let outer = &t.spans()[0];
        let total = (outer.end_ns - outer.start_ns) as f64 / 1e9;
        assert!((st[0].1 + st[1].1 - total).abs() < 1e-9);
    }
}
