//! Spans around the calls into each layer, kept in memory and written out
//! when the run ends.
//!
//! The spans are recorded by the benchmark, from outside the program: one
//! per public call, `{id, parent, frame, name, start_ns, end_ns}`. Spans of
//! one frame share the frame number. A span's self time is its duration
//! minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The parent of a span that has none.
pub const ROOT: SpanId = SpanId(u32::MAX);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub frame: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Added to every frame number: keeps the feeds of a multi-feed replay
    /// apart.
    pub frame_base: u64,
}

impl Tracer {
    pub fn new(expected_spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(expected_spans),
            frame_base: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, parent: SpanId, frame: u64) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            frame: self.frame_base + frame,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.now();
    }

    /// Runs `call` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        frame: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, frame);
        let out = call();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The spans of one name, summed up.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub durations_ns: Vec<u64>,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn count(&self) -> usize {
        self.durations_ns.len()
    }

    /// Mean duration in microseconds over `per` units (frames, epochs, ...).
    pub fn mean_us(&self, per: usize) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / per as f64
        }
    }
}

/// Totals and self times by span name. `spans` is a tracer's list or a
/// stretch of it that holds whole trees.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let first = spans.first().map_or(0, |span| span.id.0);
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children_ns[(span.parent.0 - first) as usize] += span.nanos();
        }
    }
    let mut stats: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns) {
        let entry = stats.entry(span.name).or_default();
        entry.durations_ns.push(span.nanos());
        entry.total_ns += span.nanos();
        entry.self_ns += span.nanos().saturating_sub(children);
    }
    stats
}

/// Writes one JSON object per span and line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Res<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = if span.parent == ROOT {
            "null".to_string()
        } else {
            span.parent.0.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"frame\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id.0, parent, span.frame, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(4);
        let frame = tracer.start("frame", ROOT, 7);
        tracer.span("a", frame, 7, || std::hint::black_box(1 + 1));
        tracer.span("b", frame, 7, || std::hint::black_box(2 + 2));
        tracer.end(frame);
        let stats = by_name(tracer.spans());
        let children = stats["a"].total_ns + stats["b"].total_ns;
        assert_eq!(stats["frame"].self_ns, stats["frame"].total_ns - children);
        assert_eq!(stats["a"].count(), 1);
        for span in tracer.spans() {
            assert!(span.end_ns >= span.start_ns);
            assert_eq!(span.frame, 7);
        }
    }
}
