//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`layer.stage`), a start and an end on one monotonic
//! clock, the span that encloses it, and the tick it belongs to.  Spans
//! stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub tick: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { t0: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.  Returns what `f` returns.
    pub fn span<R>(&mut self, name: &'static str, tick: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, tick });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration minus the time its child spans cover.  Children of
    /// one span never overlap (the re-drive is serial), so the covered
    /// time is the sum of their durations.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// One JSON object per line: id, parent, name, tick, start and end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"tick\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tick, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new();
        sp.span("a.outer", 1, |sp| {
            sp.span("b.inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let by = sp.self_time_by_layer();
        let outer = sp.all()[0].dur_ns();
        let inner = sp.all()[1].dur_ns();
        assert_eq!(by["a"] + by["b"], outer);
        assert_eq!(by["b"], inner);
        assert_eq!(sp.all()[1].parent, 0);
    }
}
