//! In-memory span recorder for the traced run.
//!
//! The traced run wraps each call into a layer's public API in a span:
//! name, start, end, parent span and scenario id. Spans stay in memory
//! while the run measures and are written out once it has ended, so
//! tracing adds one `Instant::now()` pair and a `Vec` push per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub scenario: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span stack plus the finished spans, in start order. A tracer made
/// with [`Tracer::off`] records nothing, so one pass function serves
/// both the traced pass and the untraced pass it is compared with.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(16 * 1024),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        scenario: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            scenario,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Durations (ns) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its child spans cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *by_name.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            match s.scenario {
                Some(id) => {
                    let _ = write!(out, ",\"scenario\":{id}");
                }
                None => out.push_str(",\"scenario\":null"),
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("outer", None, |tr| {
            tr.span("inner", Some(7), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = tr.durations("outer")[0];
        let inner = tr.durations("inner")[0];
        let selfs = tr.self_ns_by_name();
        assert!(inner >= 2_000_000);
        assert_eq!(selfs["outer"], outer - inner);
        assert_eq!(selfs["inner"], inner);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].scenario, Some(7));
    }
}
