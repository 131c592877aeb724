//! Spans recorded by the traced run, around the benchmark's own calls
//! into each layer. Kept in memory, written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. The layer is the part of `name` before the
/// first `.`, e.g. `wire` for `wire.encode`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record an interval that has already been timed; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        query: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            query,
        };
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, query: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, query, parent, now, now)
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the time its children cover (children of one span never overlap:
    /// each parent's children run on the parent's thread).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON array of objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::with_capacity(96 * spans.len() + 4);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"query\": {}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.query
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// Run `f` inside a span when tracing, or plainly when not. `f` gets
/// the span id to parent its children on.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    query: u64,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.open(name, query, parent);
            let r = f(Some(id));
            t.close(id);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let s = Instant::now();
        let ms = |m: u64| s + Duration::from_millis(m);
        let root = t.record("client.query", 0, None, ms(0), ms(10));
        t.record("wire.encode", 0, Some(root), ms(1), ms(3));
        t.record("net.roundtrip", 0, Some(root), ms(3), ms(9));
        let by = t.self_ms_by_layer();
        assert!((by["client"] - 2.0).abs() < 1e-9);
        assert!((by["wire"] - 2.0).abs() < 1e-9);
        assert!((by["net"] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn untraced_span_runs_the_closure() {
        assert!(span(None, "x.y", 0, None, |p| p.is_none()));
        let t = Tracer::new();
        span(Some(&t), "x.y", 3, None, |p| assert_eq!(p, Some(0)));
        assert_eq!(t.spans()[0].query, 3);
    }
}
