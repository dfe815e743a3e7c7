//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name `layer.operation`, a start and end (ns since the
//! tracer's origin), the span that caused it, and the id of the query or
//! request it belongs to. Spans stay in memory and are written out as
//! JSON lines when the run ends. A disabled tracer records nothing and
//! costs one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Query or request id the span belongs to.
    pub item: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty tracer with this one's origin and on/off state, for
    /// another thread; merge it back with [`Tracer::absorb`].
    pub fn fresh(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed span (a request timed on its own clock).
    pub fn record(&mut self, name: &'static str, item: u32, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            let (start_ns, end_ns) = (ns(start), ns(end));
            self.spans.push(Span {
                name,
                item,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
            });
        }
    }

    /// Moves another tracer's spans (e.g. a client thread's) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer, in seconds.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((i, s), self_ns) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.item, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("engine.outer", 1, |t| {
            t.span("xmltree.inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        let selfs = t.self_ns();
        assert_eq!(selfs[0] + s[1].dur_ns(), s[0].dur_ns());
        assert!(t.layer_self_s()["xmltree"] >= 0.002);
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("core.x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());
        let mut other = t.fresh();
        other.span("server.request", 9, |_| ());
        t.absorb(other);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, None);
    }
}
