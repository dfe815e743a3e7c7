//! Prune phase: one document pruned with each projector through both
//! user entry points — `Projection::prune_str` (the `xmlprune prune`
//! path, on `XmlReader`) and `engine::prune_reader` with 64 KiB chunks
//! (the `--chunked` path and the engine behind `/v1/prune`, on
//! `PushTokenizer`).

use std::hint::black_box;
use std::time::Instant;

use xml_projection::dtd::{validate, Dtd};
use xml_projection::engine::prune_reader;
use xml_projection::xmltree::events::{Event, XmlReader};
use xml_projection::xmltree::push::PushTokenizer;
use xml_projection::Projection;
use xproj_bench::ALLOCATOR;

use crate::stats::{fastest, sum_fastest, Metrics};
use crate::trace::Tracer;
use crate::CHUNK;

/// Checks that `prune_str` and `prune_reader` agree byte for byte with
/// the tree reference `core::prune_document`; returns the expected
/// output length per projection.
pub fn oracle(doc: &str, dtd: &Dtd, projections: &[Projection<'_>]) -> Result<Vec<usize>, String> {
    let tree = xml_projection::xmltree::parse(doc).map_err(|e| e.to_string())?;
    let interp = validate(&tree, dtd).map_err(|e| e.to_string())?;
    let mut lens = Vec::new();
    for (i, p) in projections.iter().enumerate() {
        let want = p.prune_document(&tree, &interp).to_xml();
        let got = p.prune_str(doc).map_err(|e| e.to_string())?.output;
        let mut chunked = Vec::new();
        prune_reader(doc.as_bytes(), &mut chunked, dtd, p.projector(), CHUNK)
            .map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!(
                "projector {i}: prune_str differs from prune_document"
            ));
        }
        if chunked != want.as_bytes() {
            return Err(format!(
                "projector {i}: prune_reader differs from prune_document"
            ));
        }
        lens.push(want.len());
    }
    Ok(lens)
}

/// Events produced by a bare `XmlReader` pass (the tokenizer under
/// `prune_str`).
fn reader_pass(doc: &str) -> Result<u64, String> {
    let mut r = XmlReader::new(doc);
    let mut n = 0u64;
    loop {
        match r.next_event().map_err(|e| e.to_string())? {
            Event::Eof => return Ok(n),
            ev => {
                black_box(&ev);
                n += 1;
            }
        }
    }
}

/// Tokens produced by a bare `PushTokenizer` pass over 64 KiB chunks,
/// through the zero-copy token API that `prune_reader` and the query
/// machine drive.
fn push_pass(doc: &[u8]) -> Result<u64, String> {
    let mut t = PushTokenizer::new();
    let mut n = 0u64;
    for chunk in doc.chunks(CHUNK) {
        t.push_bytes(chunk).map_err(|e| e.to_string())?;
        while let Some(tok) = t.peek_token().map_err(|e| e.to_string())? {
            black_box(t.token_str(&tok));
            t.advance(tok).map_err(|e| e.to_string())?;
            n += 1;
        }
    }
    Ok(n + t.finish().map_err(|e| e.to_string())?.len() as u64)
}

/// Measurements accumulated over the run's slices.
pub struct PrunePhase<'a> {
    doc: &'a str,
    dtd: &'a Dtd,
    projections: &'a [Projection<'a>],
    want_len: &'a [usize],
    /// Timings per projector, untraced and traced.
    str_s: Vec<Vec<f64>>,
    chunk_s: Vec<Vec<f64>>,
    traced_str_s: Vec<Vec<f64>>,
    traced_chunk_s: Vec<Vec<f64>>,
    reader_s: Vec<f64>,
    push_s: Vec<f64>,
    str_peak: usize,
    chunk_peak: usize,
    /// Per-round counts (identical every round).
    pruned: u64,
    fast_forwarded: u64,
    core_pruned: u64,
    rounds: usize,
}

impl PrunePhase<'_> {
    /// Prune calls so far: each round prunes with every projection through
    /// both entry points.
    pub fn attempted(&self) -> u64 {
        (self.rounds * self.projections.len() * 2) as u64
    }
}

impl<'a> PrunePhase<'a> {
    pub fn new(
        doc: &'a str,
        dtd: &'a Dtd,
        projections: &'a [Projection<'a>],
        want_len: &'a [usize],
    ) -> Self {
        PrunePhase {
            doc,
            dtd,
            projections,
            want_len,
            str_s: vec![Vec::new(); projections.len()],
            chunk_s: vec![Vec::new(); projections.len()],
            traced_str_s: vec![Vec::new(); projections.len()],
            traced_chunk_s: vec![Vec::new(); projections.len()],
            reader_s: Vec::new(),
            push_s: Vec::new(),
            str_peak: 0,
            chunk_peak: 0,
            pruned: 0,
            fast_forwarded: 0,
            core_pruned: 0,
            rounds: 0,
        }
    }

    /// Rounds over all projections until `budget_s` is spent (at least
    /// one). Every timed output is checked against the oracle's length;
    /// the oracle itself compared the bytes.
    pub fn slice(&mut self, budget_s: f64, trace: &mut Tracer) -> Result<(), String> {
        let start = Instant::now();
        loop {
            self.round(trace)?;
            if start.elapsed().as_secs_f64() >= budget_s {
                return Ok(());
            }
        }
    }

    fn round(&mut self, trace: &mut Tracer) -> Result<(), String> {
        let (doc, dtd) = (self.doc, self.dtd);
        let traced = trace.is_on() && self.rounds % 2 == 1;
        let (str_s, chunk_s) = if traced {
            (&mut self.traced_str_s, &mut self.traced_chunk_s)
        } else {
            (&mut self.str_s, &mut self.chunk_s)
        };
        (self.pruned, self.fast_forwarded, self.core_pruned) = (0, 0, 0);
        for (i, p) in self.projections.iter().enumerate() {
            let item = i as u32;
            let t0 = Instant::now();
            let (r, peak) =
                ALLOCATOR.measure(|| trace.span("core.prune_str", item, |_| p.prune_str(doc)));
            str_s[i].push(t0.elapsed().as_secs_f64());
            let r = r.map_err(|e| e.to_string())?;
            if black_box(&r.output).len() != self.want_len[i] {
                return Err(format!("projector {i}: prune_str output length changed"));
            }
            self.str_peak = self.str_peak.max(peak);
            self.core_pruned += r.elements_pruned as u64;

            let t0 = Instant::now();
            let (st, peak) = ALLOCATOR.measure(|| {
                trace.span("engine.prune_reader", item, |_| {
                    prune_reader(doc.as_bytes(), std::io::sink(), dtd, p.projector(), CHUNK)
                })
            });
            chunk_s[i].push(t0.elapsed().as_secs_f64());
            let st = st.map_err(|e| e.to_string())?;
            if st.bytes_out as usize != self.want_len[i] {
                return Err(format!("projector {i}: prune_reader output length changed"));
            }
            self.chunk_peak = self.chunk_peak.max(peak);
            self.pruned += st.counters.elements_pruned as u64;
            self.fast_forwarded += st.subtrees_fast_forwarded;
        }
        if traced {
            let t0 = Instant::now();
            let n_reader = trace.span("xmltree.reader_pass", 0, |_| reader_pass(doc))?;
            let t_reader = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let n_push = trace.span("xmltree.push_pass", 0, |_| push_pass(doc.as_bytes()))?;
            let t_push = t0.elapsed().as_secs_f64();
            if n_reader == 0 || n_push == 0 {
                return Err("tokenizer pass produced no events".to_string());
            }
            self.reader_s.push(t_reader);
            self.push_s.push(t_push);
        }
        self.rounds += 1;
        Ok(())
    }

    pub fn report(&self, traced: bool) -> Metrics {
        let bytes = self.doc.len() as f64 * self.projections.len() as f64;
        let mut m = Metrics::default();
        m.set(
            "prune_mbps",
            bytes / sum_fastest(&self.str_s) / 1e6,
            "MB/s",
        );
        m.set(
            "chunked_mbps",
            bytes / sum_fastest(&self.chunk_s) / 1e6,
            "MB/s",
        );
        m.set(
            "prune_peak_mib",
            self.str_peak as f64 / (1 << 20) as f64,
            "MiB",
        );
        m.set("chunked_peak_kib", self.chunk_peak as f64 / 1024.0, "KiB");
        if traced {
            let doc_mb = self.doc.len() as f64 / 1e6;
            m.set(
                "xmltree.reader_mbps",
                doc_mb / fastest(&self.reader_s),
                "MB/s",
            );
            m.set(
                "xmltree.push_mbps",
                doc_mb / fastest(&self.push_s),
                "MB/s",
            );
            m.set(
                "core.prune_self_s",
                sum_fastest(&self.traced_str_s)
                    - self.projections.len() as f64 * fastest(&self.reader_s),
                "s",
            );
            m.set("core.subtrees_pruned", self.core_pruned as f64, "count");
            m.set(
                "engine.fast_forward_ratio",
                self.fast_forwarded as f64 / self.pruned.max(1) as f64,
                "ratio",
            );
            m.set(
                "trace.prune_overhead_ratio",
                sum_fastest(&self.traced_chunk_s) / sum_fastest(&self.chunk_s),
                "ratio",
            );
        }
        m
    }
}
