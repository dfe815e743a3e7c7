//! Query phase: each query answered by `engine::run_query` (the
//! `xmlprune query --dtd` path) over one in-memory document.
//!
//! Untraced passes time `run_query` itself. Traced passes make the same
//! calls the engine makes, one layer at a time, each inside a span: the
//! streaming plan as `QueryMachine::feed`/`finish`, the fallback plan as
//! chunked prune to a buffer → `xmltree` parse → `xquery` evaluation →
//! serialization. Every answer, traced or not, is compared with the
//! reference: `xquery::evaluate_query` over the unpruned tree.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use xml_projection::core::prune_str;
use xml_projection::dtd::Dtd;
use xml_projection::engine::{run_query, ChunkedPruner, QueryArtifact, QueryMachine, QueryOutput};
use xml_projection::qc::Plan;
use xml_projection::xmltree::{parse_with_options, Document, ParseOptions};
use xml_projection::xquery::{evaluate_query, evaluate_query_items, parse_xquery, serialize_items};
use xproj_bench::ALLOCATOR;

use crate::stats::{fastest, geomean, median, sum_fastest, Metrics};
use crate::trace::Tracer;
use crate::CHUNK;

/// One compiled query of the phase.
pub struct Query {
    pub id: String,
    pub text: String,
    pub art: Arc<QueryArtifact>,
}

/// Compiles every query once (the timed part of set-up).
pub fn compile(dtd: &Arc<Dtd>, texts: &[(String, String)]) -> Result<Vec<Query>, String> {
    texts
        .iter()
        .map(|(id, text)| {
            let art = QueryArtifact::compile(dtd, text).map_err(|e| format!("{id}: {e}"))?;
            Ok(Query {
                id: id.clone(),
                text: text.clone(),
                art,
            })
        })
        .collect()
}

/// What the oracle establishes once, before any timing.
pub struct Expected {
    pub answers: Vec<Vec<u8>>,
    /// Bytes the query's projector keeps, per query.
    pub pruned_len: Vec<usize>,
}

/// Checks every query's `run_query` answer against the reference
/// evaluator over the unpruned tree.
pub fn oracle(doc: &str, dtd: &Dtd, queries: &[Query]) -> Result<Expected, String> {
    let tree = xml_projection::xmltree::parse(doc).map_err(|e| e.to_string())?;
    let mut exp = Expected {
        answers: Vec::new(),
        pruned_len: Vec::new(),
    };
    for q in queries {
        let ast = parse_xquery(&q.text).map_err(|e| format!("{}: {e}", q.id))?;
        let want = evaluate_query(&tree, &ast).map_err(|e| format!("{}: {e}", q.id))?;
        let (got, _) = run_query(&q.art, doc.as_bytes(), QueryOutput::Answer, true, CHUNK)
            .map_err(|e| format!("{}: {e}", q.id))?;
        if got != want.as_bytes() {
            return Err(format!(
                "{}: run_query answer differs from the reference",
                q.id
            ));
        }
        let pruned = prune_str(doc, dtd, &q.art.projector).map_err(|e| e.to_string())?;
        exp.answers.push(want.into_bytes());
        exp.pruned_len.push(pruned.output.len());
    }
    Ok(exp)
}

/// Per-query stage split of one traced execution, in seconds.
#[derive(Default, Clone, Copy)]
struct Stages {
    prune: f64,
    parse: f64,
    eval: f64,
    serialize: f64,
    feed: f64,
    finish: f64,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.prune + self.parse + self.eval + self.serialize + self.feed + self.finish
    }
}

/// The query's answer through the layers' own entry points, each call
/// in a span, so the trace splits `run_query`'s time by layer.
fn traced_query(
    t: &mut Tracer,
    i: u32,
    art: &Arc<QueryArtifact>,
    doc: &[u8],
) -> Result<(Vec<u8>, usize), String> {
    t.span("bench.query", i, |t| match &art.plan {
        Plan::Streaming(_) => {
            let mut m = QueryMachine::new(Arc::clone(art), QueryOutput::Answer);
            let mut out = Vec::new();
            for chunk in doc.chunks(CHUNK) {
                t.span("engine.stream_feed", i, |_| {
                    m.feed(chunk).map_err(|e| e.to_string())?;
                    m.take_output(&mut out);
                    Ok::<_, String>(())
                })?;
            }
            let stats = t.span("engine.stream_finish", i, |_| {
                let s = m.finish().map_err(|e| e.to_string())?;
                m.take_output(&mut out);
                Ok::<_, String>(s)
            })?;
            Ok((out, stats.peak_answer_bytes))
        }
        Plan::Fallback => {
            let pruned = t.span("engine.prune_to_buffer", i, |_| {
                let mut p = ChunkedPruner::new(Arc::clone(&art.dtd), &art.projector, Vec::new());
                for chunk in doc.chunks(CHUNK) {
                    p.feed(chunk).map_err(|e| e.to_string())?;
                }
                p.finish_with_sink()
                    .map(|(_, buf)| buf)
                    .map_err(|e| e.to_string())
            })?;
            let text = String::from_utf8(pruned).map_err(|e| e.to_string())?;
            let tree = t.span("xmltree.parse", i, |_| {
                if text.trim().is_empty() {
                    return Ok(Document::new());
                }
                let opts = ParseOptions {
                    ignore_whitespace_text: true,
                    interner: Some(art.dtd.tags.clone()),
                };
                parse_with_options(&text, opts).map_err(|e| e.to_string())
            })?;
            let items = t.span("xquery.eval", i, |_| {
                evaluate_query_items(&tree, &art.ast).map_err(|e| e.to_string())
            })?;
            let out = t.span("xquery.serialize", i, |_| {
                serialize_items(&tree, &items).into_bytes()
            });
            let answer_peak = text.len() + out.len();
            Ok((out, answer_peak))
        }
    })
}

pub struct QueryReport {
    pub metrics: Metrics,
    pub rows: Vec<String>,
}

/// Measurements accumulated over the run's slices.
pub struct QueryPhase<'a> {
    label: &'a str,
    doc: &'a [u8],
    queries: &'a [Query],
    exp: &'a Expected,
    wall: Vec<Vec<f64>>,
    peak: Vec<usize>,
    pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    stages: Vec<Vec<Stages>>,
    peak_answer: usize,
    peak_resident: usize,
    passes: usize,
}

impl QueryPhase<'_> {
    /// Query executions so far, traced or not.
    pub fn attempted(&self) -> u64 {
        (self.passes * self.queries.len()) as u64
    }
}

impl<'a> QueryPhase<'a> {
    pub fn new(label: &'a str, doc: &'a str, queries: &'a [Query], exp: &'a Expected) -> Self {
        let n = queries.len();
        QueryPhase {
            label,
            doc: doc.as_bytes(),
            queries,
            exp,
            wall: vec![Vec::new(); n],
            peak: vec![0; n],
            pass_s: Vec::new(),
            traced_pass_s: Vec::new(),
            stages: vec![Vec::new(); n],
            peak_answer: 0,
            peak_resident: 0,
            passes: 0,
        }
    }

    /// Runs whole passes over all queries until `budget_s` is spent (at
    /// least one). With tracing on, traced passes alternate with
    /// untraced ones; the per-layer metrics come from the traced ones.
    pub fn slice(&mut self, budget_s: f64, trace: &mut Tracer) -> Result<(), String> {
        let start = Instant::now();
        loop {
            self.pass(trace)?;
            if start.elapsed().as_secs_f64() >= budget_s {
                return Ok(());
            }
        }
    }

    fn pass(&mut self, trace: &mut Tracer) -> Result<(), String> {
        let traced = trace.is_on() && self.passes % 2 == 1;
        let t_pass = Instant::now();
        for (i, q) in self.queries.iter().enumerate() {
            if traced {
                let mark = trace.spans().len();
                let (out, answer_peak) = traced_query(trace, i as u32, &q.art, self.doc)?;
                if out != self.exp.answers[i] {
                    return Err(format!(
                        "{}: traced answer differs from the reference",
                        q.id
                    ));
                }
                self.peak_answer = self.peak_answer.max(answer_peak);
                let mut s = Stages::default();
                for sp in &trace.spans()[mark..] {
                    let d = sp.dur_ns() as f64 / 1e9;
                    match sp.name {
                        "engine.prune_to_buffer" => s.prune += d,
                        "xmltree.parse" => s.parse += d,
                        "xquery.eval" => s.eval += d,
                        "xquery.serialize" => s.serialize += d,
                        "engine.stream_feed" => s.feed += d,
                        "engine.stream_finish" => s.finish += d,
                        _ => {}
                    }
                }
                self.stages[i].push(s);
            } else {
                let t0 = Instant::now();
                let (res, p) = ALLOCATOR
                    .measure(|| run_query(&q.art, self.doc, QueryOutput::Answer, true, CHUNK));
                let dt = t0.elapsed().as_secs_f64();
                let (out, stats) = res.map_err(|e| format!("{}: {e}", q.id))?;
                if black_box(&out) != &self.exp.answers[i] {
                    return Err(format!(
                        "{}: run_query answer differs from the reference",
                        q.id
                    ));
                }
                self.wall[i].push(dt);
                self.peak[i] = self.peak[i].max(p);
                self.peak_resident = self.peak_resident.max(stats.peak_resident_bytes);
                self.peak_answer = self.peak_answer.max(stats.peak_answer_bytes);
            }
        }
        let dt = t_pass.elapsed().as_secs_f64();
        if traced {
            self.traced_pass_s.push(dt)
        } else {
            self.pass_s.push(dt)
        }
        self.passes += 1;
        Ok(())
    }

    pub fn report(&self, traced: bool) -> QueryReport {
        let (queries, exp, n, bytes) = (self.queries, self.exp, self.queries.len(), self.doc.len());
        let best: Vec<f64> = self.wall.iter().map(|w| fastest(w)).collect();
        let mut m = Metrics::default();
        m.set("pass_s", sum_fastest(&self.wall), "s");
        m.set("geomean_ms", geomean(&best) * 1e3, "ms");
        m.set(
            "peak_mib",
            *self.peak.iter().max().unwrap_or(&0) as f64 / (1 << 20) as f64,
            "MiB",
        );

        let streaming = queries
            .iter()
            .filter(|q| matches!(q.art.plan, Plan::Streaming(_)))
            .count();
        let split: Vec<Stages> = self.stages.iter().map(|s| stage_fastest(s)).collect();
        let mut rows = Vec::new();
        let mut coverage = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let mut row = format!(
                "{{\"row\":\"{}\",\"query\":\"{}\",\"plan\":\"{}\",\"compile_ms\":{:.3},\"retention\":{:.4},\"best_ms\":{:.3},\"median_ms\":{:.3},\"peak_kib\":{:.1}",
                self.label,
                q.id,
                q.art.plan.label(),
                q.art.compile_micros as f64 / 1e3,
                exp.pruned_len[i] as f64 / bytes as f64,
                best[i] * 1e3,
                median(&self.wall[i]) * 1e3,
                self.peak[i] as f64 / 1024.0,
            );
            if traced {
                let s = split[i];
                let cov = s.sum() / best[i];
                coverage.push(cov);
                row.push_str(&format!(
                    ",\"prune_ms\":{:.3},\"parse_ms\":{:.3},\"eval_ms\":{:.3},\"serialize_ms\":{:.3},\"feed_ms\":{:.3},\"finish_ms\":{:.3},\"coverage\":{:.3}",
                    s.prune * 1e3, s.parse * 1e3, s.eval * 1e3, s.serialize * 1e3, s.feed * 1e3, s.finish * 1e3, cov
                ));
            }
            row.push('}');
            rows.push(row);
        }
        m.set("qc.streaming_plans", streaming as f64, "count");
        if traced {
            let total = |f: fn(&Stages) -> f64| split.iter().map(f).sum::<f64>();
            m.set("xmltree.parse_s", total(|s| s.parse), "s");
            m.set("engine.prune_to_buffer_s", total(|s| s.prune), "s");
            m.set("engine.stream_feed_s", total(|s| s.feed), "s");
            m.set("engine.stream_finish_s", total(|s| s.finish), "s");
            m.set("xquery.eval_s", total(|s| s.eval), "s");
            m.set("xquery.serialize_s", total(|s| s.serialize), "s");
            let reparsed: usize = (0..n)
                .filter(|&i| matches!(queries[i].art.plan, Plan::Fallback))
                .map(|i| exp.pruned_len[i])
                .sum();
            m.set(
                "engine.reparse_ratio",
                reparsed as f64 / (n * bytes) as f64,
                "ratio",
            );
            m.set(
                "engine.peak_answer_kib",
                self.peak_answer as f64 / 1024.0,
                "KiB",
            );
            m.set(
                "engine.peak_resident_kib",
                self.peak_resident as f64 / 1024.0,
                "KiB",
            );
            m.set(
                "trace.query_overhead_ratio",
                fastest(&self.traced_pass_s) / fastest(&self.pass_s),
                "ratio",
            );
            m.set("trace.coverage", median(&coverage), "ratio");
        }
        QueryReport { metrics: m, rows }
    }
}

/// Each stage's fastest time over the traced executions.
fn stage_fastest(xs: &[Stages]) -> Stages {
    let f = |g: fn(&Stages) -> f64| fastest(&xs.iter().map(g).collect::<Vec<_>>());
    if xs.is_empty() {
        return Stages::default();
    }
    Stages {
        prune: f(|s| s.prune),
        parse: f(|s| s.parse),
        eval: f(|s| s.eval),
        serialize: f(|s| s.serialize),
        feed: f(|s| s.feed),
        finish: f(|s| s.finish),
    }
}
