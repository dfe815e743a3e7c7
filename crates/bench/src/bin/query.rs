//! One-pass compiled query vs prune-then-eval, on XMark documents.
//!
//! The compiled pipeline's pitch: the [`QueryMachine`](xproj_engine::QueryMachine) answers a query
//! *while* pruning — one pass over the raw token stream, capturing only
//! answer nodes — where the classical pipeline prunes to a buffer,
//! re-parses the pruned document into a tree, and evaluates over it.
//! The second parse plus tree construction is pure overhead that grows
//! with retention, so the one-pass win should widen as the projection
//! keeps more of the document.
//!
//! Both sides share the same compiled [`QueryArtifact`] (same
//! projector, same AST), the same chunked feed and the same
//! fast-forward setting, so the measured gap is exactly the pipeline
//! shape: stream-and-answer vs prune → parse → evaluate. Each cell
//! asserts the two answers are byte-identical before timing anything.
//!
//! Besides the usual JSON result lines on stdout, the run writes a
//! consolidated `BENCH_query.json` (path override: `XPROJ_BENCH_OUT`)
//! that CI parses; the CI gate checks the geometric-mean speedup over
//! rows with retention ≤ 30%, and separately that the unselective
//! `/site//node()` row (retention 100%, every node an answer, matches
//! nested to full document depth) is no slower in one pass.
//!
//! ```sh
//! cargo run --release -p xproj-bench --bin query
//! # smoke mode:
//! XPROJ_BENCH_SAMPLES=3 XPROJ_BENCH_WARMUP=1 XPROJ_BENCH_SCALES=0.5 \
//!     cargo run --release -p xproj-bench --bin query
//! ```
//!
//! Knobs: `XPROJ_BENCH_SCALES` (comma-separated XMark scale factors,
//! default `0.5,2`), `XPROJ_BENCH_SAMPLES`, `XPROJ_BENCH_WARMUP`.

use std::sync::Arc;
use std::time::Duration;
use xproj_bench::Timer;
use xproj_engine::{run_query, ChunkedPruner, QueryArtifact, QueryOutput};
use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};
use xproj_xmltree::{parse_with_options, Document, ParseOptions};
use xproj_xquery::{evaluate_query_items, serialize_item};

/// Engine chunk size for both sides — the server default.
const CHUNK: usize = 64 * 1024;

/// Queries inside the retention band the speedup gate measures (≤ 30%
/// kept): the projections keep enough of the document that the
/// classical pipeline's second parse is a visible cost, without
/// degenerating into the keep-everything regime where pruning itself is
/// moot. Then two outside it: `//listitem`, and `/site//node()`, the
/// keep-everything worst case for the machine's capture bookkeeping
/// (gated on its own at ratio ≥ 1.0).
const QUERIES: &[&str] = &[
    "/site/people/person/name",
    "//bidder",
    "//keyword",
    "//emph",
    "//listitem",
    "/site//node()",
];

fn mbps(bytes: usize, t: Duration) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e6
}

/// One measured (scale, query) cell.
struct Run {
    scale: f64,
    query: String,
    plan: &'static str,
    doc_bytes: usize,
    retention: f64,
    matches: u64,
    one_pass_mbps: f64,
    prune_eval_mbps: f64,
    ratio: f64,
}

/// The classical pipeline: chunked prune into a buffer, parse the
/// pruned document, evaluate the query AST over the tree, serialize.
/// Returns the answer bytes (the same sequence-spacing rule the
/// machine's `Answer` mode applies) and the pruned length.
fn prune_then_eval(xml: &str, artifact: &Arc<QueryArtifact>) -> (Vec<u8>, usize) {
    let mut pruned: Vec<u8> = Vec::with_capacity(xml.len() / 2);
    let mut pruner = ChunkedPruner::new(&*artifact.dtd, &artifact.projector, &mut pruned);
    pruner.set_fast_forward(true);
    for chunk in xml.as_bytes().chunks(CHUNK) {
        pruner.feed(chunk).unwrap();
    }
    pruner.finish().unwrap();
    let pruned_len = pruned.len();
    let text = String::from_utf8(pruned).unwrap();
    let doc = if text.trim().is_empty() {
        Document::new()
    } else {
        parse_with_options(
            &text,
            ParseOptions {
                ignore_whitespace_text: true,
                interner: Some(artifact.dtd.tags.clone()),
            },
        )
        .unwrap()
    };
    let items = evaluate_query_items(&doc, &artifact.ast).unwrap();
    let mut out = Vec::new();
    let mut prev_atom = false;
    for it in &items {
        let v = serialize_item(&doc, it);
        if prev_atom && it.is_atom() {
            out.push(b' ');
        }
        out.extend_from_slice(v.as_bytes());
        prev_atom = it.is_atom();
    }
    (out, pruned_len)
}

fn main() {
    let timer = Timer::from_env();
    let scales: Vec<f64> = std::env::var("XPROJ_BENCH_SCALES")
        .unwrap_or_else(|_| "0.5,2".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path =
        std::env::var("XPROJ_BENCH_OUT").unwrap_or_else(|_| "BENCH_query.json".to_string());

    let dtd = Arc::new(auction_dtd());
    let mut runs: Vec<Run> = Vec::new();

    for &scale in &scales {
        let xml = generate_auction(&dtd, &XMarkConfig::at_scale(scale)).to_xml();
        eprintln!(
            "# query bench: xmark scale {scale}, {:.2} MiB",
            xml.len() as f64 / (1 << 20) as f64
        );

        for &query in QUERIES {
            let artifact = QueryArtifact::compile(&dtd, query).unwrap();

            // Correctness first: the one-pass answer must match the
            // classical pipeline byte for byte before we time either.
            let (reference, pruned_len) = prune_then_eval(&xml, &artifact);
            let retention = pruned_len as f64 / xml.len() as f64;
            let (one_pass, stats) =
                run_query(&artifact, xml.as_bytes(), QueryOutput::Answer, true, CHUNK).unwrap();
            assert_eq!(
                one_pass, reference,
                "one-pass answer diverged from prune-then-eval on {query} at scale {scale}"
            );

            let tag = format!("s{scale}_{}", query.replace(['/', ':'], "_"));
            let t_one = timer.bench_bytes("query", &format!("one_pass_{tag}"), xml.len(), || {
                run_query(&artifact, xml.as_bytes(), QueryOutput::Answer, true, CHUNK)
                    .unwrap()
                    .0
                    .len()
            });
            let t_two = timer.bench_bytes("query", &format!("prune_eval_{tag}"), xml.len(), || {
                prune_then_eval(&xml, &artifact).0.len()
            });

            let one_pass_mbps = mbps(xml.len(), t_one);
            let prune_eval_mbps = mbps(xml.len(), t_two);
            runs.push(Run {
                scale,
                query: query.to_string(),
                plan: stats.plan,
                doc_bytes: xml.len(),
                retention,
                matches: stats.matches,
                one_pass_mbps,
                prune_eval_mbps,
                ratio: one_pass_mbps / prune_eval_mbps,
            });
        }
    }

    // The consolidated document CI parses and gates on.
    let mut json =
        String::from("{\n  \"bench\": \"query\",\n  \"unit\": \"MB/s of input\",\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scale\": {}, \"query\": \"{}\", \"plan\": \"{}\", \"doc_bytes\": {}, \
             \"retention\": {:.4}, \"matches\": {}, \"one_pass_mbps\": {:.1}, \
             \"prune_eval_mbps\": {:.1}, \"ratio\": {:.3}}}{}\n",
            r.scale,
            r.query,
            r.plan,
            r.doc_bytes,
            r.retention,
            r.matches,
            r.one_pass_mbps,
            r.prune_eval_mbps,
            r.ratio,
            if i + 1 == runs.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap();
    eprintln!("# wrote {out_path}");

    // Human-readable recap on stderr, plus the gate's own number.
    let gated: Vec<&Run> = runs.iter().filter(|r| r.retention <= 0.30).collect();
    for r in &runs {
        eprintln!(
            "# scale {} {:<46} retention {:>5.1}%  one-pass {:>7.1}  prune+eval {:>7.1} MB/s  ratio {:>5.2}x",
            r.scale,
            r.query,
            r.retention * 100.0,
            r.one_pass_mbps,
            r.prune_eval_mbps,
            r.ratio,
        );
    }
    if !gated.is_empty() {
        let geomean = (gated.iter().map(|r| r.ratio.ln()).sum::<f64>() / gated.len() as f64).exp();
        eprintln!(
            "# geomean one-pass speedup at retention <= 30%: {geomean:.2}x over {} rows",
            gated.len()
        );
    }
}
