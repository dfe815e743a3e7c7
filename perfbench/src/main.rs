//! The repository's benchmark: two workloads, each measuring what a
//! user of `xmlprune` and `xmlpruned` sees, and (with `--trace 1`) the
//! same work split by layer. See `README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! perfbench --workload paper43|prune_large --seed N --seconds S
//!           --trace 0|1 --server-bin PATH
//! ```
//!
//! Every run answers the paper's queries, prunes with three projectors
//! and serves an open-loop mix; the workload decides the inputs and how
//! the run's seconds are shared among the three. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced).

mod prune;
mod query;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use xml_projection::dtd::Dtd;
use xml_projection::xmark::{
    auction_dtd, generate_auction, xmark_queries, xpathmark_queries, XMarkConfig,
};
use xml_projection::Projection;
use xproj_testkit::mix;

use stats::{median, Metrics};
use trace::Tracer;

/// Engine chunk size: the server's and the CLI's default.
pub const CHUNK: usize = 64 * 1024;

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// The three projectors of the prune phase, keeping ≈0.7%, ≈28% and
/// ≈9.5% of an XMark document.
const PRUNE_QUERIES: [&str; 3] = [
    "/site/people/person/name",
    "//keyword",
    "/site/regions/europe/item/description",
];

/// Serving documents: this many at scale 0.02 (one chunk), then
/// `LARGE_DOCS` at scale 0.2 (several chunks); 80% of requests draw a
/// small one.
const SMALL_DOCS: usize = 4;
const LARGE_DOCS: usize = 2;

#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    /// XMark scale of the document the query and prune phases use.
    scale: f64,
    /// Answer all 43 paper queries (else the first prune path and QM05).
    paper_queries: bool,
    /// Shares of `--seconds` for the query phase, the prune phase and the
    /// serving nominal rate; each is spread over `CYCLES` slices.
    query_share: f64,
    prune_share: f64,
    nominal_share: f64,
    /// Each ladder rung's share of `--seconds`.
    rung_share: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper43",
        scale: 1.0,
        paper_queries: true,
        query_share: 0.6,
        prune_share: 0.1,
        nominal_share: 0.15,
        rung_share: 0.05,
    },
    Workload {
        name: "prune_large",
        scale: 8.0,
        paper_queries: false,
        query_share: 0.2,
        prune_share: 0.5,
        nominal_share: 0.15,
        rung_share: 0.05,
    },
];

/// The phases take turns in this many slices, so a slow spell of the
/// machine lands on every metric instead of on one phase.
const CYCLES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server_bin) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == v)
                        .ok_or_else(|| format!("unknown workload '{v}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: '{v}' is not a number"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("--seconds: '{v}' is not a number"))?,
                )
            }
            "--trace" => trace = Some(v == "1"),
            "--server-bin" => server_bin = Some(PathBuf::from(v)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
    })
}

/// Everything set-up makes: the inputs (from the seed) and the compiled
/// program state the measured phases use.
struct Setup {
    doc: String,
    queries: Vec<query::Query>,
    serve_docs: Vec<String>,
    daemon: serve::Daemon,
}

fn xmark(dtd: &Dtd, scale: f64, seed: u64) -> String {
    generate_auction(dtd, &XMarkConfig { scale, seed }).to_xml()
}

/// The paper's 43 queries as (id, text), QM01 first and QP23 last.
fn paper_queries() -> Vec<(String, String)> {
    xmark_queries()
        .into_iter()
        .chain(xpathmark_queries())
        .map(|q| (q.id.to_string(), q.text.to_string()))
        .collect()
}

fn query_texts(w: &Workload) -> Vec<(String, String)> {
    if w.paper_queries {
        paper_queries()
    } else {
        // One streaming plan with a small answer (the first prune path)
        // and one fallback plan, QM05, a selective count: both spend
        // their time tokenizing the large document. Queries with large
        // answers are left to paper43; here their answer buffers' growth
        // steps would decide `peak_mib`.
        let mut texts = vec![("P1".to_string(), PRUNE_QUERIES[0].to_string())];
        texts.extend(paper_queries().into_iter().filter(|(id, _)| id == "QM05"));
        texts
    }
}

fn setup(a: &Args, dtd: &Arc<Dtd>) -> Result<Setup, String> {
    let w = &a.workload;
    let doc = xmark(dtd, w.scale, mix(a.seed ^ 0x5eed));
    let queries = query::compile(dtd, &query_texts(w))?;
    let serve_docs = (0..SMALL_DOCS + LARGE_DOCS)
        .map(|k| {
            xmark(
                dtd,
                if k < SMALL_DOCS { 0.02 } else { 0.2 },
                mix(a.seed ^ (0x100 + k as u64)),
            )
        })
        .collect();
    let daemon = serve::Daemon::start(&a.server_bin)?;
    Ok(Setup {
        doc,
        queries,
        serve_docs,
        daemon,
    })
}

fn projections(dtd: &Dtd) -> Result<Vec<Projection<'_>>, String> {
    PRUNE_QUERIES
        .iter()
        .map(|q| Projection::for_queries(dtd, [q]).map_err(|e| e.to_string()))
        .collect()
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn run(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let dtd = Arc::new(auction_dtd());
    let mut setup_s = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            prev.daemon.stop()?;
        }
        let t0 = Instant::now();
        let s = setup(a, &dtd)?;
        let prj = projections(&dtd)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(prj);
        last = Some(s);
    }
    let s = last.expect("set-up ran");
    let prj = projections(&dtd)?;

    // Oracles before timing.
    let expected = query::oracle(&s.doc, &dtd, &s.queries)?;
    let prune_len = prune::oracle(&s.doc, &dtd, &prj)?;

    let origin = Instant::now();
    let mut tracer = Tracer::new(a.trace, origin);
    let paper = paper_queries().into_iter().map(|(_, text)| text).collect();
    let serve_mix = serve::Mix::new(s.serve_docs, SMALL_DOCS, paper, mix(a.seed ^ 0x5e7e));
    let mut qp = query::QueryPhase::new(w.name, &s.doc, &s.queries, &expected);
    let mut pp = prune::PrunePhase::new(&s.doc, &dtd, &prj, &prune_len);
    let mut sp = serve::ServePhase::new(&s.daemon, serve_mix, &dtd)?;
    let cycle = a.seconds / CYCLES as f64;
    sp.warm_up()?;
    let mut calib = Vec::new();
    for _ in 0..CYCLES {
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(stats::calibration_pass(s.doc.as_bytes()));
            calib.push(s.doc.len() as f64 / t0.elapsed().as_secs_f64() / 1e6);
        }
        qp.slice(w.query_share * cycle, &mut tracer)?;
        pp.slice(w.prune_share * cycle, &mut tracer)?;
        sp.nominal_slice(w.nominal_share * cycle, &mut tracer)?;
        sp.saturated_slice(&mut tracer)?;
    }
    sp.ladder(w.rung_share * a.seconds, &mut tracer)?;
    let (q, p, sv) = (qp.report(a.trace), pp.report(a.trace), sp.report());
    drop(sp);
    s.daemon.stop()?;
    for row in &q.rows {
        println!("{row}");
    }
    for e in &sv.errors {
        eprintln!("perfbench: {e}");
    }

    let mut all = Metrics::default();
    all.set("setup_s", median(&setup_s), "s");
    all.set("host.calib_mbps", median(&calib), "MB/s");
    println!("{{\"row\":\"host\",\"calib_mbps\":{:.1}}}", median(&calib));
    for m in [&q.metrics, &p, &sv.metrics] {
        all.merge(m);
    }
    let mut out = Metrics::default();
    if a.trace {
        let compile: Vec<f64> = s
            .queries
            .iter()
            .map(|q| q.art.compile_micros as f64 / 1e3)
            .collect();
        all.set("qc.compile_ms", median(&compile), "ms");
        let mut infer = Vec::new();
        for (i, text) in query_texts(&w).iter().enumerate() {
            let t0 = Instant::now();
            tracer.span("core.infer", i as u32, |_| {
                Projection::for_queries(&dtd, [&text.1])
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })?;
            infer.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        all.set("core.infer_ms", median(&infer), "ms");
        let self_s = tracer.layer_self_s();
        for layer in ["xmltree", "core", "engine", "xquery", "server"] {
            all.set(
                &format!("{layer}.self_s"),
                self_s.get(layer).copied().unwrap_or(0.0),
                "s",
            );
        }
        let overhead = all
            .get("trace.query_overhead_ratio")
            .unwrap_or(f64::NAN)
            .max(all.get("trace.prune_overhead_ratio").unwrap_or(f64::NAN));
        all.set("trace.overhead_ratio", overhead, "ratio");
        all.set("trace.spans", tracer.spans().len() as f64, "count");
        let path = PathBuf::from(format!("perfbench/out/trace-{}-{}.jsonl", w.name, a.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for name in PER_LAYER {
            out.set(name, all.get(name).unwrap_or(f64::NAN), all.unit(name));
        }
    } else {
        for name in END_TO_END {
            out.set(name, all.get(name).unwrap_or(f64::NAN), all.unit(name));
        }
    }
    let attempted = qp.attempted() + pp.attempted() + sv.attempted;
    Ok(Outcome {
        metrics: out,
        attempted,
        failed: sv.failed,
    })
}

/// The end-to-end metrics, reported with tracing off.
const END_TO_END: &[&str] = &[
    "setup_s",
    "pass_s",
    "geomean_ms",
    "peak_mib",
    "prune_mbps",
    "prune_peak_mib",
    "chunked_mbps",
    "chunked_peak_kib",
    "ok_ratio",
];

/// The per-layer metrics, reported by the traced run.
const PER_LAYER: &[&str] = &[
    "xmltree.reader_mbps",
    "xmltree.push_mbps",
    "xmltree.parse_s",
    "xmltree.self_s",
    "core.prune_self_s",
    "core.infer_ms",
    "core.subtrees_pruned",
    "core.self_s",
    "qc.compile_ms",
    "qc.streaming_plans",
    "qc.cache_hit_ratio",
    "qc.cache_evictions",
    "qc.compiles",
    "engine.prune_to_buffer_s",
    "engine.reparse_ratio",
    "engine.stream_feed_s",
    "engine.stream_finish_s",
    "engine.fast_forward_ratio",
    "engine.peak_resident_kib",
    "engine.peak_answer_kib",
    "engine.self_s",
    "xquery.eval_s",
    "xquery.serialize_s",
    "xquery.self_s",
    "server.prune_p50_ms",
    "server.prune_p99_ms",
    "server.query_p50_ms",
    "server.query_p99_ms",
    "server.prune_samples",
    "server.query_samples",
    "server.max_rps",
    "server.rtt_rps",
    "server.prune_mean_us",
    "server.query_mean_us",
    "server.executor_jobs",
    "server.executor_queue_depth_max",
    "server.admission_rejects",
    "server.rate_limited",
    "server.errors",
    "server.self_s",
    "reactor.polls",
    "reactor.ready_events_per_poll",
    "reactor.wakes",
    "reactor.accept_stalls",
    "gen.late_p99_ms",
    "trace.overhead_ratio",
    "trace.query_overhead_ratio",
    "trace.prune_overhead_ratio",
    "trace.coverage",
    "trace.spans",
    "host.calib_mbps",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(o) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.failed == 0,
                o.attempted,
                o.failed,
                o.metrics.to_json()
            );
            if o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
