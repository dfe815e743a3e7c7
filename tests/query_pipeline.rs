//! Differential fuzzer for the compiled query pipeline.
//!
//! The soundness contract of the one-pass `QueryMachine` is the same
//! as the paper's Theorem 4.6, pushed one stage further: not only must
//! pruning preserve answers, the machine that prunes *and answers* in
//! a single pass over the raw token stream must produce byte-for-byte
//! the answer the reference evaluator computes over the **unpruned**
//! in-memory tree.
//!
//! Each case draws a random *(DTD, document)* pair plus a random XPath
//! and a random XQuery over its tag alphabet, then drives the machine
//! through **every 2-chunk split** of the document — the byte stream
//! cut at each position into `doc[..i]` + `doc[i..]` — in both
//! fast-forward modes, asserting the answer never changes. Splitting at
//! every boundary exercises every resumable-state path in the
//! tokenizer/NFA (token spanning a feed boundary, guard pending at a
//! boundary, capture spanning a boundary, …).
//!
//! Runs `FUZZ_CASES` (default 60; the per-case cost is quadratic in
//! document size) deterministic cases. On failure it panics with a
//! `TESTKIT_SEED=0x…` replay line; `TESTKIT_FUZZ_CASES=n` scales the
//! run. Documents longer than `MAX_EXHAUSTIVE_BYTES` fall back to a
//! strided split sample so soak runs stay bounded.
//!
//! A second, deterministic leg runs the paper's 43 XMark/XPathMark
//! queries over a small XMark document through `run_query` at several
//! chunk sizes, so the benchmark workload itself (nested captures,
//! unselective `//node()`, fallback plans) is held to the same contract.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use xml_projection::dtd::generate::{
    generate, random_dtd, GenConfig, RandomDtdConfig, RANDOM_DTD_TAGS,
};
use xml_projection::dtd::Dtd;
use xml_projection::engine::{run_query, QueryMachine, QueryOutput};
use xml_projection::xmark::{
    auction_dtd, generate_auction, xmark_queries, xpathmark_queries, XMarkConfig,
};
use xml_projection::xquery::{evaluate_query, parse_xquery};
use xproj_qc::QueryArtifact;
use xproj_testkit::{case_seed, SplitMix64};

const FUZZ_CASES: u64 = 60;

/// Above this size the split sweep samples every `len/512`-th position
/// instead of all of them (keeps a case quadratic only on small docs).
const MAX_EXHAUSTIVE_BYTES: usize = 1024;

const AXES: &[&str] = &["child::", "descendant::", "descendant-or-self::", "self::"];

/// A random downward XPath over the random-DTD tag alphabet. Kept to
/// the streamable fragment's surface (downward axes, final-step
/// existential predicates) most of the time so the streaming plan gets
/// real coverage, with enough stray shapes to also exercise fallback.
fn random_query(rng: &mut SplitMix64) -> String {
    let nsteps = rng.range_incl(1, 3);
    let mut parts = Vec::new();
    for i in 0..nsteps {
        let axis = *rng.pick(AXES);
        let test = match rng.below(6) {
            0 => "node()".to_string(),
            1 => "text()".to_string(),
            2 => "*".to_string(),
            _ => rng.pick(RANDOM_DTD_TAGS).to_string(),
        };
        let pred = if i + 1 == nsteps {
            match rng.below(6) {
                0 => format!("[child::{}]", rng.pick(RANDOM_DTD_TAGS)),
                1 => format!("[{}]", rng.pick(RANDOM_DTD_TAGS)),
                2 => "[1]".to_string(),
                _ => String::new(),
            }
        } else {
            String::new()
        };
        parts.push(format!("{axis}{test}{pred}"));
    }
    format!("/{}", parts.join("/"))
}

/// A random XQuery (FLWR over the same alphabet) — always a fallback
/// plan, so this leg exercises prune-parse-evaluate under splits.
fn random_xquery(rng: &mut SplitMix64) -> String {
    let t1 = *rng.pick(RANDOM_DTD_TAGS);
    let t2 = *rng.pick(RANDOM_DTD_TAGS);
    let t3 = *rng.pick(RANDOM_DTD_TAGS);
    match rng.below(4) {
        0 => format!(
            "for $x in /descendant-or-self::node()/child::{t1} \
             return <hit>{{$x/child::{t2}}}</hit>"
        ),
        1 => format!(
            "for $x in /descendant::{t1} where $x/child::{t2} \
             return <r>{{$x/child::{t3}/text()}}</r>"
        ),
        2 => format!("for $x in /child::{t1}/descendant-or-self::{t2} return <n>{{$x}}</n>"),
        _ => format!(
            "for $x in /descendant::{t1}, $y in $x/child::{t2} return <p>{{$y/text()}}</p>"
        ),
    }
}

/// Runs the artifact over `xml` split into `doc[..i]` + `doc[i..]`.
fn answer_split(
    artifact: &Arc<QueryArtifact>,
    xml: &[u8],
    split: usize,
    fast_forward: bool,
) -> String {
    let mut machine = QueryMachine::new(Arc::clone(artifact), QueryOutput::Answer);
    machine.set_fast_forward(fast_forward);
    let mut out = Vec::new();
    machine.feed(&xml[..split]).unwrap_or_else(|e| {
        panic!("feed of doc[..{split}] (ff={fast_forward}) failed: {e}")
    });
    machine.take_output(&mut out);
    machine.feed(&xml[split..]).unwrap_or_else(|e| {
        panic!("feed of doc[{split}..] (ff={fast_forward}) failed: {e}")
    });
    machine.take_output(&mut out);
    machine
        .finish()
        .unwrap_or_else(|e| panic!("finish (split {split}, ff={fast_forward}) failed: {e}"));
    machine.take_output(&mut out);
    String::from_utf8(out).expect("answers are UTF-8")
}

/// Checks one query against the reference on the unpruned tree, at
/// every (or a strided sample of) 2-chunk split, in both ff modes.
fn check_query(q: &str, dtd: &Arc<Dtd>, doc: &xml_projection::xmltree::Document, xml: &str) {
    let parsed = parse_xquery(q).unwrap_or_else(|e| panic!("query {q:?} failed to parse: {e}"));
    // The contract under test is agreement with the *unpruned* tree.
    let want = match evaluate_query(doc, &parsed) {
        Ok(w) => w,
        // A handful of random shapes the reference evaluator rejects
        // (e.g. positional predicates on unordered axes) carry no
        // comparison value; the machine maps them to BadQuery anyway.
        Err(_) => return,
    };
    let artifact = QueryArtifact::compile(dtd, q)
        .unwrap_or_else(|e| panic!("query {q:?} failed to compile: {e}"));

    let bytes = xml.as_bytes();
    let stride = if bytes.len() <= MAX_EXHAUSTIVE_BYTES {
        1
    } else {
        bytes.len() / 512
    };
    for fast_forward in [true, false] {
        let mut split = 0;
        while split <= bytes.len() {
            let got = answer_split(&artifact, bytes, split, fast_forward);
            assert_eq!(
                got, want,
                "one-pass answer diverged from the unpruned reference\n\
                 query: {q}\nsplit: {split}/{} ff: {fast_forward}\ndoc: {xml}",
                bytes.len()
            );
            split += stride;
        }
    }
}

/// One fuzz case; panics (with context) on any divergence.
fn run_case(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let dtd = Arc::new(random_dtd(&mut rng, &RandomDtdConfig::default()));
    let doc_seed = rng.next_u64();
    let cfg = GenConfig {
        fanout: 1.4,
        max_depth: 6,
        text_words: 2,
    };
    let doc = generate(&dtd, doc_seed, &cfg);
    let xml = doc.to_xml();

    let q = random_query(&mut rng);
    check_query(&q, &dtd, &doc, &xml);
    let xq = random_xquery(&mut rng);
    check_query(&xq, &dtd, &doc, &xml);
}

#[test]
fn fuzz_query_machine_matches_unpruned_reference() {
    let name = "fuzz_query_machine_matches_unpruned_reference";
    if let Some(seed) = xproj_testkit::runner::parse_seed_env() {
        run_case(seed);
        return;
    }
    let cases = std::env::var("TESTKIT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(FUZZ_CASES);
    for i in 0..cases {
        let seed = case_seed(name, i as u32);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_case(seed))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "query-pipeline fuzzer failed at case {i}/{cases}:\n{msg}\n\
                 [testkit] replay: TESTKIT_SEED={seed:#x} cargo test {name}"
            );
        }
    }
}

#[test]
fn xmark_workload_matches_unpruned_reference() {
    let dtd = Arc::new(auction_dtd());
    let doc = generate_auction(&dtd, &XMarkConfig::at_scale(0.02));
    let xml = doc.to_xml();
    let queries: Vec<_> = xmark_queries().into_iter().chain(xpathmark_queries()).collect();
    assert_eq!(queries.len(), 43);
    for q in &queries {
        let want = evaluate_query(&doc, &parse_xquery(q.text).unwrap())
            .unwrap_or_else(|e| panic!("{}: reference evaluation failed: {e}", q.id));
        let artifact = QueryArtifact::compile(&dtd, q.text)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", q.id));
        for fast_forward in [true, false] {
            for chunk in [7, 4096, xml.len()] {
                let (out, _) =
                    run_query(&artifact, xml.as_bytes(), QueryOutput::Answer, fast_forward, chunk)
                        .unwrap_or_else(|e| {
                            panic!("{} (chunk {chunk}, ff={fast_forward}) failed: {e}", q.id)
                        });
                assert!(
                    out == want.as_bytes(),
                    "{} ({}) diverged from the unpruned reference at chunk {chunk}, ff={fast_forward}",
                    q.id,
                    q.text
                );
            }
        }
    }
}
