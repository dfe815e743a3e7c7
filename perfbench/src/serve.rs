//! Serve phase: an open loop against `xmlpruned`.
//!
//! The daemon runs as a child process on the reactor core with one
//! event loop and two workers. The load comes from this process: two
//! client threads, each owning one keep-alive connection. A step deals
//! a seeded schedule with exponential gaps round robin to the two, and
//! each request is timed from the moment it was due, so a stall also
//! delays (and is billed to) the requests queued behind it. Requests
//! split 50/50 between `/v1/prune` and `/v1/query`; queries are a Zipf
//! draw from the paper's 43, plus 5% never-seen texts that force a
//! compile and churn the daemon's 64-entry artifact cache. Every body is
//! compared with the in-process reference (`prune_str` output,
//! `run_query` frames); a mismatch counts as a failed request.
//!
//! The phase runs nominal-rate slices (pooled into one latency sample),
//! capacity slices (back-to-back requests on one connection) and, at
//! the end, a ladder of higher offered rates.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xml_projection::core::prune_str;
use xml_projection::dtd::Dtd;
use xml_projection::engine::{run_query, QueryArtifact, QueryOutput};
use xml_projection::xmark::AUCTION_DTD;
use xproj_testkit::{parse_json, urlencode, HttpClient, Json, SplitMix64};

use crate::stats::{median, quantile, Metrics};
use crate::trace::Tracer;
use crate::CHUNK;

/// Offered requests per second of the nominal slices.
const NOMINAL_RPS: f64 = 800.0;
/// Offered rates of the ladder rungs above nominal.
const LADDER: [f64; 2] = [1200.0, 1800.0];
/// A rung passes when both request types' p99 stays within this limit.
const P99_LIMIT_MS: f64 = 250.0;
/// A rung fails when in-flight requests grow by more than this share of
/// its requests (and at least `BACKLOG_MIN`) over it.
const BACKLOG_SHARE: f64 = 0.05;
const BACKLOG_MIN: usize = 8;
/// Requests per capacity slice.
const SATURATE_REQUESTS: usize = 1500;
/// Share of query draws that are never-seen texts.
const FRESH_SHARE: f64 = 0.05;
/// Daemon worker threads (`nproc` on the reference machine).
const WORKERS: usize = 2;
/// Client connections, one per client thread.
const CONNS: usize = 2;

/// A running `xmlpruned` child with the auction DTD registered.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub dtd_id: String,
}

impl Daemon {
    pub fn start(bin: &Path) -> Result<Daemon, String> {
        // One event loop: with two client connections, SO_REUSEPORT
        // hashing would put both on the same loop (and its one worker)
        // in about half the runs, a coin flip that moves every latency.
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
                "--reactor-threads",
                "1",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("xmlpruned did not report its address: {line:?}"));
        };
        let mut d = Daemon {
            child,
            stdout,
            addr,
            dtd_id: String::new(),
        };
        let resp = d.call("POST", "/v1/dtd?root=site", Some(AUCTION_DTD.as_bytes()))?;
        let json = parse_json(&resp).map_err(|e| format!("/v1/dtd: {e}"))?;
        d.dtd_id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or("/v1/dtd: no id")?
            .to_string();
        Ok(d)
    }

    fn call(&self, method: &str, target: &str, body: Option<&[u8]>) -> Result<String, String> {
        let mut c = HttpClient::connect(self.addr).map_err(|e| e.to_string())?;
        let r = c
            .request(method, target, &[], body)
            .map_err(|e| format!("{target}: {e}"))?;
        if r.status != 200 {
            return Err(format!("{target}: status {}: {}", r.status, r.body_str()));
        }
        Ok(r.body_str())
    }

    pub fn metrics(&self) -> Result<Json, String> {
        parse_json(&self.call("GET", "/metrics", None)?)
    }

    /// Graceful shutdown; the child must exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        self.call("POST", "/admin/shutdown", None)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let mut rest = String::new();
                let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("xmlpruned exited with {status}: {rest}"))
                };
            }
            if Instant::now() > deadline {
                return Err("xmlpruned did not exit after shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Prune,
    Query,
}

#[derive(Clone, Copy)]
struct Req {
    id: u32,
    /// Seconds after the step's start at which the request is due.
    due: f64,
    kind: Kind,
    doc: usize,
    query: usize,
}

/// Inputs of the serve phase: documents (small ones first) and query
/// texts (the 43, then never-seen ones appended as they are drawn).
pub struct Mix {
    docs: Vec<String>,
    small_docs: usize,
    queries: Vec<String>,
    /// Zipf weights (summing to 1) by paper order: QM01 is the most
    /// popular query, QP23 the least. The ranking is the same for every
    /// seed, so seeds vary the draws but not which queries are popular.
    weights: Vec<f64>,
    rng: SplitMix64,
    next_id: u32,
}

/// Splits `n` into counts proportional to `weights` (largest remainder).
fn apportion(weights: &[f64], n: usize) -> Vec<usize> {
    let exact: Vec<f64> = weights.iter().map(|w| w * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_remainder.iter().take(n - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    counts
}

impl Mix {
    pub fn new(docs: Vec<String>, small_docs: usize, paper: Vec<String>, seed: u64) -> Mix {
        let mut weights: Vec<f64> = (0..paper.len())
            .map(|rank| 1.0 / (rank + 1) as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);
        Mix {
            docs,
            small_docs,
            queries: paper,
            weights,
            rng: SplitMix64::new(seed),
            next_id: 0,
        }
    }

    fn fresh_query(&mut self) -> usize {
        let lit = self.rng.next_u64() % 1_000_000_000;
        self.queries.push(if self.rng.chance(0.5) {
            format!("//person[address/city = \"c{lit}\"]/name")
        } else {
            format!("/site/open_auctions/open_auction[reserve = \"{lit}\"]/interval")
        });
        self.queries.len() - 1
    }

    /// `rps × secs` requests with seeded exponential gaps, dealt round
    /// robin to the connections. The composition is stratified so every
    /// step has the same mix: each (endpoint, document size) stratum
    /// gets its exact share, split among the paper queries by their Zipf
    /// weights plus `FRESH_SHARE` never-seen texts; the seed shuffles the
    /// order and picks the document within each size.
    fn schedule(&mut self, rps: f64, secs: f64) -> Vec<Vec<Req>> {
        let n = (rps * secs).round() as usize;
        let mut slots: Vec<(Kind, bool, Option<usize>)> = Vec::with_capacity(n);
        for (kind, large, share) in [
            (Kind::Prune, false, 0.4),
            (Kind::Prune, true, 0.1),
            (Kind::Query, false, 0.4),
            (Kind::Query, true, 0.1),
        ] {
            let m = (n as f64 * share).round() as usize;
            let fresh = (m as f64 * FRESH_SHARE).round() as usize;
            slots.extend(std::iter::repeat_n((kind, large, None), fresh));
            for (q, c) in apportion(&self.weights, m - fresh).into_iter().enumerate() {
                slots.extend(std::iter::repeat_n((kind, large, Some(q)), c));
            }
        }
        for i in (1..slots.len()).rev() {
            slots.swap(i, self.rng.below(i + 1));
        }
        let gaps: Vec<f64> = (0..=slots.len())
            .map(|_| -(1.0 - self.rng.unit()).ln())
            .collect();
        let scale = secs / gaps.iter().sum::<f64>();
        let mut out: Vec<Vec<Req>> = vec![Vec::new(); CONNS];
        let mut t = 0.0;
        for (i, (kind, large, query)) in slots.into_iter().enumerate() {
            t += gaps[i] * scale;
            let doc = if large {
                self.small_docs + self.rng.below(self.docs.len() - self.small_docs)
            } else {
                self.rng.below(self.small_docs)
            };
            let query = query.unwrap_or_else(|| self.fresh_query());
            self.next_id += 1;
            out[i % CONNS].push(Req {
                id: self.next_id,
                due: t,
                kind,
                doc,
                query,
            });
        }
        out
    }
}

/// Expected bodies, keyed by (kind, doc, query), filled in before each
/// step for every pair its schedule uses (untimed).
struct References {
    dtd: Arc<Dtd>,
    arts: HashMap<usize, Arc<QueryArtifact>>,
    bodies: HashMap<(Kind, usize, usize), Vec<u8>>,
}

impl References {
    fn fill(&mut self, mix: &Mix, sched: &[Vec<Req>]) -> Result<(), String> {
        for r in sched.iter().flatten() {
            if self.bodies.contains_key(&(r.kind, r.doc, r.query)) {
                continue;
            }
            let art = match self.arts.get(&r.query) {
                Some(a) => Arc::clone(a),
                None => {
                    let a = QueryArtifact::compile(&self.dtd, &mix.queries[r.query])?;
                    self.arts.insert(r.query, Arc::clone(&a));
                    a
                }
            };
            let doc = &mix.docs[r.doc];
            let body = match r.kind {
                Kind::Prune => prune_str(doc, &self.dtd, &art.projector)
                    .map_err(|e| e.to_string())?
                    .output
                    .into_bytes(),
                Kind::Query => {
                    run_query(&art, doc.as_bytes(), QueryOutput::Frames, true, CHUNK)
                        .map_err(|e| e.to_string())?
                        .0
                }
            };
            self.bodies.insert((r.kind, r.doc, r.query), body);
        }
        Ok(())
    }
}

#[derive(Clone)]
struct Sample {
    kind: Kind,
    due: f64,
    late: f64,
    done: f64,
    ok: bool,
}

/// What one connection's schedule produced.
struct ClientRun {
    samples: Vec<Sample>,
    /// The first mismatch or error, if any.
    error: Option<String>,
    tracer: Tracer,
}

/// Runs one connection's schedule.
fn client(
    d: &Daemon,
    mix: &Mix,
    refs: &References,
    reqs: &[Req],
    t0: Instant,
    mut tracer: Tracer,
) -> Result<ClientRun, String> {
    let (addr, dtd_id) = (d.addr, &d.dtd_id);
    let mut c = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(reqs.len());
    let mut first_error = None;
    for r in reqs {
        let due = t0 + Duration::from_secs_f64(r.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let path = match r.kind {
            Kind::Prune => "/v1/prune",
            Kind::Query => "/v1/query",
        };
        let target = format!(
            "{path}?dtd={dtd_id}&query={}",
            urlencode(&mix.queries[r.query])
        );
        let resp = c.request("POST", &target, &[], Some(mix.docs[r.doc].as_bytes()));
        let done = Instant::now();
        let ok = match &resp {
            Ok(resp) => resp.status == 200 && resp.body == refs.bodies[&(r.kind, r.doc, r.query)],
            Err(_) => false,
        };
        if !ok && first_error.is_none() {
            first_error = Some(match resp {
                Ok(resp) => format!(
                    "request {} ({target}): status {}, body differs from the reference",
                    r.id, resp.status
                ),
                Err(e) => format!("request {} ({target}): {e}", r.id),
            });
            // A broken connection cannot carry the rest of the schedule.
            c = HttpClient::connect(addr).map_err(|e| e.to_string())?;
        }
        let name = match r.kind {
            Kind::Prune => "server.prune_request",
            Kind::Query => "server.query_request",
        };
        tracer.record(name, r.id, sent, done);
        out.push(Sample {
            kind: r.kind,
            due: r.due,
            late: (sent - due.min(sent)).as_secs_f64(),
            done: (done - t0).as_secs_f64(),
            ok,
        });
    }
    Ok(ClientRun {
        samples: out,
        error: first_error,
        tracer,
    })
}

/// Outcome of one serving step (a nominal slice or a ladder rung).
struct Step {
    rps: f64,
    samples: Vec<Sample>,
    errors: Vec<String>,
    backlog_start: usize,
    backlog_end: usize,
}

impl Step {
    fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.done - s.due) * 1e3)
            .collect()
    }

    fn in_flight(&self, at: f64) -> usize {
        self.samples
            .iter()
            .filter(|s| s.due <= at && s.done > at)
            .count()
    }

    fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// No failures, no backlog growth and both p99s within the limit.
    /// Backlog grows when in-flight requests at the end exceed those at
    /// the start by `BACKLOG_SHARE` of the step's requests: a stall of a
    /// few tens of ms queues a few dozen, an overload queues thousands.
    fn passes(&self) -> bool {
        let limit = BACKLOG_MIN.max((self.samples.len() as f64 * BACKLOG_SHARE) as usize);
        self.failed() == 0
            && self.backlog_end <= self.backlog_start + limit
            && [Kind::Prune, Kind::Query]
                .iter()
                .all(|&k| quantile(&self.latencies_ms(k), 0.99) <= P99_LIMIT_MS)
    }
}

/// Runs one schedule; with `saturate`, every request is due at once on a
/// single connection, which sends them back to back: the step measures
/// request round trips per second, free of the scheduling noise two
/// busy client threads add on a two-core machine.
fn run_step(
    d: &Daemon,
    mix: &mut Mix,
    refs: &mut References,
    rps: f64,
    secs: f64,
    saturate: bool,
    tracer: &mut Tracer,
) -> Result<Step, String> {
    let mut sched = mix.schedule(rps, secs);
    if saturate {
        let mut all: Vec<Req> = sched.into_iter().flatten().collect();
        all.iter_mut().for_each(|r| r.due = 0.0);
        sched = vec![all];
    }
    refs.fill(mix, &sched)?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let (mix, refs) = (&*mix, &*refs);
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sched
            .iter()
            .map(|reqs| {
                let t = tracer.fresh();
                s.spawn(move || client(d, mix, refs, reqs, t0, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut step = Step {
        rps,
        samples: Vec::new(),
        errors: Vec::new(),
        backlog_start: 0,
        backlog_end: 0,
    };
    for r in results {
        let run = r?;
        step.samples.extend(run.samples);
        step.errors.extend(run.error);
        tracer.absorb(run.tracer);
    }
    step.backlog_start = step.in_flight(secs * 0.1);
    step.backlog_end = step.in_flight(secs);
    Ok(step)
}

/// Result of the whole phase.
pub struct ServeReport {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return f64::NAN,
        }
    }
    cur.as_f64().unwrap_or(f64::NAN)
}

/// The serve phase's state across the run's slices: nominal-rate
/// slices are pooled into one sample; the ladder runs once at the end.
pub struct ServePhase<'a> {
    d: &'a Daemon,
    mix: Mix,
    refs: References,
    nominal: Vec<Step>,
    rungs: Vec<Step>,
    queue_depth_max: f64,
    last_metrics: Json,
    /// Completed requests per second of each capacity slice.
    saturated: Vec<f64>,
    /// Requests, failures and errors of the capacity slices.
    attempted: usize,
    saturated_failed: usize,
    errors: Vec<String>,
}

impl<'a> ServePhase<'a> {
    pub fn new(d: &'a Daemon, mix: Mix, dtd: &Arc<Dtd>) -> Result<Self, String> {
        let refs = References {
            dtd: Arc::clone(dtd),
            arts: HashMap::new(),
            bodies: HashMap::new(),
        };
        let last_metrics = d.metrics()?;
        Ok(ServePhase {
            d,
            mix,
            refs,
            nominal: Vec::new(),
            rungs: Vec::new(),
            queue_depth_max: 0.0,
            last_metrics,
            saturated: Vec::new(),
            attempted: 0,
            saturated_failed: 0,
            errors: Vec::new(),
        })
    }

    fn step(&mut self, rps: f64, secs: f64, tracer: &mut Tracer) -> Result<Step, String> {
        let step = run_step(
            self.d,
            &mut self.mix,
            &mut self.refs,
            rps,
            secs,
            false,
            tracer,
        )?;
        self.last_metrics = self.d.metrics()?;
        let j = &self.last_metrics;
        self.queue_depth_max = self
            .queue_depth_max
            .max(num(j, &["reactor", "executor_queue_depth"]));
        let (p, q) = (
            step.latencies_ms(Kind::Prune),
            step.latencies_ms(Kind::Query),
        );
        println!(
            "{{\"step\":{},\"rps\":{:.1},\"prune_n\":{},\"prune_p50_ms\":{:.3},\"prune_p99_ms\":{:.3},\"query_n\":{},\"query_p50_ms\":{:.3},\"query_p99_ms\":{:.3},\"late_p99_ms\":{:.3},\"in_flight_start\":{},\"in_flight_end\":{},\"failed\":{},\"pass\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{}}}",
            self.nominal.len() + self.rungs.len(), rps, p.len(), quantile(&p, 0.5), quantile(&p, 0.99), q.len(), quantile(&q, 0.5), quantile(&q, 0.99),
            quantile(&step.samples.iter().map(|s| s.late * 1e3).collect::<Vec<_>>(), 0.99),
            step.backlog_start, step.backlog_end, step.failed(), step.passes(),
            num(j, &["cache", "hits"]), num(j, &["cache", "misses"]), num(j, &["cache", "evictions"]),
        );
        Ok(step)
    }

    /// Back-to-back requests that warm the daemon (allocator, caches)
    /// before anything is timed; their bodies are still checked.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let step = run_step(
            self.d,
            &mut self.mix,
            &mut self.refs,
            SATURATE_REQUESTS as f64,
            1.0,
            true,
            &mut Tracer::new(false, Instant::now()),
        )?;
        self.saturated_failed += step.failed();
        self.attempted += step.samples.len();
        self.errors.extend(step.errors);
        Ok(())
    }

    /// One round-trip slice: `SATURATE_REQUESTS` requests of the same
    /// mix sent back to back on one connection.
    pub fn saturated_slice(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let n = SATURATE_REQUESTS as f64;
        let step = run_step(self.d, &mut self.mix, &mut self.refs, n, 1.0, true, tracer)?;
        let elapsed = step.samples.iter().map(|s| s.done).fold(0.0, f64::max);
        let rps = step.samples.len() as f64 / elapsed;
        println!(
            "{{\"saturated_rps\":{rps:.1},\"requests\":{},\"failed\":{}}}",
            step.samples.len(),
            step.failed()
        );
        self.saturated.push(rps);
        self.saturated_failed += step.failed();
        self.attempted += step.samples.len();
        self.errors.extend(step.errors);
        Ok(())
    }

    /// One slice at the nominal rate; its samples join the pooled sample.
    pub fn nominal_slice(&mut self, secs: f64, tracer: &mut Tracer) -> Result<(), String> {
        let step = self.step(NOMINAL_RPS, secs, tracer)?;
        self.nominal.push(step);
        Ok(())
    }

    /// The ladder rates above nominal, `rung_s` each, stopping at the
    /// first that fails.
    pub fn ladder(&mut self, rung_s: f64, tracer: &mut Tracer) -> Result<(), String> {
        for rps in LADDER {
            let step = self.step(rps, rung_s, tracer)?;
            let pass = step.passes();
            self.rungs.push(step);
            if !pass {
                break;
            }
        }
        Ok(())
    }

    pub fn report(&self) -> ServeReport {
        let pooled = Step {
            rps: NOMINAL_RPS,
            samples: self
                .nominal
                .iter()
                .flat_map(|s| s.samples.iter().cloned())
                .collect(),
            errors: Vec::new(),
            backlog_start: self
                .nominal
                .iter()
                .map(|s| s.backlog_start)
                .max()
                .unwrap_or(0),
            backlog_end: self
                .nominal
                .iter()
                .map(|s| s.backlog_end)
                .max()
                .unwrap_or(0),
        };
        let mut m = Metrics::default();
        for (kind, label) in [(Kind::Prune, "prune"), (Kind::Query, "query")] {
            let lat = pooled.latencies_ms(kind);
            m.set(&format!("server.{label}_p50_ms"), quantile(&lat, 0.5), "ms");
            m.set(
                &format!("server.{label}_p99_ms"),
                quantile(&lat, 0.99),
                "ms",
            );
            m.set(
                &format!("server.{label}_samples"),
                lat.len() as f64,
                "count",
            );
        }
        // The highest rate at which this and every lower rung passed.
        let mut max_rps = if self.nominal.iter().all(Step::passes) {
            NOMINAL_RPS
        } else {
            f64::NAN
        };
        for s in self.rungs.iter().take_while(|s| s.passes()) {
            max_rps = s.rps;
        }
        m.set("server.max_rps", max_rps, "1/s");
        let all = || self.nominal.iter().chain(&self.rungs);
        m.set("server.rtt_rps", median(&self.saturated), "1/s");
        let attempted: usize = all().map(|s| s.samples.len()).sum::<usize>() + self.attempted;
        let failed: usize = all().map(Step::failed).sum::<usize>() + self.saturated_failed;
        m.set("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio");
        let late: Vec<f64> = pooled.samples.iter().map(|s| s.late * 1e3).collect();
        m.set("gen.late_p99_ms", quantile(&late, 0.99), "ms");

        let j = &self.last_metrics;
        let (hits, misses) = (num(j, &["cache", "hits"]), num(j, &["cache", "misses"]));
        m.set("qc.cache_hit_ratio", hits / (hits + misses), "ratio");
        m.set(
            "qc.cache_evictions",
            num(j, &["cache", "evictions"]),
            "count",
        );
        m.set("qc.compiles", num(j, &["cache", "compiles"]), "count");
        // Server-side mean from the daemon's own latency sum: its p99 is
        // a log2 bucket bound, which reads the same on almost every run.
        for ep in ["prune", "query"] {
            let mean_us =
                num(j, &["endpoints", ep, "sum_ms"]) * 1e3 / num(j, &["endpoints", ep, "count"]);
            m.set(&format!("server.{ep}_mean_us"), mean_us, "us");
        }
        m.set(
            "server.executor_jobs",
            num(j, &["reactor", "executor_jobs"]),
            "count",
        );
        m.set(
            "server.executor_queue_depth_max",
            self.queue_depth_max,
            "count",
        );
        m.set(
            "server.admission_rejects",
            num(j, &["reactor", "admission_rejects"]),
            "count",
        );
        m.set(
            "server.rate_limited",
            num(j, &["server", "rate_limited"]),
            "count",
        );
        m.set("server.errors", num(j, &["server", "errors"]), "count");
        let polls = num(j, &["reactor", "polls"]);
        m.set("reactor.polls", polls, "count");
        m.set(
            "reactor.ready_events_per_poll",
            num(j, &["reactor", "ready_events"]) / polls,
            "ratio",
        );
        m.set("reactor.wakes", num(j, &["reactor", "wakes"]), "count");
        m.set(
            "reactor.accept_stalls",
            num(j, &["server", "accept_stalls"]),
            "count",
        );
        let errors = all()
            .flat_map(|s| s.errors.iter().cloned())
            .chain(self.errors.iter().cloned())
            .collect();
        ServeReport {
            metrics: m,
            attempted: attempted as u64,
            failed: failed as u64,
            errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_the_stratified_mix() {
        let counts = apportion(&[0.5, 0.3, 0.2], 7);
        assert_eq!(counts.iter().sum::<usize>(), 7);
        let docs = vec![String::new(); 6];
        let paper: Vec<String> = (0..43).map(|i| format!("/q{i}")).collect();
        let mut mix = Mix::new(docs, 4, paper, 1);
        let sched = mix.schedule(800.0, 2.5);
        let reqs: Vec<&Req> = sched.iter().flatten().collect();
        assert_eq!(reqs.len(), 2000);
        assert_eq!(sched[0].len(), 1000);
        let prune = reqs.iter().filter(|r| r.kind == Kind::Prune).count();
        let large = reqs.iter().filter(|r| r.doc >= 4).count();
        let fresh = reqs.iter().filter(|r| r.query >= 43).count();
        assert_eq!((prune, large, fresh), (1000, 400, 100));
        assert!(reqs.iter().all(|r| r.due < 2.5));
    }
}
