//! One-pass compiled query execution: prune **and answer** in the same
//! streaming pass.
//!
//! The classic pipeline is two passes over the data: stream-prune into a
//! buffer, then parse the pruned document and run the evaluator. A
//! [`QueryMachine`] collapses that for the path-shaped fragment the
//! compiler (`xproj-qc`) lowers to [`Plan::Streaming`]: the compiled
//! [`PathProgram`](xproj_qc::PathProgram) is executed as an NFA directly over the raw token
//! stream, candidate subtrees are serialized once into a shared capture
//! record as their bytes flow past, and everything outside π — or
//! where no NFA state is live — is fast-forwarded exactly like the
//! pruner. Engine-resident state stays O(depth + chunk); only the
//! answer itself (the pending captures' record and the not-yet-drained
//! output frames) scales with the result.
//!
//! Out-of-fragment artifacts carry [`Plan::Fallback`]: the same feed
//! loop prunes into an in-memory buffer (sound by the paper's Thm 4.6 —
//! pruning preserves answers), and `finish` parses the pruned tree and
//! runs the reference evaluator. Both plans produce **byte-identical**
//! output to evaluating the query on the unpruned document; the
//! differential fuzzer in `tests/query_pipeline.rs` holds them to that.
//!
//! ## The NFA
//!
//! State `k` at a node means "the first `k` steps matched a root-to-here
//! path ending at this node"; a node is an answer when state
//! `steps.len()` is reached. Each open element carries two `u64` masks:
//! *anchored* states (`a`, matched ending exactly here) and *searching*
//! states (`s`, a descendant-axis step begun at some ancestor that may
//! still fire anywhere below). Transitions run per start-tag in O(set
//! bits); a `self`/`descendant-or-self` closure loop handles
//! self-matching steps. An optional existential guard (the one-predicate
//! `//a[b]` form) runs as a second NFA instance per open candidate,
//! scoped to its subtree.
//!
//! Output is x-ndjson *match frames* (`{"match":i,"atom":…,"value":…}`
//! per result item, then one `{"done":true,…}` summary) or, for the CLI,
//! the plain concatenated answer — identical to the reference
//! serializer's sequence form.

use std::sync::Arc;

use crate::chunked::{ChunkedPruner, EngineError};
use xproj_core::{ErrorCode, ProjectorTable, StreamPruneError, Verdict};
use xproj_dtd::{Dtd, NameId};
use xproj_qc::{Plan, QueryArtifact, StepAxis, StepInstr, StepTest};
use xproj_xmltree::document::{escape_attr, escape_text};
use xproj_xmltree::events::{decode_entities, validate_entities, ParseError};
use xproj_xmltree::push::{
    parse_end_tag_name, split_start_tag, PushEvent, PushTokenizer, RawAttrs, RawKind,
};
use xproj_xmltree::{parse_with_options, Document, ParseOptions};
use xproj_xquery::{evaluate_query_items, serialize_item};

/// Errors from a [`QueryMachine`].
#[derive(Debug)]
pub enum QueryError {
    /// The streaming pass failed (malformed XML, undeclared element,
    /// I/O) — same failure surface as the pruning engine.
    Engine(EngineError),
    /// The reference evaluator rejected the query against this document
    /// (fallback plan only; e.g. a type error in a comparison).
    Eval(String),
}

impl QueryError {
    /// Stable machine-readable code (CLI `--stats`, HTTP 4xx bodies).
    pub fn code(&self) -> ErrorCode {
        match self {
            QueryError::Engine(e) => e.code(),
            QueryError::Eval(_) => ErrorCode::BadQuery,
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Engine(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "query evaluation: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<EngineError> for QueryError {
    fn from(e: EngineError) -> Self {
        QueryError::Engine(e)
    }
}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Engine(EngineError::Xml(e))
    }
}

impl From<StreamPruneError> for QueryError {
    fn from(e: StreamPruneError) -> Self {
        QueryError::Engine(EngineError::Prune(e))
    }
}

/// What a [`QueryMachine`] writes to its output buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutput {
    /// x-ndjson match frames plus a final summary frame (`/v1/query`).
    Frames,
    /// The bare serialized result sequence, exactly as
    /// [`xproj_xquery::serialize_items`] would produce it (CLI).
    Answer,
}

/// End-of-document statistics for one query execution.
#[derive(Debug, Clone, Copy)]
pub struct QueryStats {
    /// Which plan ran: `"streaming"` or `"fallback"`.
    pub plan: &'static str,
    /// Result items emitted.
    pub matches: u64,
    /// Parse events processed (undercounts inside fast-forwarded
    /// subtrees — pruned or, for the streaming plan, dead).
    pub events: u64,
    /// Input bytes fed.
    pub bytes_in: u64,
    /// Output bytes produced (frames or answer).
    pub bytes_out: u64,
    /// Pruned subtrees consumed by raw delimiter scan.
    pub subtrees_fast_forwarded: u64,
    /// Maximum element nesting depth seen.
    pub max_depth: usize,
    /// Peak engine-resident bytes (the tokenizer's buffered tail) — the
    /// O(depth + chunk) side of the ledger.
    pub peak_resident_bytes: usize,
    /// Peak answer-resident bytes (capture record + undrained output; for
    /// the fallback plan, the buffered pruned document). Scales with the
    /// answer, not the input.
    pub peak_answer_bytes: usize,
}

impl QueryStats {
    /// One JSON object with every field (CLI `--stats` output).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"plan\":\"{}\",\"matches\":{},\"events\":{},\"bytes_in\":{},\"bytes_out\":{},\
             \"fast_forwarded\":{},\"max_depth\":{},\"peak_resident_bytes\":{},\
             \"peak_answer_bytes\":{}}}",
            self.plan,
            self.matches,
            self.events,
            self.bytes_in,
            self.bytes_out,
            self.subtrees_fast_forwarded,
            self.max_depth,
            self.peak_resident_bytes,
            self.peak_answer_bytes,
        )
    }
}

// ---------------------------------------------------------------------
// NFA primitives (shared by the main program and guard instances)
// ---------------------------------------------------------------------

/// Computes the (anchored, searching) state sets for a child node from
/// its parent's sets. `matches` is the node-kind test (element with a
/// given name, text, …); `mask` keeps the accept state out of the
/// transition loops.
#[inline]
fn child_transition(
    steps: &[StepInstr],
    mask: u64,
    pa: u64,
    ps: u64,
    matches: impl Fn(StepTest) -> bool,
) -> (u64, u64) {
    // Searching states: any live state whose next step is a
    // descendant-flavored axis keeps searching in every child.
    let mut s = 0u64;
    let mut live = (pa | ps) & mask;
    while live != 0 {
        let k = live.trailing_zeros() as usize;
        live &= live - 1;
        if matches!(
            steps[k].axis,
            StepAxis::Descendant | StepAxis::DescendantOrSelf
        ) {
            s |= 1 << k;
        }
    }
    let mut a = 0u64;
    // Child-axis steps fire from the parent's anchored states only.
    let mut anchored = pa & mask;
    while anchored != 0 {
        let k = anchored.trailing_zeros() as usize;
        anchored &= anchored - 1;
        if steps[k].axis == StepAxis::Child && matches(steps[k].test) {
            a |= 1 << (k + 1);
        }
    }
    // Searching steps fire at any matching node below their origin.
    let mut searching = s;
    while searching != 0 {
        let k = searching.trailing_zeros() as usize;
        searching &= searching - 1;
        if matches(steps[k].test) {
            a |= 1 << (k + 1);
        }
    }
    (a, s)
}

/// Fixpoint closure over `self`/`descendant-or-self` steps that match
/// the current node itself (chains like `//self::a//…` need the loop).
#[inline]
fn closure(steps: &[StepInstr], mask: u64, a: &mut u64, matches: impl Fn(StepTest) -> bool) {
    loop {
        let mut added = 0u64;
        let mut live = *a & mask;
        while live != 0 {
            let k = live.trailing_zeros() as usize;
            live &= live - 1;
            if matches!(steps[k].axis, StepAxis::SelfStep | StepAxis::DescendantOrSelf)
                && matches(steps[k].test)
            {
                added |= 1 << (k + 1);
            }
        }
        if added & !*a == 0 {
            return;
        }
        *a |= added;
    }
}

// ---------------------------------------------------------------------
// Guard NFA: one instance per open candidate with a `[rel-path]` guard
// ---------------------------------------------------------------------

/// The existential guard NFA for one candidate: anchored at the
/// candidate node, it walks the candidate's subtree in lockstep with the
/// main pass; the candidate is an answer iff the accept state is
/// reached anywhere in that subtree.
struct GuardExec {
    satisfied: bool,
    /// (anchored, searching) per open element, candidate first. Frozen
    /// (and no longer balanced) once `satisfied` — it is never read
    /// again.
    stack: Vec<(u64, u64)>,
}

impl GuardExec {
    fn start(guard: &[StepInstr], mask: u64, accept: u64, matches: impl Fn(StepTest) -> bool) -> GuardExec {
        let mut a = 1u64;
        closure(guard, mask, &mut a, matches);
        GuardExec {
            satisfied: a & accept != 0,
            stack: vec![(a, 0)],
        }
    }

    fn enter_element(&mut self, guard: &[StepInstr], mask: u64, accept: u64, name: NameId) {
        if self.satisfied {
            return;
        }
        let (pa, ps) = *self.stack.last().expect("guard stack never empty");
        let (mut a, s) = child_transition(guard, mask, pa, ps, |t| t.matches_element(name));
        closure(guard, mask, &mut a, |t| t.matches_element(name));
        if a & accept != 0 {
            self.satisfied = true;
            return;
        }
        self.stack.push((a, s));
    }

    fn leave_element(&mut self) {
        if !self.satisfied {
            self.stack.pop();
        }
    }

    fn visit_text(&mut self, guard: &[StepInstr], mask: u64, accept: u64) {
        if self.satisfied {
            return;
        }
        let (pa, ps) = *self.stack.last().expect("guard stack never empty");
        let (mut a, _) = child_transition(guard, mask, pa, ps, |t| t.matches_text());
        closure(guard, mask, &mut a, |t| t.matches_text());
        if a & accept != 0 {
            self.satisfied = true;
        }
    }
}

// ---------------------------------------------------------------------
// Captures
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum CapState {
    Open,
    Done,
    Failed,
}

/// One result item: the range `start..end` of the matcher's shared
/// record, in absolute record offsets (see [`Matcher::rec_base`]).
/// Captures are created in document (start-tag) order and emitted in
/// that same order once complete — nested matches simply hold the front
/// of the queue until they close. Text captures are born complete.
struct Capture {
    start: usize,
    end: usize,
    state: CapState,
}

/// A capture whose element has not closed yet. Open captures always
/// nest — each opens at a start tag and closes at its matching end tag —
/// so they form a stack, outermost first, never deeper than the
/// document.
struct OpenCapture {
    /// Index into [`Matcher::caps`].
    cap: usize,
    /// Matcher stack length *including* the candidate's own frame (the
    /// virtual document frame counts, so the whole-document capture has
    /// `depth == 1`).
    depth: usize,
    guard: Option<GuardExec>,
}

// ---------------------------------------------------------------------
// The streaming matcher
// ---------------------------------------------------------------------

/// One open element (plus the virtual document node at the bottom).
#[derive(Clone, Copy)]
struct MatchFrame {
    a: u64,
    s: u64,
    /// The start tag has been recorded but not yet closed with `>` —
    /// resolved to `/>` if the element ends childless.
    open_pending: bool,
}

/// The NFA plus capture bookkeeping. Cost model: every byte of every
/// answer is serialized exactly once, into the shared record `rec`, no
/// matter how many open captures contain it; per-event capture work is
/// O(1) without a guard and O(open captures) ≤ depth with one (each
/// open capture runs its own guard instance). Only the innermost open
/// capture can close at an end tag.
struct Matcher {
    dtd: Arc<Dtd>,
    table: ProjectorTable,
    steps: Vec<StepInstr>,
    guard: Vec<StepInstr>,
    accept: u64,
    mask: u64,
    gaccept: u64,
    gmask: u64,
    stack: Vec<MatchFrame>,
    caps: Vec<Capture>,
    /// Index of the first not-yet-emitted capture.
    head: usize,
    /// Open captures, outermost first (empty: nothing is recording).
    open: Vec<OpenCapture>,
    /// The shared record: serialized bytes of every capture not yet
    /// emitted. Byte `i` of `rec` is record offset `rec_base + i`.
    rec: String,
    /// Record offset of `rec[0]`; advances as drained bytes are dropped.
    rec_base: usize,
    saw_root: bool,
    max_depth: usize,
}

impl Matcher {
    fn new(dtd: Arc<Dtd>, table: ProjectorTable, steps: Vec<StepInstr>, guard: Vec<StepInstr>) -> Matcher {
        let accept = 1u64 << steps.len();
        let mask = accept - 1;
        let gaccept = 1u64 << guard.len();
        let gmask = gaccept - 1;
        // The virtual document node: state 0, closed over self-matching
        // steps. `/descendant-or-self::node()/…` (the `//` expansion)
        // anchors here.
        let mut a = 1u64;
        closure(&steps, mask, &mut a, |t| t.matches_document());
        let mut m = Matcher {
            dtd,
            table,
            steps,
            guard,
            accept,
            mask,
            gaccept,
            gmask,
            stack: Vec::with_capacity(16),
            caps: Vec::new(),
            head: 0,
            open: Vec::new(),
            rec: String::new(),
            rec_base: 0,
            saw_root: false,
            max_depth: 0,
        };
        if a & accept != 0 {
            // The document node itself is an answer (`/self::node()` et
            // al.): capture the whole serialized content.
            m.open_capture(1, |t| t.matches_document());
        }
        m.stack.push(MatchFrame {
            a,
            s: 0,
            open_pending: false,
        });
        m
    }

    /// Record offset of the next byte written to `rec`.
    fn rec_pos(&self) -> usize {
        self.rec_base + self.rec.len()
    }

    /// Answer-resident capture bytes: the record holds each not-yet-
    /// emitted byte once, however many captures share it.
    fn capture_bytes(&self) -> usize {
        self.rec.len()
    }

    /// Opens a capture for the candidate whose frame will sit at stack
    /// length `depth`, starting at the current record position.
    fn open_capture(&mut self, depth: usize, matches: impl Fn(StepTest) -> bool) {
        let guard = if self.guard.is_empty() {
            None
        } else {
            Some(GuardExec::start(&self.guard, self.gmask, self.gaccept, matches))
        };
        self.caps.push(Capture {
            start: self.rec_pos(),
            end: 0,
            state: CapState::Open,
        });
        self.open.push(OpenCapture {
            cap: self.caps.len() - 1,
            depth,
            guard,
        });
    }

    /// Closes the innermost open capture at the current record position;
    /// its guard verdict is final.
    fn close_innermost(&mut self) {
        let oc = self.open.pop().expect("an open capture to close");
        let ok = oc.guard.is_none_or(|g| g.satisfied);
        let end = self.rec_pos();
        let cap = &mut self.caps[oc.cap];
        cap.end = end;
        cap.state = if ok { CapState::Done } else { CapState::Failed };
    }

    /// Resolves the innermost element's pending start tag with `>`
    /// before its first child is recorded.
    fn close_pending_tag(&mut self) {
        let top = self.stack.last_mut().expect("document frame always present");
        if top.open_pending {
            top.open_pending = false;
            self.rec.push('>');
        }
    }

    /// Processes a start tag. Returns true when the whole subtree is
    /// skippable: no capture is recording, the node itself is not an
    /// answer, and either the projector says nothing under this name is
    /// in π (by Thm 4.6 no answer or guard witness can live inside it on
    /// a valid document) or the node has no live NFA state
    /// (`child_transition(0, 0) == (0, 0)`, so nothing below can match).
    fn start_element(&mut self, name_str: &str, attrs_raw: &str) -> Result<bool, StreamPruneError> {
        let name = self
            .dtd
            .name_of_tag_str(name_str)
            .ok_or_else(|| StreamPruneError::UndeclaredElement(name_str.to_string()))?;
        self.saw_root = true;
        let parent = *self.stack.last().expect("document frame always present");
        let (mut a, s) =
            child_transition(&self.steps, self.mask, parent.a, parent.s, |t| {
                t.matches_element(name)
            });
        closure(&self.steps, self.mask, &mut a, |t| t.matches_element(name));
        let matched = a & self.accept != 0;
        let recording = !self.open.is_empty();
        let can_ff = !recording
            && !matched
            && ((a == 0 && s == 0) || self.table.verdict(name) == Verdict::PruneSubtree);

        if recording {
            self.close_pending_tag();
            if !self.guard.is_empty() {
                for oc in &mut self.open {
                    if let Some(g) = &mut oc.guard {
                        g.enter_element(&self.guard, self.gmask, self.gaccept, name);
                    }
                }
            }
        }
        if matched {
            self.open_capture(self.stack.len() + 1, |t| t.matches_element(name));
        }
        if !self.open.is_empty() {
            // Record `<name a="v" …` (no closing `>` yet). Values are
            // decoded then re-escaped — byte-identical to the reference
            // serializer.
            let rec = &mut self.rec;
            rec.push('<');
            rec.push_str(name_str);
            for attr in RawAttrs::new(attrs_raw) {
                let (an, rawv) = attr.map_err(StreamPruneError::Xml)?;
                let decoded = decode_entities(rawv).map_err(StreamPruneError::Xml)?;
                rec.push(' ');
                rec.push_str(an);
                rec.push_str("=\"");
                escape_attr(&decoded, rec);
                rec.push('"');
            }
        }
        self.stack.push(MatchFrame {
            a,
            s,
            open_pending: true,
        });
        debug_assert!(self.open.len() <= self.stack.len(), "open captures nest");
        self.max_depth = self.max_depth.max(self.stack.len() - 1);
        Ok(can_ff)
    }

    fn end_element(&mut self, name_str: &str) {
        let depth = self.stack.len();
        let top = self.stack.pop().expect("end_element below document");
        let Some(innermost) = self.open.last() else {
            return;
        };
        let closes = innermost.depth == depth;
        if top.open_pending {
            self.rec.push_str("/>");
        } else {
            self.rec.push_str("</");
            self.rec.push_str(name_str);
            self.rec.push('>');
        }
        if !self.guard.is_empty() {
            let enclosing = self.open.len() - usize::from(closes);
            for oc in &mut self.open[..enclosing] {
                if let Some(g) = &mut oc.guard {
                    g.leave_element();
                }
            }
        }
        if closes {
            self.close_innermost();
        }
    }

    fn text(&mut self, decoded: &str) {
        // The reference parser drops whitespace-only text nodes and text
        // directly under the document node; match that node set exactly.
        if self.stack.len() == 1 || decoded.trim().is_empty() {
            return;
        }
        let recording = !self.open.is_empty();
        if recording {
            self.close_pending_tag();
        }
        let top = *self.stack.last().expect("document frame always present");
        let (mut a, _) = child_transition(&self.steps, self.mask, top.a, top.s, |t| {
            t.matches_text()
        });
        closure(&self.steps, self.mask, &mut a, |t| t.matches_text());
        if recording && !self.guard.is_empty() {
            for oc in &mut self.open {
                if let Some(g) = &mut oc.guard {
                    g.visit_text(&self.guard, self.gmask, self.gaccept);
                }
            }
        }
        // A text node answer is born complete; its guard can only hold
        // via self-matching steps, so it settles on the spot.
        let answer = a & self.accept != 0
            && (self.guard.is_empty()
                || GuardExec::start(&self.guard, self.gmask, self.gaccept, |t| {
                    t.matches_text()
                })
                .satisfied);
        if recording || answer {
            let start = self.rec_pos();
            escape_text(decoded, &mut self.rec);
            if answer {
                self.caps.push(Capture {
                    start,
                    end: self.rec_pos(),
                    state: CapState::Done,
                });
            }
        }
    }

    fn finish_document(&mut self) -> Result<(), StreamPruneError> {
        if !self.saw_root {
            return Err(StreamPruneError::Xml(
                "document has no root element".to_string(),
            ));
        }
        if self.open.last().is_some_and(|oc| oc.depth == 1) {
            self.close_innermost();
        }
        Ok(())
    }

    /// Emits every completed front-of-queue capture into `out`,
    /// preserving document order, and stops at the first still-open one.
    /// Then drops the record bytes no pending capture needs: all of
    /// them once nothing is pending, else those before the head
    /// capture's start.
    fn drain_ready(&mut self, out: &mut Emitter) {
        while let Some(cap) = self.caps.get(self.head) {
            match cap.state {
                CapState::Open => break,
                CapState::Failed => {}
                CapState::Done => out.emit(
                    false,
                    &self.rec[cap.start - self.rec_base..cap.end - self.rec_base],
                ),
            }
            self.head += 1;
        }
        if self.head == self.caps.len() {
            debug_assert!(self.open.is_empty(), "an open capture is always pending");
            self.caps.clear();
            self.head = 0;
            self.rec.clear();
            self.rec_base = 0;
            return;
        }
        let consumed = self.caps[self.head].start - self.rec_base;
        if consumed > 0 {
            self.rec.drain(..consumed);
            self.rec_base += consumed;
        }
        if self.head > 64 {
            self.caps.drain(..self.head);
            for oc in &mut self.open {
                oc.cap -= self.head;
            }
            self.head = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Execution backends
// ---------------------------------------------------------------------

struct StreamExec {
    tokenizer: PushTokenizer,
    m: Matcher,
    fast_forward: bool,
    events: u64,
    bytes_in: u64,
    ff_subtrees: u64,
    peak_resident: usize,
}

impl StreamExec {
    fn pump(&mut self) -> Result<(), EngineError> {
        while let Some(tok) = self.tokenizer.peek_token()? {
            match tok.kind {
                RawKind::StartTag { self_closing } => {
                    let offset = self.tokenizer.offset();
                    let raw = self.tokenizer.token_str(&tok);
                    let (name, attrs_raw, _) = split_start_tag(raw)
                        .map_err(|message| ParseError { offset, message })?;
                    for attr in RawAttrs::new(attrs_raw) {
                        let (_, rawv) =
                            attr.map_err(|message| ParseError { offset, message })?;
                        validate_entities(rawv)
                            .map_err(|message| ParseError { offset, message })?;
                    }
                    let can_ff = self.m.start_element(name, attrs_raw)?;
                    self.events += 1;
                    if self_closing {
                        self.events += 1;
                        self.m.end_element(name);
                        self.tokenizer.advance(tok)?;
                    } else if self.fast_forward && can_ff {
                        self.m.end_element(name);
                        self.ff_subtrees += 1;
                        self.tokenizer.advance(tok)?;
                        self.tokenizer.skip_current_subtree()?;
                    } else {
                        self.tokenizer.advance(tok)?;
                    }
                }
                RawKind::EndTag => {
                    let offset = self.tokenizer.offset();
                    let raw = self.tokenizer.token_str(&tok);
                    let name = parse_end_tag_name(raw)
                        .map_err(|message| ParseError { offset, message })?;
                    self.m.end_element(name);
                    self.events += 1;
                    self.tokenizer.advance(tok)?;
                }
                RawKind::Text => {
                    let offset = self.tokenizer.offset();
                    let raw = self.tokenizer.token_str(&tok);
                    if self.tokenizer.depth() == 0 && raw.trim().is_empty() {
                        self.tokenizer.advance(tok)?;
                        continue;
                    }
                    let decoded = decode_entities(raw)
                        .map_err(|message| ParseError { offset, message })?;
                    self.m.text(&decoded);
                    self.events += 1;
                    self.tokenizer.advance(tok)?;
                }
                RawKind::Cdata => {
                    let raw = self.tokenizer.token_str(&tok);
                    let inner = &raw["<![CDATA[".len()..raw.len() - "]]>".len()];
                    self.m.text(inner);
                    self.events += 1;
                    self.tokenizer.advance(tok)?;
                }
                RawKind::Comment | RawKind::Pi | RawKind::Doctype => {
                    self.events += 1;
                    self.tokenizer.advance(tok)?;
                }
                RawKind::XmlDecl => {
                    self.tokenizer.advance(tok)?;
                }
            }
        }
        self.peak_resident = self.peak_resident.max(self.tokenizer.peak_buffered());
        Ok(())
    }

    fn finish_stream(&mut self) -> Result<(), EngineError> {
        self.pump()?;
        let events = self.tokenizer.finish()?;
        self.events += events.len() as u64;
        for ev in &events {
            match ev {
                PushEvent::EndElement { name } => self.m.end_element(name),
                PushEvent::Text(t) => self.m.text(t),
                _ => {}
            }
        }
        self.m.finish_document()?;
        self.peak_resident = self.peak_resident.max(self.tokenizer.peak_buffered());
        Ok(())
    }
}

struct FallbackExec {
    pruner: ChunkedPruner<Arc<Dtd>, Vec<u8>>,
    bytes_in: u64,
}

enum Exec {
    Streaming(Box<StreamExec>),
    Fallback(Box<FallbackExec>),
    Done,
}

// ---------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------

/// The output side of a [`QueryMachine`]: serializes result items as
/// match frames or as the bare answer sequence.
struct Emitter {
    out: Vec<u8>,
    mode: QueryOutput,
    emitted: u64,
    prev_atom: bool,
    bytes_out: u64,
}

impl Emitter {
    fn emit(&mut self, atom: bool, value: &str) {
        let before = self.out.len();
        match self.mode {
            QueryOutput::Frames => {
                use std::io::Write as _;
                let _ = write!(self.out, "{{\"match\":{},\"atom\":{},\"value\":\"", self.emitted, atom);
                json_escape_into(value, &mut self.out);
                self.out.extend_from_slice(b"\"}\n");
            }
            QueryOutput::Answer => {
                // The sequence-level spacing rule: one space between
                // adjacent atoms, nothing elsewhere.
                if self.prev_atom && atom {
                    self.out.push(b' ');
                }
                self.out.extend_from_slice(value.as_bytes());
                self.prev_atom = atom;
            }
        }
        self.bytes_out += (self.out.len() - before) as u64;
        self.emitted += 1;
    }
}

/// An owned, movable one-document query execution: feed chunks, drain
/// output, finish for stats. Mirrors [`crate::PruneSession`]'s shape so
/// both serving cores drive it identically (including backpressure via
/// [`Self::pending_output`]).
pub struct QueryMachine {
    exec: Exec,
    sink: Emitter,
    peak_answer: usize,
    artifact: Arc<QueryArtifact>,
}

impl QueryMachine {
    /// Starts an execution of `artifact` for one document.
    pub fn new(artifact: Arc<QueryArtifact>, mode: QueryOutput) -> QueryMachine {
        let art = &artifact;
        let exec = match &art.plan {
            Plan::Streaming(p) => Exec::Streaming(Box::new(StreamExec {
                tokenizer: PushTokenizer::new(),
                m: Matcher::new(Arc::clone(&art.dtd), art.table.clone(), p.steps.clone(), p.guard.clone()),
                fast_forward: true,
                events: 0,
                bytes_in: 0,
                ff_subtrees: 0,
                peak_resident: 0,
            })),
            Plan::Fallback => Exec::Fallback(Box::new(FallbackExec {
                pruner: ChunkedPruner::new(Arc::clone(&art.dtd), &art.projector, Vec::new()),
                bytes_in: 0,
            })),
        };
        QueryMachine {
            exec,
            sink: Emitter {
                out: Vec::new(),
                mode,
                emitted: 0,
                prev_atom: false,
                bytes_out: 0,
            },
            peak_answer: 0,
            artifact,
        }
    }

    /// The artifact this machine executes.
    pub fn artifact(&self) -> &Arc<QueryArtifact> {
        &self.artifact
    }

    /// Which plan is running: `"streaming"` or `"fallback"`.
    pub fn plan_label(&self) -> &'static str {
        self.artifact.plan.label()
    }

    /// Enables or disables subtree fast-forward (default on): subtrees
    /// the projector prunes and, for the streaming plan, subtrees with
    /// no live NFA state. Answers are identical either way on valid
    /// documents; with it off, the pass doubles as a full
    /// well-formedness check.
    pub fn set_fast_forward(&mut self, on: bool) {
        match &mut self.exec {
            Exec::Streaming(s) => s.fast_forward = on,
            Exec::Fallback(f) => f.pruner.set_fast_forward(on),
            Exec::Done => {}
        }
    }

    /// Feeds one chunk of the serialized document. Completed match
    /// frames accumulate in the output buffer — drain with
    /// [`Self::take_output`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), QueryError> {
        match &mut self.exec {
            Exec::Streaming(s) => {
                s.bytes_in += chunk.len() as u64;
                s.tokenizer
                    .push_bytes(chunk)
                    .map_err(EngineError::from)?;
                s.pump()?;
                s.m.drain_ready(&mut self.sink);
            }
            Exec::Fallback(f) => {
                f.bytes_in += chunk.len() as u64;
                f.pruner.feed(chunk)?;
            }
            Exec::Done => panic!("query machine already finished"),
        }
        self.note_answer_peak();
        Ok(())
    }

    /// Ends the document: final matches (all of them, for the fallback
    /// plan) and the summary frame land in the output buffer; drain with
    /// a last [`Self::take_output`].
    pub fn finish(&mut self) -> Result<QueryStats, QueryError> {
        let mut stats = match std::mem::replace(&mut self.exec, Exec::Done) {
            Exec::Streaming(mut s) => {
                s.finish_stream()?;
                s.m.drain_ready(&mut self.sink);
                QueryStats {
                    plan: "streaming",
                    matches: 0,
                    events: s.events,
                    bytes_in: s.bytes_in,
                    bytes_out: 0,
                    subtrees_fast_forwarded: s.ff_subtrees,
                    max_depth: s.m.max_depth,
                    peak_resident_bytes: s.peak_resident,
                    peak_answer_bytes: 0,
                }
            }
            Exec::Fallback(f) => {
                let bytes_in = f.bytes_in;
                let (estats, pruned) = f.pruner.finish_with_sink()?;
                let pruned_len = pruned.len();
                let text = String::from_utf8(pruned)
                    .expect("pruned output re-serializes validated UTF-8 tokens");
                // A fully pruned document (π empty) still evaluates: the
                // query may construct output without reading any node.
                let doc = if text.trim().is_empty() {
                    Document::new()
                } else {
                    parse_with_options(
                        &text,
                        ParseOptions {
                            ignore_whitespace_text: true,
                            interner: Some(self.artifact.dtd.tags.clone()),
                        },
                    )
                    .map_err(EngineError::Xml)?
                };
                let items = evaluate_query_items(&doc, &self.artifact.ast)
                    .map_err(|e| QueryError::Eval(e.to_string()))?;
                for it in &items {
                    let v = serialize_item(&doc, it);
                    self.sink.emit(it.is_atom(), &v);
                }
                self.peak_answer = self.peak_answer.max(pruned_len + self.sink.out.len());
                QueryStats {
                    plan: "fallback",
                    matches: 0,
                    events: estats.events,
                    bytes_in,
                    bytes_out: 0,
                    subtrees_fast_forwarded: estats.subtrees_fast_forwarded,
                    max_depth: estats.counters.max_depth,
                    peak_resident_bytes: estats.peak_resident_bytes,
                    peak_answer_bytes: 0,
                }
            }
            Exec::Done => panic!("query machine already finished"),
        };
        if self.sink.mode == QueryOutput::Frames {
            let summary = format!(
                "{{\"done\":true,\"plan\":\"{}\",\"matches\":{},\"events\":{},\"bytes_in\":{},\
                 \"fast_forwarded\":{}}}\n",
                stats.plan, self.sink.emitted, stats.events, stats.bytes_in,
                stats.subtrees_fast_forwarded,
            );
            self.sink.out.extend_from_slice(summary.as_bytes());
            self.sink.bytes_out += summary.len() as u64;
        }
        self.note_answer_peak();
        stats.matches = self.sink.emitted;
        stats.bytes_out = self.sink.bytes_out;
        stats.peak_answer_bytes = self.peak_answer;
        Ok(stats)
    }

    /// Appends all pending output to `dst`, clearing it here. An empty
    /// `dst` takes the buffer itself, with no copy.
    pub fn take_output(&mut self, dst: &mut Vec<u8>) {
        if dst.is_empty() {
            std::mem::swap(dst, &mut self.sink.out);
        } else {
            dst.append(&mut self.sink.out);
        }
    }

    /// Bytes of output waiting to be taken — the backpressure signal.
    pub fn pending_output(&self) -> usize {
        self.sink.out.len()
    }

    /// Total resident bytes right now: engine-side buffers plus the
    /// answer-side captures and undrained output.
    pub fn resident_bytes(&self) -> usize {
        let exec = match &self.exec {
            Exec::Streaming(s) => s.tokenizer.buffered() + s.m.capture_bytes(),
            Exec::Fallback(f) => f.pruner.resident_bytes() + f.pruner.sink_ref().len(),
            Exec::Done => 0,
        };
        exec + self.sink.out.len()
    }

    fn note_answer_peak(&mut self) {
        let caps = match &self.exec {
            Exec::Streaming(s) => s.m.capture_bytes(),
            _ => 0,
        };
        self.peak_answer = self.peak_answer.max(caps + self.sink.out.len());
    }
}

/// Escapes `s` into `out` as JSON string contents (UTF-8 passes through
/// verbatim; only quotes, backslashes and control bytes are escaped).
pub fn json_escape_into(s: &str, out: &mut Vec<u8>) {
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x00..=0x1f => {
                use std::io::Write as _;
                let _ = write!(out, "\\u{:04x}", b);
            }
            _ => out.push(b),
        }
    }
}

/// Convenience driver: runs `artifact` over a whole in-memory document,
/// returning the output and stats. Test and CLI entry point; the servers
/// drive [`QueryMachine`] incrementally instead.
pub fn run_query(
    artifact: &Arc<QueryArtifact>,
    doc: &[u8],
    mode: QueryOutput,
    fast_forward: bool,
    chunk_size: usize,
) -> Result<(Vec<u8>, QueryStats), QueryError> {
    let mut machine = QueryMachine::new(Arc::clone(artifact), mode);
    machine.set_fast_forward(fast_forward);
    let mut out = Vec::new();
    for chunk in doc.chunks(chunk_size.max(1)) {
        machine.feed(chunk)?;
        machine.take_output(&mut out);
    }
    let stats = machine.finish()?;
    machine.take_output(&mut out);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_dtd::parse_dtd;
    use xproj_xquery::{evaluate_query, parse_xquery};

    const DTD: &str = "\
        <!ELEMENT bib (book*)>\
        <!ELEMENT book (title, author*, price?)>\
        <!ATTLIST book id CDATA #IMPLIED>\
        <!ELEMENT title (#PCDATA)>\
        <!ELEMENT author (#PCDATA)>\
        <!ELEMENT price (#PCDATA)>";

    const DOC: &str = "<bib>\
        <book id=\"b1\"><title>T1 &amp; more</title><author>A</author><price>10</price></book>\
        <book id=\"b2\"><title>T2</title></book>\
        </bib>";

    fn artifact(query: &str) -> Arc<QueryArtifact> {
        let dtd = Arc::new(parse_dtd(DTD, "bib").unwrap());
        QueryArtifact::compile(&dtd, query).unwrap()
    }

    fn reference(query: &str, doc: &str) -> String {
        let tree = xproj_xmltree::parse(doc).unwrap();
        evaluate_query(&tree, &parse_xquery(query).unwrap()).unwrap()
    }

    fn answer(query: &str, doc: &str, ff: bool, chunk: usize) -> (String, QueryStats) {
        let art = artifact(query);
        let (out, stats) =
            run_query(&art, doc.as_bytes(), QueryOutput::Answer, ff, chunk).unwrap();
        (String::from_utf8(out).unwrap(), stats)
    }

    #[test]
    fn streaming_answers_match_reference_at_every_chunk_size() {
        for q in [
            "/bib/book/title",
            "//title",
            "//book[price]",
            "/bib/book",
            "//title/text()",
            "//author",
            "/bib/node()",
            "//zzz",
        ] {
            let want = reference(q, DOC);
            for chunk in [1, 2, 3, 7, 64, 4096] {
                for ff in [true, false] {
                    let (got, stats) = answer(q, DOC, ff, chunk);
                    assert_eq!(got, want, "query {q}, chunk {chunk}, ff {ff}");
                    assert_eq!(stats.plan, "streaming", "{q} should stream");
                }
            }
        }
    }

    #[test]
    fn fallback_answers_match_reference() {
        for q in [
            "for $b in /bib/book where $b/price return <cheap>{$b/title}</cheap>",
            "/bib/book[1]/title",
            "//book[price]/title",
            "count(//book)",
        ] {
            let want = reference(q, DOC);
            for chunk in [3, 4096] {
                let art = artifact(q);
                let (out, stats) =
                    run_query(&art, DOC.as_bytes(), QueryOutput::Answer, true, chunk).unwrap();
                assert_eq!(String::from_utf8(out).unwrap(), want, "query {q}");
                assert_eq!(stats.plan, "fallback");
            }
        }
    }

    #[test]
    fn frames_mode_emits_one_frame_per_match_plus_summary() {
        let art = artifact("//title");
        let (out, stats) =
            run_query(&art, DOC.as_bytes(), QueryOutput::Frames, true, 4096).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"match\":0,\"atom\":false,\"value\":\"<title>T1 &amp; more</title>\"}"
        );
        assert_eq!(
            lines[1],
            "{\"match\":1,\"atom\":false,\"value\":\"<title>T2</title>\"}"
        );
        assert!(lines[2].starts_with("{\"done\":true,\"plan\":\"streaming\",\"matches\":2,"));
        assert_eq!(stats.matches, 2);
        assert_eq!(stats.bytes_out, text.len() as u64);
    }

    #[test]
    fn guard_rejects_candidates_without_witness() {
        // b2 has no price: `//book[price]` must emit only b1.
        let (got, _) = answer("//book[price]", DOC, true, 5);
        assert!(got.contains("id=\"b1\""));
        assert!(!got.contains("id=\"b2\""));
        // Guard satisfied on every candidate: both books captured.
        let (got, stats) = answer("/bib/book[title]", DOC, false, 1);
        assert!(got.contains("id=\"b1\"") && got.contains("id=\"b2\""));
        assert_eq!(stats.plan, "streaming");
    }

    #[test]
    fn fast_forward_skips_subtrees_and_preserves_answers() {
        let (fast, fs) = answer("//title", DOC, true, 4096);
        let (plain, ps) = answer("//title", DOC, false, 4096);
        assert_eq!(fast, plain);
        assert!(fs.subtrees_fast_forwarded > 0, "price/author subtrees skip");
        assert_eq!(ps.subtrees_fast_forwarded, 0);
        assert!(fs.events < ps.events);
    }

    #[test]
    fn captures_stay_answer_bounded_not_document_bounded() {
        // Many books, query selects only titles: answer-resident bytes
        // must track the largest single title, not the document.
        let body: String = (0..500)
            .map(|i| format!("<book id=\"b{i}\"><title>T{i}</title><author>A{i}</author></book>"))
            .collect();
        let doc = format!("<bib>{body}</bib>");
        let art = artifact("//title");
        let mut machine = QueryMachine::new(art, QueryOutput::Frames);
        let mut out = Vec::new();
        let mut peak_waiting = 0usize;
        for chunk in doc.as_bytes().chunks(64) {
            machine.feed(chunk).unwrap();
            peak_waiting = peak_waiting.max(machine.pending_output());
            machine.take_output(&mut out);
        }
        let stats = machine.finish().unwrap();
        machine.take_output(&mut out);
        assert_eq!(stats.matches, 500);
        assert!(
            stats.peak_resident_bytes < 2048,
            "engine-resident {} should be token-scale",
            stats.peak_resident_bytes
        );
        assert!(
            peak_waiting < 1024,
            "undrained output {} should be chunk-scale when drained per feed",
            peak_waiting
        );
    }

    #[test]
    fn undeclared_element_and_malformed_input_error() {
        let art = artifact("//title");
        let err = run_query(&art, b"<bib><zzz/></bib>", QueryOutput::Answer, false, 7)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::UndeclaredElement);
        let err =
            run_query(&art, b"<bib><book>", QueryOutput::Answer, true, 7).unwrap_err();
        assert_eq!(err.code(), ErrorCode::MalformedXml);
        let err = run_query(&art, b"", QueryOutput::Answer, true, 7).unwrap_err();
        assert_eq!(err.code(), ErrorCode::MalformedXml);
    }

    #[test]
    fn cdata_and_entities_round_trip_through_captures() {
        let doc = "<bib><book id=\"x&amp;y\"><title>a<![CDATA[<raw>]]>b</title>\
                   <author>&lt;A&gt;</author></book></bib>";
        for q in ["//title", "//author", "/bib/book"] {
            let want = reference(q, doc);
            let (got, _) = answer(q, doc, true, 3);
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn whole_document_match_is_supported() {
        let q = "/descendant-or-self::node()";
        let want = reference(q, DOC);
        let (got, stats) = answer(q, DOC, true, 9);
        assert_eq!(got, want);
        assert_eq!(stats.plan, "streaming");
    }

    #[test]
    fn nested_matches_under_one_wide_capture_stay_linear() {
        // `bib` stays open while 20k books (and everything in them) are
        // captured beneath it: each event must cost O(open captures),
        // not O(pending captures), for this to finish quickly.
        let body: String = (0..20_000)
            .map(|i| format!("<book><title>T{i}</title></book>"))
            .collect();
        let doc = format!("<bib>{body}</bib>");
        for q in ["//node()", "/bib//node()"] {
            let want = reference(q, &doc);
            for chunk in [4096, doc.len()] {
                let (got, stats) = answer(q, &doc, true, chunk);
                assert!(got == want, "query {q}, chunk {chunk}: answer differs");
                assert_eq!(stats.plan, "streaming");
            }
        }
    }

    #[test]
    fn dead_state_subtrees_fast_forward_on_xmark() {
        use xproj_xmark::{auction_dtd, generate_auction, XMarkConfig};
        let dtd = Arc::new(auction_dtd());
        let xml = generate_auction(&dtd, &XMarkConfig::at_scale(0.02)).to_xml();
        let tree = xproj_xmltree::parse(&xml).unwrap();
        for q in [
            "/site/closed_auctions/closed_auction/annotation/description/text/keyword",
            "/site/regions/europe/item/mailbox/mail/text/keyword",
        ] {
            let art = QueryArtifact::compile(&dtd, q).unwrap();
            let want = evaluate_query(&tree, &parse_xquery(q).unwrap()).unwrap();
            let run = |ff| {
                let (out, stats) =
                    run_query(&art, xml.as_bytes(), QueryOutput::Answer, ff, 4096).unwrap();
                (String::from_utf8(out).unwrap(), stats)
            };
            let (fast, fs) = run(true);
            let (plain, ps) = run(false);
            assert_eq!(fs.plan, "streaming");
            assert_eq!(fast, want, "{q} with fast-forward");
            assert_eq!(plain, want, "{q} without fast-forward");
            // The projector alone keeps every subtree holding a
            // `keyword` (~60% of the events here); dead-state skipping
            // leaves little more than the path's own spine.
            assert!(
                fs.events * 10 < ps.events,
                "{q}: {} events with fast-forward, {} without",
                fs.events,
                ps.events
            );
        }
    }

    #[test]
    fn dead_state_subtree_is_skipped_even_when_projector_keeps_it() {
        // Every name is in π for `/r/a/b`, so the projector skips
        // nothing; but the nested `a` has no live NFA state (step 3
        // wants `b`), so its subtree is skipped raw.
        let dtd = Arc::new(
            parse_dtd(
                "<!ELEMENT r (a*)><!ELEMENT a (a*, b?)><!ELEMENT b (#PCDATA)>",
                "r",
            )
            .unwrap(),
        );
        let doc = "<r><a><a><a><b>x</b></a></a><b>y</b></a></r>";
        let art = QueryArtifact::compile(&dtd, "/r/a/b").unwrap();
        let run = |ff| {
            let (out, stats) =
                run_query(&art, doc.as_bytes(), QueryOutput::Answer, ff, 4096).unwrap();
            (String::from_utf8(out).unwrap(), stats)
        };
        let (fast, fs) = run(true);
        let (plain, ps) = run(false);
        assert_eq!(fast, "<b>y</b>");
        assert_eq!(plain, fast);
        assert_eq!(fs.subtrees_fast_forwarded, 1);
        assert_eq!(ps.subtrees_fast_forwarded, 0);
        assert!(fs.events < ps.events);
    }

    #[test]
    fn take_output_moves_into_an_empty_buffer() {
        let art = artifact("//title");
        let mut machine = QueryMachine::new(art, QueryOutput::Answer);
        machine.feed(DOC.as_bytes()).unwrap();
        let ptr = machine.sink.out.as_ptr();
        let mut out = Vec::new();
        machine.take_output(&mut out);
        assert_eq!(out.as_ptr(), ptr, "an empty destination takes the buffer");
        assert_eq!(machine.pending_output(), 0);
        machine.finish().unwrap();
        machine.take_output(&mut out);
        assert_eq!(String::from_utf8(out).unwrap(), reference("//title", DOC));
    }

    #[test]
    fn machine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryMachine>();
    }

    #[test]
    fn machine_survives_thread_hops_between_feeds() {
        let art = artifact("//title");
        let mut machine = QueryMachine::new(art, QueryOutput::Answer);
        machine.feed(&DOC.as_bytes()[..20]).unwrap();
        let mut machine = std::thread::spawn(move || {
            machine.feed(&DOC.as_bytes()[20..]).unwrap();
            machine
        })
        .join()
        .unwrap();
        machine.finish().unwrap();
        let mut out = Vec::new();
        machine.take_output(&mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            reference("//title", DOC)
        );
    }
}
