//! Hand-rolled HTTP/1.1 wire protocol: incremental request parsing,
//! bounded body readers (`Content-Length` and `Transfer-Encoding:
//! chunked`), and response writing including the deferred-header
//! streaming body the prune endpoint uses.
//!
//! Everything is written against `std::net::TcpStream` with a short
//! socket poll interval; the configured read deadline and the server's
//! shutdown/abort flags are enforced in software on top of it, so a
//! worker parked on an idle keep-alive connection notices shutdown
//! within [`POLL_INTERVAL`] instead of its full read timeout.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Socket-level read timeout: the granularity at which blocked reads
/// re-check deadlines and the shutdown/abort flags.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Protocol-level failures of one request.
#[derive(Debug)]
pub enum HttpError {
    /// Unparsable request line, header, or chunked framing → `400`.
    BadRequest(String),
    /// The request head exceeded the configured limit → `431`.
    HeadersTooLarge,
    /// The request body exceeded the configured limit → `413`.
    BodyTooLarge,
    /// The request used a transfer coding this server does not
    /// implement → `501`.
    NotImplemented(String),
    /// A read deadline expired mid-request → `408`.
    Timeout,
    /// The connection failed (or the server is aborting); no response
    /// is possible.
    Io(std::io::Error),
    /// The peer closed (or shutdown arrived) between requests — a
    /// clean end of the connection, not an error.
    Closed,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Flags every connection read observes (owned by the server state).
pub struct ConnFlags {
    /// Graceful shutdown: stop *starting* requests.
    pub shutdown: AtomicBool,
    /// Drain deadline passed: stop *continuing* requests.
    pub hard_abort: AtomicBool,
}

impl ConnFlags {
    /// Both flags clear.
    pub fn new() -> Self {
        ConnFlags {
            shutdown: AtomicBool::new(false),
            hard_abort: AtomicBool::new(false),
        }
    }
}

impl Default for ConnFlags {
    fn default() -> Self {
        Self::new()
    }
}

/// One server-side connection: the stream plus a read-ahead buffer
/// (pipelined requests land here) and the read deadline machinery.
pub struct Conn<'f> {
    stream: TcpStream,
    flags: &'f ConnFlags,
    read_deadline: Duration,
    buf: Vec<u8>,
    pos: usize,
    yield_waiters: Option<&'f std::sync::atomic::AtomicUsize>,
    /// Absolute deadline for the *current operation* (set while a head
    /// is being read). Without it, each `fill` call would restart its
    /// own clock, and a client trickling one header byte per poll tick
    /// could hold a worker forever (slowloris).
    op_deadline: Option<Instant>,
}

impl<'f> Conn<'f> {
    /// Wraps an accepted stream. `read_deadline` bounds each blocking
    /// read; the write deadline is installed directly on the socket.
    pub fn new(
        stream: TcpStream,
        flags: &'f ConnFlags,
        read_deadline: Duration,
        write_deadline: Duration,
    ) -> std::io::Result<Conn<'f>> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        stream.set_write_timeout(Some(write_deadline))?;
        Ok(Conn {
            stream,
            flags,
            read_deadline,
            buf: Vec::new(),
            pos: 0,
            yield_waiters: None,
            op_deadline: None,
        })
    }

    /// From now on, an *idle* wait for the next request closes the
    /// connection as soon as `waiters` is nonzero. The worker pool is
    /// fixed-size, so a keep-alive connection with nothing to say must
    /// not pin a worker while accepted connections queue behind it —
    /// closing between requests is legal HTTP/1.1 and clients
    /// reconnect. Enabled only after the first served request, so a
    /// fresh connection is never bounced before it is heard.
    pub fn yield_to_waiters(&mut self, waiters: &'f std::sync::atomic::AtomicUsize) {
        self.yield_waiters = Some(waiters);
    }

    /// The underlying stream, for response writing.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    fn buffered(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Reads more bytes into the buffer. With `idle` set (between
    /// requests) a clean EOF, or a shutdown flag with nothing left to
    /// read, maps to [`HttpError::Closed`].
    fn fill(&mut self, idle: bool) -> Result<(), HttpError> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        // A rolling per-call deadline (body reads make progress each
        // call), unless an absolute operation deadline is in force.
        let deadline = self
            .op_deadline
            .unwrap_or_else(|| Instant::now() + self.read_deadline);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.flags.hard_abort.load(Ordering::Relaxed) {
                return Err(HttpError::Io(std::io::Error::other("server aborting")));
            }
            if idle {
                if let Some(w) = self.yield_waiters {
                    if w.load(Ordering::Relaxed) > 0 {
                        return Err(HttpError::Closed);
                    }
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(if idle {
                        HttpError::Closed
                    } else {
                        HttpError::BadRequest("connection closed mid-request".to_string())
                    })
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Only a read that came back empty means idle: bytes
                    // already on the wire are a request shutdown drains.
                    if idle && self.flags.shutdown.load(Ordering::Relaxed) {
                        return Err(HttpError::Closed);
                    }
                    if Instant::now() >= deadline {
                        return Err(if idle { HttpError::Closed } else { HttpError::Timeout });
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }
}

/// A parsed request head.
#[derive(Debug)]
pub struct RequestHead {
    /// Upper-cased method.
    pub method: String,
    /// Decoded path (before `?`).
    pub path: String,
    /// Raw query string (after `?`), still percent-encoded.
    pub raw_query: String,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Decoded query parameters in order.
    pub fn query_params(&self) -> Vec<(String, String)> {
        self.raw_query
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|pair| match pair.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(pair), String::new()),
            })
            .collect()
    }

    /// First decoded value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query_params()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// All comma-separated tokens of a (case-insensitive) header,
    /// across every occurrence of it, trimmed and lowercased — the
    /// RFC 9110 list syntax, so `Connection: close, te` yields the
    /// tokens `close` and `te`.
    pub fn header_tokens(&self, name: &str) -> Vec<String> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, v)| v.split(','))
            .map(|t| t.trim().to_ascii_lowercase())
            .filter(|t| !t.is_empty())
            .collect()
    }

    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 default yes, overridden by a `close` token in any
    /// `Connection` header — `Connection: close, te` still closes).
    pub fn keep_alive(&self) -> bool {
        !self.header_tokens("connection").iter().any(|t| t == "close")
    }

    /// Whether the client sent `Expect: 100-continue`.
    pub fn expects_continue(&self) -> bool {
        matches!(self.header("expect"), Some(v) if v.eq_ignore_ascii_case("100-continue"))
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads one request head off the connection, enforcing
/// `max_header_bytes` on the whole head (request line + headers) and an
/// *absolute* deadline from the first head byte to the final `CRLFCRLF`
/// — a trickling client gets a 408 when the configured read deadline
/// elapses, no matter how often it sends one more byte.
pub fn read_head(conn: &mut Conn, max_header_bytes: usize) -> Result<RequestHead, HttpError> {
    // Find the end-of-head marker, reading as needed.
    let head_end = loop {
        if let Some(i) = find_subsequence(conn.buffered(), b"\r\n\r\n") {
            break i;
        }
        if conn.buffered().len() > max_header_bytes {
            conn.op_deadline = None;
            return Err(HttpError::HeadersTooLarge);
        }
        let idle = conn.buffered().is_empty();
        if !idle && conn.op_deadline.is_none() {
            conn.op_deadline = Some(Instant::now() + conn.read_deadline);
        }
        if let Err(e) = conn.fill(idle) {
            conn.op_deadline = None;
            return Err(e);
        }
    };
    conn.op_deadline = None;
    if head_end > max_header_bytes {
        return Err(HttpError::HeadersTooLarge);
    }
    let head = String::from_utf8_lossy(&conn.buffered()[..head_end]).into_owned();
    conn.pos += head_end + 4;
    parse_head_str(&head)
}

/// Parses a complete request head (everything before `CRLFCRLF`). Shared
/// by the blocking [`read_head`] and the reactor's buffer-level
/// [`crate::wire::parse_head`].
pub(crate) fn parse_head_str(head: &str) -> Result<RequestHead, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".to_string()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no target".to_string()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version '{version}'"
        )));
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (n, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line '{line}'")))?;
        headers.push((n.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok(RequestHead {
        method,
        path: percent_decode(path),
        raw_query: raw_query.to_string(),
        headers,
    })
}

pub(crate) fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
}

/// How the request body is framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyKind {
    /// No body (no framing headers present).
    None,
    /// `Content-Length: n`.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Determines the body framing from the head.
///
/// `Transfer-Encoding` is parsed as the RFC 9112 coding list: the body
/// is chunked only when `chunked` is the **final** coding. Any coding
/// this server does not implement (gzip, deflate, …) is a `501`;
/// `chunked` anywhere but last (the framing would be ambiguous) is a
/// `400`.
pub fn body_kind(head: &RequestHead) -> Result<BodyKind, HttpError> {
    let codings = head.header_tokens("transfer-encoding");
    if !codings.is_empty() {
        if let Some(other) = codings.iter().find(|c| *c != "chunked") {
            return Err(HttpError::NotImplemented(format!(
                "transfer coding '{other}' is not supported"
            )));
        }
        if codings.len() > 1 {
            return Err(HttpError::BadRequest(
                "chunked must be the final transfer coding, applied once".to_string(),
            ));
        }
        return Ok(BodyKind::Chunked);
    }
    match head.header("content-length") {
        Some(v) => {
            let n: u64 = v
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length '{v}'")))?;
            Ok(BodyKind::Length(n))
        }
        None => Ok(BodyKind::None),
    }
}

enum BodyState {
    Length { remaining: u64 },
    /// Between chunks: the next thing on the wire is a chunk-size line.
    ChunkSize,
    /// Inside a chunk's data.
    ChunkData { remaining: u64 },
    Done,
}

/// An incremental reader of one request body, bounded by
/// `max_body_bytes`. `Content-Length` bodies count down; chunked bodies
/// are decoded frame by frame, so each [`BodyReader::read_some`] hands
/// back decoded document bytes as they arrive — this is what feeds the
/// push tokenizer without ever materializing the document.
pub struct BodyReader<'c, 'f> {
    conn: &'c mut Conn<'f>,
    state: BodyState,
    max_body_bytes: u64,
    total: u64,
}

impl<'c, 'f> BodyReader<'c, 'f> {
    /// A reader for the body framing `kind`.
    pub fn new(conn: &'c mut Conn<'f>, kind: BodyKind, max_body_bytes: u64) -> Self {
        let state = match kind {
            BodyKind::None => BodyState::Done,
            BodyKind::Length(0) => BodyState::Done,
            BodyKind::Length(n) => BodyState::Length { remaining: n },
            BodyKind::Chunked => BodyState::ChunkSize,
        };
        BodyReader {
            conn,
            state,
            max_body_bytes,
            total: 0,
        }
    }

    /// Decoded body bytes consumed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reads some decoded body bytes into `buf`; `Ok(0)` means the body
    /// is complete (keep-alive framing is intact).
    pub fn read_some(&mut self, buf: &mut [u8]) -> Result<usize, HttpError> {
        loop {
            match self.state {
                BodyState::Done => return Ok(0),
                BodyState::Length { remaining } => {
                    let n = self.read_capped(buf, remaining)?;
                    let remaining = remaining - n as u64;
                    self.state = if remaining == 0 {
                        BodyState::Done
                    } else {
                        BodyState::Length { remaining }
                    };
                    return Ok(n);
                }
                BodyState::ChunkSize => {
                    let line = self.read_line()?;
                    let size_hex = line.split(';').next().unwrap_or("").trim();
                    let size = u64::from_str_radix(size_hex, 16).map_err(|_| {
                        HttpError::BadRequest(format!("bad chunk size line '{line}'"))
                    })?;
                    if size == 0 {
                        // Trailer section: lines until an empty one.
                        loop {
                            if self.read_line()?.is_empty() {
                                break;
                            }
                        }
                        self.state = BodyState::Done;
                        return Ok(0);
                    }
                    self.state = BodyState::ChunkData { remaining: size };
                }
                BodyState::ChunkData { remaining } => {
                    let n = self.read_capped(buf, remaining)?;
                    let remaining = remaining - n as u64;
                    if remaining == 0 {
                        let crlf = self.read_line()?;
                        if !crlf.is_empty() {
                            return Err(HttpError::BadRequest(
                                "chunk data not CRLF-terminated".to_string(),
                            ));
                        }
                        self.state = BodyState::ChunkSize;
                    } else {
                        self.state = BodyState::ChunkData { remaining };
                    }
                    if n > 0 {
                        return Ok(n);
                    }
                }
            }
        }
    }

    /// Consumes and discards the rest of the body (to keep the
    /// connection's framing intact for the next request).
    pub fn drain(&mut self) -> Result<(), HttpError> {
        let mut sink = [0u8; 16 * 1024];
        while self.read_some(&mut sink)? > 0 {}
        Ok(())
    }

    fn bump_total(&mut self, n: usize) -> Result<(), HttpError> {
        self.total += n as u64;
        if self.total > self.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        Ok(())
    }

    fn read_capped(&mut self, buf: &mut [u8], cap: u64) -> Result<usize, HttpError> {
        if self.conn.buffered().is_empty() {
            self.conn.fill(false)?;
        }
        let avail = self.conn.buffered().len();
        let n = avail.min(buf.len()).min(cap as usize);
        buf[..n].copy_from_slice(&self.conn.buffered()[..n]);
        self.conn.pos += n;
        self.bump_total(n)?;
        Ok(n)
    }

    fn read_line(&mut self) -> Result<String, HttpError> {
        let mut line = Vec::new();
        loop {
            while self.conn.pos < self.conn.buf.len() {
                let b = self.conn.buf[self.conn.pos];
                self.conn.pos += 1;
                if b == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(String::from_utf8_lossy(&line).into_owned());
                }
                line.push(b);
                if line.len() > 1024 {
                    return Err(HttpError::BadRequest("over-long framing line".to_string()));
                }
            }
            self.conn.fill(false)?;
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Serializes a complete `Content-Length`-framed response. The single
/// source of the response wire format: the blocking [`write_response`]
/// and the reactor's output buffers both go through here, which is what
/// keeps the two serve modes byte-identical.
pub(crate) fn render_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    render_response_with(status, content_type, body, keep_alive, &[])
}

/// [`render_response`] with extra response headers (name, value) spliced
/// in before the blank line — how `Retry-After` gets onto 429/503
/// replies without hand-editing rendered bytes.
pub(crate) fn render_response_with(
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

/// Serializes the structured JSON error body:
/// `{"error":{"code":"…","message":"…"}}` (always `connection: close`).
pub(crate) fn render_json_error(status: u16, code: &str, message: &str) -> Vec<u8> {
    render_json_error_with(status, code, message, &[])
}

/// [`render_json_error`] with extra response headers, e.g.
/// `Retry-After` on overload (503) and rate-limit (429) replies.
pub(crate) fn render_json_error_with(
    status: u16,
    code: &str,
    message: &str,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let body = format!(
        "{{\"error\":{{\"code\":\"{code}\",\"message\":\"{}\"}}}}",
        json_escape(message)
    );
    render_response_with(status, "application/json", body.as_bytes(), false, extra_headers)
}

/// Writes a complete `Content-Length`-framed response.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.write_all(&render_response(status, content_type, body, keep_alive))?;
    stream.flush()
}

/// Writes a structured JSON error body:
/// `{"error":{"code":"…","message":"…"}}`. Error responses always close
/// the connection — the request body may not have been consumed, so the
/// framing cannot be trusted for a next request.
pub fn write_json_error(
    stream: &mut TcpStream,
    status: u16,
    code: &str,
    message: &str,
) -> std::io::Result<()> {
    stream.write_all(&render_json_error(status, code, message))?;
    stream.flush()
}

/// The head of a streaming-body response that committed to chunked
/// transfer (prune bytes or query frames).
pub(crate) fn streaming_prune_head(content_type: &str, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// The head of a streaming-body response whose whole output fit in the
/// buffer.
pub(crate) fn buffered_prune_head(content_type: &str, body_len: usize, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\ncontent-length: {body_len}\r\nconnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// The prune endpoint's response body: buffers pruned output until it
/// exceeds `threshold`, then commits to a `200` chunked streaming
/// response. If the whole pruned document fits in the buffer, the
/// response is sent `Content-Length`-framed instead — and, crucially, a
/// prune *error* detected before the threshold is crossed can still
/// become a structured `4xx`, because no header has been written yet.
///
/// Resident memory is bounded by `threshold` + one write, preserving
/// the engine's O(depth + max-token) guarantee at the HTTP layer.
pub struct StreamingBody<'s> {
    stream: &'s mut TcpStream,
    buffer: Vec<u8>,
    threshold: usize,
    keep_alive: bool,
    streaming: bool,
    content_type: &'static str,
    /// Largest buffered + in-transit byte count seen (for metrics).
    peak_buffered: usize,
}

impl<'s> StreamingBody<'s> {
    /// A body writer for one prune response (`application/xml`).
    pub fn new(stream: &'s mut TcpStream, threshold: usize, keep_alive: bool) -> Self {
        Self::with_content_type(stream, threshold, keep_alive, "application/xml")
    }

    /// A body writer with an explicit content-type (the query endpoint
    /// streams `application/x-ndjson` match frames).
    pub fn with_content_type(
        stream: &'s mut TcpStream,
        threshold: usize,
        keep_alive: bool,
        content_type: &'static str,
    ) -> Self {
        StreamingBody {
            stream,
            buffer: Vec::new(),
            threshold,
            keep_alive,
            streaming: false,
            content_type,
            peak_buffered: 0,
        }
    }

    /// Whether response headers are already on the wire (after which
    /// errors can only abort the connection).
    pub fn headers_sent(&self) -> bool {
        self.streaming
    }

    /// High-water mark of bytes buffered before streaming began.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    fn start_streaming(&mut self) -> std::io::Result<()> {
        let head = streaming_prune_head(self.content_type, self.keep_alive);
        self.stream.write_all(head.as_bytes())?;
        self.streaming = true;
        if !self.buffer.is_empty() {
            let buffered = std::mem::take(&mut self.buffer);
            self.write_chunk(&buffered)?;
        }
        Ok(())
    }

    fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")
    }

    /// Terminates a successful response: the final chunk in streaming
    /// mode, or the whole `Content-Length` response if everything fit
    /// in the buffer.
    pub fn finish_ok(self) -> std::io::Result<()> {
        if self.streaming {
            self.stream.write_all(b"0\r\n\r\n")?;
        } else {
            let head = buffered_prune_head(self.content_type, self.buffer.len(), self.keep_alive);
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(&self.buffer)?;
        }
        self.stream.flush()
    }
}

impl Write for StreamingBody<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.streaming {
            self.write_chunk(data)?;
        } else {
            self.buffer.extend_from_slice(data);
            self.peak_buffered = self.peak_buffered.max(self.buffer.len());
            if self.buffer.len() > self.threshold {
                self.start_streaming()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.streaming {
            self.stream.flush()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("%2Fa%2Fb"), "/a/b");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn query_param_parsing() {
        let head = RequestHead {
            method: "GET".to_string(),
            path: "/x".to_string(),
            raw_query: "dtd=abc&query=%2Fsite%2F%2Fitem&flag".to_string(),
            headers: Vec::new(),
        };
        assert_eq!(head.query_param("dtd").as_deref(), Some("abc"));
        assert_eq!(head.query_param("query").as_deref(), Some("/site//item"));
        assert_eq!(head.query_param("flag").as_deref(), Some(""));
        assert_eq!(head.query_param("missing"), None);
    }

    fn head_with(headers: &[(&str, &str)]) -> RequestHead {
        RequestHead {
            method: "GET".to_string(),
            path: "/".to_string(),
            raw_query: String::new(),
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn keep_alive_defaults() {
        let mut head = head_with(&[]);
        assert!(head.keep_alive());
        head.headers.push(("connection".to_string(), "close".to_string()));
        assert!(!head.keep_alive());
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let bytes = render_json_error_with(503, "overloaded", "try later", &[("retry-after", "1")]);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{head}");
        assert!(head.contains("\r\nretry-after: 1"), "{head}");
        assert!(head.contains("\r\nconnection: close"), "{head}");
        assert_eq!(body, "{\"error\":{\"code\":\"overloaded\",\"message\":\"try later\"}}");
        // content-length frames the body exactly.
        assert!(head.contains(&format!("content-length: {}", body.len())), "{head}");
        // 429 has a proper reason phrase for the rate limiter.
        assert_eq!(reason(429), "Too Many Requests");
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // `close` anywhere in the list closes, case-insensitively.
        assert!(!head_with(&[("connection", "close, te")]).keep_alive());
        assert!(!head_with(&[("connection", "te, Close")]).keep_alive());
        assert!(!head_with(&[("connection", " keep-alive ,CLOSE")]).keep_alive());
        // Tokens merely *containing* "close" do not close.
        assert!(head_with(&[("connection", "closed")]).keep_alive());
        assert!(head_with(&[("connection", "keep-alive")]).keep_alive());
        // Repeated Connection headers are one combined list.
        assert!(!head_with(&[("connection", "te"), ("connection", "close")]).keep_alive());
    }

    #[test]
    fn transfer_encoding_coding_list() {
        // Plain chunked, any case and padding.
        assert_eq!(
            body_kind(&head_with(&[("transfer-encoding", "chunked")])).unwrap(),
            BodyKind::Chunked
        );
        assert_eq!(
            body_kind(&head_with(&[("transfer-encoding", "  Chunked ")])).unwrap(),
            BodyKind::Chunked
        );
        // Unknown codings are 501, even alongside a final chunked.
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "gzip, chunked")])),
            Err(HttpError::NotImplemented(_))
        ));
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "identity")])),
            Err(HttpError::NotImplemented(_))
        ));
        // `chunked` token substrings don't count as chunked.
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "notchunked")])),
            Err(HttpError::NotImplemented(_))
        ));
        // chunked-not-final (or applied twice) is unambiguous framing
        // abuse: 400, not 501.
        assert!(matches!(
            body_kind(&head_with(&[("transfer-encoding", "chunked, chunked")])),
            Err(HttpError::BadRequest(_))
        ));
        // Repeated headers form one list.
        assert!(matches!(
            body_kind(&head_with(&[
                ("transfer-encoding", "gzip"),
                ("transfer-encoding", "chunked"),
            ])),
            Err(HttpError::NotImplemented(_))
        ));
        // An empty Transfer-Encoding contributes no codings: fall back
        // to Content-Length / no body.
        assert_eq!(
            body_kind(&head_with(&[("transfer-encoding", "")])).unwrap(),
            BodyKind::None
        );
        assert_eq!(
            body_kind(&head_with(&[("content-length", "12")])).unwrap(),
            BodyKind::Length(12)
        );
    }
}
