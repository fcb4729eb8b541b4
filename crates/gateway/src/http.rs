//! Hand-rolled HTTP/1.1 wire handling: incremental request parsing,
//! response encoding, and incremental response decoding.
//!
//! The gateway speaks the small, boring subset of HTTP/1.1 that a sampling
//! frontend needs — request line + headers + `Content-Length` bodies on the
//! way in; fixed-length or `Transfer-Encoding: chunked` responses on the
//! way out; keep-alive connection reuse. Everything is bounded: header
//! block, header count, and body size all have hard caps so a misbehaving
//! client cannot balloon the server's memory.
//!
//! Parsing is **incremental and non-blocking by construction**: the
//! readiness-loop server appends whatever bytes the socket had into a
//! per-connection buffer and asks [`RequestParser::parse`] whether a
//! complete request is in there yet. The client side mirrors it:
//! [`ResponseDecoder`] takes response bytes as they arrive and yields the
//! head, the NDJSON lines of a streamed body, and the end of each
//! response. Neither does I/O, so the same code is exercised
//! byte-for-byte by unit tests, the event loop, the blocking
//! [`client`](crate::client), and the load generator's multiplexer.

use crate::json::Json;
use std::io;

/// Maximum bytes accepted for the request line plus all headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum number of request headers.
pub const MAX_HEADERS: usize = 64;
/// Terminating frame of a chunked response body (zero-length chunk, no
/// trailers).
pub const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless a `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the request was HTTP/1.0 (changes the keep-alive default).
    pub http10: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }

    /// Whether the connection should stay open after the response
    /// (`Connection` header, falling back to the HTTP-version default).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => !self.http10,
        }
    }

    /// The path split into non-empty `/`-separated segments.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why buffered bytes can never become a valid request.
///
/// Both variants are fatal to the connection; "not enough bytes yet" is
/// not an error but [`Parse::Incomplete`]. I/O-level conditions (EOF,
/// timeouts) are the transport's business, not the parser's — which is
/// also what keeps `WouldBlock`-vs-`TimedOut` platform drift out of the
/// parsing layer entirely (see [`is_idle_timeout`]).
#[derive(Debug)]
pub enum RequestError {
    /// The bytes on the wire are not a well-formed HTTP/1.x request.
    Malformed(&'static str),
    /// The request exceeded a size bound (header block or body).
    TooLarge(&'static str),
}

/// One [`RequestParser::parse`] verdict over a byte buffer.
#[derive(Debug)]
pub enum Parse {
    /// No complete request yet — read more bytes and parse again.
    Incomplete,
    /// A complete request occupying the first `consumed` buffer bytes
    /// (strip them before parsing the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request consumed, including any
        /// tolerated stray CRLFs before the request line.
        consumed: usize,
    },
}

/// Incremental HTTP/1.1 request parser.
///
/// Stateless between calls: feed it the connection's *entire* unconsumed
/// buffer each time. Cheap in practice — requests are small and the scan
/// restarts only while a request is still arriving.
#[derive(Debug, Clone, Copy)]
pub struct RequestParser {
    max_body: usize,
}

impl RequestParser {
    /// A parser that rejects bodies larger than `max_body` with
    /// [`RequestError::TooLarge`] (without ever buffering them).
    pub fn new(max_body: usize) -> Self {
        RequestParser { max_body }
    }

    /// Tries to parse one complete request from the front of `buf`.
    pub fn parse(&self, buf: &[u8]) -> Result<Parse, RequestError> {
        // Tolerate (bounded) stray CRLFs between keep-alive requests, as
        // RFC 9112 recommends.
        let start = buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        if start > 8 {
            return Err(RequestError::Malformed("empty request line"));
        }
        if start == buf.len() {
            return Ok(Parse::Incomplete);
        }

        // The header block ends at the first empty line.
        let Some(head_end) = find_head_end(&buf[start..]).map(|e| start + e) else {
            if buf.len() - start > MAX_HEADER_BYTES {
                return Err(RequestError::TooLarge("header block too large"));
            }
            return Ok(Parse::Incomplete);
        };
        if head_end - start > MAX_HEADER_BYTES {
            return Err(RequestError::TooLarge("header block too large"));
        }
        let head = std::str::from_utf8(&buf[start..head_end])
            .map_err(|_| RequestError::Malformed("non-UTF-8 header bytes"))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

        // Request line.
        let line = lines.next().unwrap_or("");
        let mut parts = line.split(' ').filter(|p| !p.is_empty());
        let method = parts
            .next()
            .ok_or(RequestError::Malformed("missing method"))?
            .to_string();
        let target = parts
            .next()
            .ok_or(RequestError::Malformed("missing request target"))?;
        let version = parts
            .next()
            .ok_or(RequestError::Malformed("missing HTTP version"))?;
        if parts.next().is_some() {
            return Err(RequestError::Malformed("malformed request line"));
        }
        let http10 = match version {
            "HTTP/1.1" => false,
            "HTTP/1.0" => true,
            _ => return Err(RequestError::Malformed("unsupported HTTP version")),
        };
        if !method.chars().all(|c| c.is_ascii_alphabetic()) {
            return Err(RequestError::Malformed("invalid method"));
        }
        let path = target.split('?').next().unwrap_or(target).to_string();
        if !path.starts_with('/') {
            return Err(RequestError::Malformed("request target must be a path"));
        }

        // Headers until the blank line.
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(RequestError::TooLarge("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(RequestError::Malformed("header without ':'"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(RequestError::Malformed("invalid header name"));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut request = Request {
            method,
            path,
            headers,
            body: Vec::new(),
            http10,
        };
        if request
            .header("transfer-encoding")
            .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
        {
            return Err(RequestError::Malformed(
                "chunked request bodies are not supported",
            ));
        }
        let length = match request.header("content-length") {
            None => 0,
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed("invalid Content-Length"))?,
        };
        if length > self.max_body {
            return Err(RequestError::TooLarge("request body too large"));
        }
        let body_end = head_end + length;
        if buf.len() < body_end {
            return Ok(Parse::Incomplete);
        }
        request.body = buf[head_end..body_end].to_vec();
        Ok(Parse::Complete {
            request,
            consumed: body_end,
        })
    }
}

/// First value of header `name` (lowercase) among `(name, value)` pairs.
pub(crate) fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Index just past the blank line terminating the header block, if one is
/// present. Lines are LF-terminated with an optional preceding CR.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let mut line_end = i;
        if line_end > line_start && buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        if line_end == line_start {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

/// Whether `e` is an idle-timeout condition on a socket.
///
/// Platforms disagree on what a timed-out or not-ready socket read/write
/// returns: Unix surfaces `WouldBlock` (EAGAIN), Windows `TimedOut`, and
/// non-blocking sockets report `WouldBlock` everywhere. Every timeout and
/// readiness decision in the gateway and its client goes through this one
/// predicate so keep-alive reaping and wedge-cancel-refund behave
/// identically on every platform.
pub fn is_idle_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Canonical reason phrase for the status codes the gateway emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A complete fixed-length response as bytes, for write-buffer queueing.
pub fn response_bytes(status: u16, content_type: &str, body: &[u8], close: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        status_reason(status),
        content_type,
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

/// A JSON response as bytes.
pub fn json_bytes(status: u16, body: &Json, close: bool) -> Vec<u8> {
    response_bytes(status, "application/json", body.encode().as_bytes(), close)
}

/// A `{"error": message}` response as bytes.
pub fn error_bytes(status: u16, message: &str, close: bool) -> Vec<u8> {
    json_bytes(
        status,
        &Json::obj(vec![("error", Json::str(message))]),
        close,
    )
}

/// The response head opening a chunked body (streaming responses always
/// close the connection when done).
pub fn chunked_head(status: u16, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        status_reason(status),
        content_type,
    )
    .into_bytes()
}

/// Appends one chunk frame (size line + payload + CRLF) to `out`. `data`
/// must be non-empty — an empty chunk would terminate the body (that is
/// [`CHUNK_TERMINATOR`]'s job).
pub fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    debug_assert!(!data.is_empty(), "empty chunks terminate the stream");
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Longest chunk-size line accepted, CRLF included. The gateway sends
/// bare hex sizes of a few digits; anything this long is hostile or
/// corrupt.
const MAX_CHUNK_LINE: usize = 32;

/// Why received bytes can never become a valid response.
///
/// "Not enough bytes yet" is not an error but `Ok(None)` from
/// [`ResponseDecoder::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes are not a well-formed HTTP/1.x response.
    Malformed(&'static str),
    /// A size bound was exceeded (response head, chunk-size line).
    TooLarge(&'static str),
    /// The connection ended before the response was complete.
    Truncated,
    /// An NDJSON body ended with bytes after its last newline.
    UnterminatedLine,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Malformed(what) => write!(f, "malformed response: {what}"),
            DecodeError::TooLarge(what) => write!(f, "response too large: {what}"),
            DecodeError::Truncated => f.write_str("connection closed mid-response"),
            DecodeError::UnterminatedLine => f.write_str("final NDJSON line has no newline"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        let kind = match e {
            DecodeError::Truncated => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e)
    }
}

/// A response's status line and headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }
}

/// One step of a decoded response, in wire order: a `Head`, then the
/// body's `Line`s (NDJSON bodies only), then `End`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseEvent {
    /// The status line and headers.
    Head(ResponseHead),
    /// One line of an `application/x-ndjson` body, without its newline,
    /// as soon as the newline has arrived.
    Line(String),
    /// The response is complete. `body` holds the whole body of a
    /// non-NDJSON response (an NDJSON body came out as lines). Bytes
    /// after it belong to the next response on the connection.
    End {
        /// The de-chunked body of a non-NDJSON response.
        body: Vec<u8>,
    },
}

/// Where the decoder stands in the current response.
#[derive(Debug, Default, Clone, Copy)]
enum Framing {
    /// Waiting for a complete status line and header block.
    #[default]
    Head,
    /// Inside a `Content-Length` body with this many bytes still due.
    Fixed { remaining: usize },
    /// At a chunk-size line.
    ChunkSize,
    /// Inside chunk data with this many bytes still due.
    ChunkData { remaining: usize },
    /// At the CRLF that closes a chunk's data.
    ChunkEnd,
    /// Past the zero chunk, skipping trailers up to the blank line.
    Trailer,
}

/// Incremental HTTP/1.1 response decoder — the client-side twin of
/// [`RequestParser`].
///
/// Feed it bytes as they arrive ([`feed`](Self::feed)), tell it when the
/// peer closed ([`feed_eof`](Self::feed_eof)), and pull
/// [`ResponseEvent`]s with [`next_event`](Self::next_event). It never does I/O, so
/// a blocking reader and a non-blocking multiplexer drive the same code,
/// and tests can split its input anywhere. Buffers grow only by bytes
/// received: a hostile `Content-Length` or chunk size allocates nothing
/// up front. Bytes past the end of one response stay buffered for the
/// next one on a keep-alive connection.
#[derive(Debug, Default)]
pub struct ResponseDecoder {
    /// Received bytes; `buf[pos..]` is not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    framing: Framing,
    /// The current response is `application/x-ndjson`: its body comes
    /// out as lines.
    ndjson: bool,
    /// De-chunked body bytes not yet handed out.
    body: Vec<u8>,
    /// The peer closed the connection.
    eof: bool,
}

impl ResponseDecoder {
    /// A decoder at the start of a connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes received from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Records that the peer closed the connection: once the buffered
    /// bytes are decoded, a response still in progress (or not yet
    /// begun) is [`DecodeError::Truncated`].
    pub fn feed_eof(&mut self) {
        self.eof = true;
    }

    /// The next event the buffered bytes complete, or `Ok(None)` when
    /// more bytes are needed.
    pub fn next_event(&mut self) -> Result<Option<ResponseEvent>, DecodeError> {
        loop {
            if self.ndjson {
                if let Some(nl) = self.body.iter().position(|&b| b == b'\n') {
                    let mut line: Vec<u8> = self.body.drain(..=nl).collect();
                    line.pop();
                    let line = String::from_utf8(line)
                        .map_err(|_| DecodeError::Malformed("non-UTF-8 body line"))?;
                    return Ok(Some(ResponseEvent::Line(line)));
                }
            }
            let avail = &self.buf[self.pos..];
            match self.framing {
                Framing::Head => {
                    let Some(end) = find_head_end(avail) else {
                        if avail.len() > MAX_HEADER_BYTES {
                            return Err(DecodeError::TooLarge("response head"));
                        }
                        return self.need_more();
                    };
                    if end > MAX_HEADER_BYTES {
                        return Err(DecodeError::TooLarge("response head"));
                    }
                    let head = parse_head(&avail[..end])?;
                    self.pos += end;
                    self.begin_body(&head)?;
                    return Ok(Some(ResponseEvent::Head(head)));
                }
                Framing::Fixed { remaining: 0 } => return self.end(),
                Framing::Fixed { remaining } | Framing::ChunkData { remaining } => {
                    if avail.is_empty() {
                        return self.need_more();
                    }
                    let take = remaining.min(avail.len());
                    self.body.extend_from_slice(&avail[..take]);
                    self.pos += take;
                    self.framing = match self.framing {
                        Framing::Fixed { .. } => Framing::Fixed {
                            remaining: remaining - take,
                        },
                        _ if take == remaining => Framing::ChunkEnd,
                        _ => Framing::ChunkData {
                            remaining: remaining - take,
                        },
                    };
                }
                Framing::ChunkSize => {
                    let window = &avail[..avail.len().min(MAX_CHUNK_LINE)];
                    let Some(nl) = window.iter().position(|&b| b == b'\n') else {
                        if window.len() == MAX_CHUNK_LINE {
                            return Err(DecodeError::TooLarge("chunk-size line"));
                        }
                        return self.need_more();
                    };
                    let size = parse_chunk_size(&avail[..nl + 1])?;
                    self.pos += nl + 1;
                    self.framing = if size == 0 {
                        Framing::Trailer
                    } else {
                        Framing::ChunkData { remaining: size }
                    };
                }
                Framing::ChunkEnd => {
                    if avail.len() < 2 {
                        return self.need_more();
                    }
                    if &avail[..2] != b"\r\n" {
                        return Err(DecodeError::Malformed("chunk not CRLF-terminated"));
                    }
                    self.pos += 2;
                    self.framing = Framing::ChunkSize;
                }
                Framing::Trailer => {
                    let Some(nl) = avail.iter().position(|&b| b == b'\n') else {
                        if avail.len() > MAX_HEADER_BYTES {
                            return Err(DecodeError::TooLarge("trailer line"));
                        }
                        return self.need_more();
                    };
                    self.pos += nl + 1;
                    if avail[..nl]
                        .strip_suffix(b"\r")
                        .unwrap_or(&avail[..nl])
                        .is_empty()
                    {
                        return self.end();
                    }
                }
            }
        }
    }

    /// Picks the body framing (and line splitting) the head announces.
    fn begin_body(&mut self, head: &ResponseHead) -> Result<(), DecodeError> {
        self.framing = match head.header("transfer-encoding") {
            Some(v) if v.eq_ignore_ascii_case("chunked") => Framing::ChunkSize,
            Some(_) => return Err(DecodeError::Malformed("unsupported Transfer-Encoding")),
            None => match head.header("content-length") {
                Some(v) => Framing::Fixed {
                    remaining: v
                        .parse()
                        .map_err(|_| DecodeError::Malformed("invalid Content-Length"))?,
                },
                None => {
                    return Err(DecodeError::Malformed(
                        "response has neither Content-Length nor chunked framing",
                    ))
                }
            },
        };
        self.ndjson = head
            .header("content-type")
            .is_some_and(|v| v.starts_with("application/x-ndjson"));
        Ok(())
    }

    /// Closes the current response and readies the decoder for the next.
    fn end(&mut self) -> Result<Option<ResponseEvent>, DecodeError> {
        self.framing = Framing::Head;
        let body = std::mem::take(&mut self.body);
        if std::mem::take(&mut self.ndjson) && !body.is_empty() {
            return Err(DecodeError::UnterminatedLine);
        }
        Ok(Some(ResponseEvent::End { body }))
    }

    fn need_more(&self) -> Result<Option<ResponseEvent>, DecodeError> {
        if self.eof {
            Err(DecodeError::Truncated)
        } else {
            Ok(None)
        }
    }
}

/// Parses `HTTP/1.x STATUS REASON` and the header lines of a complete
/// head block.
fn parse_head(block: &[u8]) -> Result<ResponseHead, DecodeError> {
    let text = std::str::from_utf8(block)
        .map_err(|_| DecodeError::Malformed("non-UTF-8 response head"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
        return Err(DecodeError::Malformed("bad status line"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(DecodeError::Malformed("bad status code"))?;
    let mut headers = Vec::new();
    for line in lines.take_while(|l| !l.is_empty()) {
        if headers.len() >= MAX_HEADERS {
            return Err(DecodeError::TooLarge("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(DecodeError::Malformed("header without ':'"))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(ResponseHead { status, headers })
}

/// The size on a CRLF-terminated chunk-size line (extensions ignored).
fn parse_chunk_size(line: &[u8]) -> Result<usize, DecodeError> {
    let line = line.strip_suffix(b"\r\n").ok_or(DecodeError::Malformed(
        "chunk-size line not CRLF-terminated",
    ))?;
    let digits = line.split(|&b| b == b';').next().unwrap_or_default();
    if digits.is_empty() {
        return Err(DecodeError::Malformed("empty chunk size"));
    }
    digits.iter().try_fold(0usize, |size, &b| {
        let digit = (b as char)
            .to_digit(16)
            .ok_or(DecodeError::Malformed("bad chunk size"))?;
        size.checked_mul(16)
            .and_then(|s| s.checked_add(digit as usize))
            .ok_or(DecodeError::TooLarge("chunk size overflows"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a buffer expected to hold exactly one complete request.
    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        match RequestParser::new(1024).parse(bytes)? {
            Parse::Complete { request, consumed } => {
                assert_eq!(consumed, bytes.len(), "whole buffer consumed");
                Ok(request)
            }
            Parse::Incomplete => panic!("complete request parsed as incomplete"),
        }
    }

    #[test]
    fn parses_a_get_request() {
        let req =
            parse(b"GET /v1/metrics?verbose=1 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/metrics");
        assert_eq!(req.path_segments(), vec!["v1", "metrics"]);
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req =
            parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"seed\":42}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"seed\":42}");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive());
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive(), "HTTP/1.0 defaults to close");
        let old_keep = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_keep.keep_alive());
    }

    #[test]
    fn incremental_parsing_reports_incomplete_until_the_request_lands() {
        let parser = RequestParser::new(1024);
        let full = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"seed\":42}";
        // Every strict prefix is Incomplete, never an error.
        for cut in 0..full.len() {
            assert!(
                matches!(parser.parse(&full[..cut]), Ok(Parse::Incomplete)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let Ok(Parse::Complete { request, consumed }) = parser.parse(full) else {
            panic!("full request must parse");
        };
        assert_eq!(consumed, full.len());
        assert_eq!(request.body, b"{\"seed\":42}");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let parser = RequestParser::new(1024);
        let buf = b"GET /healthz HTTP/1.1\r\n\r\n\r\nDELETE /v1/jobs/3 HTTP/1.1\r\n\r\n".to_vec();
        let Ok(Parse::Complete { request, consumed }) = parser.parse(&buf) else {
            panic!("first request must parse");
        };
        assert_eq!(request.path, "/healthz");
        // The stray CRLF between requests is tolerated (charged to the
        // *second* request's consumption).
        let Ok(Parse::Complete { request, consumed }) = parser.parse(&buf[consumed..]) else {
            panic!("second request must parse");
        };
        assert_eq!(request.method, "DELETE");
        assert_eq!(request.path_segments(), vec!["v1", "jobs", "3"]);
        assert_eq!(consumed, buf.len() - 25, "second parse consumed the rest");
        // An empty buffer afterwards is simply incomplete; EOF handling is
        // the transport's job.
        assert!(matches!(parser.parse(b""), Ok(Parse::Incomplete)));
    }

    #[test]
    fn unbounded_stray_crlfs_are_rejected() {
        let parser = RequestParser::new(1024);
        assert!(matches!(
            parser.parse(&b"\r\n".repeat(8)),
            Err(RequestError::Malformed("empty request line"))
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for (bytes, what) in [
            (&b"GARBAGE\r\n\r\n"[..], "no target"),
            (b"GET /x HTTP/2\r\n\r\n", "bad version"),
            (b"GET x HTTP/1.1\r\n\r\n", "non-path target"),
            (b"G@T /x HTTP/1.1\r\n\r\n", "bad method"),
            (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", "bad header"),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                "bad length",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "chunked body",
            ),
        ] {
            assert!(
                matches!(parse(bytes), Err(RequestError::Malformed(_))),
                "{what} should be malformed"
            );
        }
    }

    #[test]
    fn size_bounds_are_enforced() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(RequestError::TooLarge(_))
        ));
        let huge = format!(
            "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(RequestError::TooLarge(_))
        ));
        // The header cap fires even before the blank line arrives — an
        // attacker cannot stall a connection open by trickling an
        // endless header block.
        let unterminated = format!("GET /x HTTP/1.1\r\nA: {}", "y".repeat(MAX_HEADER_BYTES));
        assert!(matches!(
            RequestParser::new(1024).parse(unterminated.as_bytes()),
            Err(RequestError::TooLarge(_))
        ));
        let many = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "A: b\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            parse(many.as_bytes()),
            Err(RequestError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_bodies_stay_incomplete_for_the_deadline_to_reap() {
        // A body that never finishes arriving is not a parse error — the
        // connection's whole-request deadline is what reaps it.
        assert!(matches!(
            RequestParser::new(1024).parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Ok(Parse::Incomplete)
        ));
    }

    #[test]
    fn timeout_kinds_are_classified_uniformly() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert!(is_idle_timeout(&io::Error::new(kind, "t")), "{kind:?}");
        }
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(!is_idle_timeout(&io::Error::new(kind, "t")), "{kind:?}");
        }
    }

    #[test]
    fn responses_have_the_expected_shape() {
        let out = json_bytes(200, &Json::obj(vec![("ok", Json::Bool(true))]), false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let out = error_bytes(404, "unknown job", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"unknown job\"}"));
    }

    /// Feeds `bytes` in pieces ending at each of `cuts` (then the rest)
    /// and collects every event the decoder yields.
    fn decode_split(bytes: &[u8], cuts: &[usize]) -> Result<Vec<ResponseEvent>, DecodeError> {
        let mut decoder = ResponseDecoder::new();
        let mut events = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([bytes.len()].iter()) {
            decoder.feed(&bytes[from..cut]);
            from = cut;
            while let Some(event) = decoder.next_event()? {
                events.push(event);
            }
        }
        Ok(events)
    }

    fn decode(bytes: &[u8]) -> Result<Vec<ResponseEvent>, DecodeError> {
        decode_split(bytes, &[])
    }

    /// An NDJSON stream framed by the gateway's own encoders: one event
    /// per chunk, plus a chunk holding two lines and a line split across
    /// two chunks.
    fn ndjson_stream() -> Vec<u8> {
        let mut out = chunked_head(200, "application/x-ndjson");
        encode_chunk(&mut out, b"{\"event\":\"sample\",\"node\":1}\n");
        encode_chunk(
            &mut out,
            b"{\"event\":\"progress\"}\n{\"event\":\"sample\",\"node\":2}\n",
        );
        encode_chunk(&mut out, b"{\"event\":\"do");
        encode_chunk(&mut out, b"ne\",\"status\":\"completed\"}\n");
        out.extend_from_slice(CHUNK_TERMINATOR);
        out
    }

    /// Every response shape the gateway emits, each as its wire bytes.
    fn corpus() -> Vec<Vec<u8>> {
        let ok = json_bytes(200, &Json::obj(vec![("job_id", Json::UInt(7))]), false);
        let shed = error_bytes(503, "admission queue full", true);
        let mut pipelined = json_bytes(202, &Json::obj(vec![("stream", Json::str("/s"))]), false);
        pipelined.extend_from_slice(&error_bytes(404, "unknown job", false));
        vec![ok, shed, ndjson_stream(), pipelined]
    }

    #[test]
    fn decoder_decodes_the_gateway_encoders() {
        let events = decode(&ndjson_stream()).unwrap();
        let ResponseEvent::Head(head) = &events[0] else {
            panic!("head first, got {events:?}");
        };
        assert_eq!(head.status, 200);
        assert_eq!(head.header("transfer-encoding"), Some("chunked"));
        let lines: Vec<_> = events[1..events.len() - 1]
            .iter()
            .map(|e| match e {
                ResponseEvent::Line(line) => line.as_str(),
                other => panic!("expected a line, got {other:?}"),
            })
            .collect();
        assert_eq!(
            lines,
            [
                "{\"event\":\"sample\",\"node\":1}",
                "{\"event\":\"progress\"}",
                "{\"event\":\"sample\",\"node\":2}",
                "{\"event\":\"done\",\"status\":\"completed\"}",
            ]
        );
        assert_eq!(events.last(), Some(&ResponseEvent::End { body: vec![] }));

        // Two keep-alive responses back to back: the second decodes from
        // the bytes the first left behind.
        let events = decode(&corpus()[3]).unwrap();
        let statuses: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ResponseEvent::Head(h) => Some(h.status),
                _ => None,
            })
            .collect();
        assert_eq!(statuses, [202, 404]);
        assert_eq!(
            events[3],
            ResponseEvent::End {
                body: b"{\"error\":\"unknown job\"}".to_vec()
            }
        );
    }

    #[test]
    fn decoder_events_do_not_depend_on_split_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5EED_D1CE);
        for bytes in corpus() {
            let whole = decode(&bytes).unwrap();
            assert!(matches!(whole.last(), Some(ResponseEvent::End { .. })));
            let bytewise: Vec<usize> = (1..bytes.len()).collect();
            assert_eq!(decode_split(&bytes, &bytewise).unwrap(), whole);
            for _ in 0..200 {
                let pieces = rng.gen_range(1..8usize);
                let mut cuts: Vec<usize> =
                    (0..pieces).map(|_| rng.gen_range(0..bytes.len())).collect();
                cuts.sort_unstable();
                assert_eq!(decode_split(&bytes, &cuts).unwrap(), whole, "cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn hostile_sizes_allocate_only_what_arrived() {
        // A corrupt Content-Length must not be allocated up front: the
        // decoder waits for bytes, and the close reports truncation.
        let mut decoder = ResponseDecoder::new();
        decoder.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc");
        assert!(matches!(
            decoder.next_event(),
            Ok(Some(ResponseEvent::Head(_)))
        ));
        assert_eq!(decoder.next_event(), Ok(None));
        decoder.feed_eof();
        assert_eq!(decoder.next_event(), Err(DecodeError::Truncated));

        // Same for a 256 TiB chunk.
        let mut stream = chunked_head(200, "application/x-ndjson");
        stream.extend_from_slice(b"ffffffffffff\r\n{\"a\":1}\n");
        let mut decoder = ResponseDecoder::new();
        decoder.feed(&stream);
        assert!(matches!(
            decoder.next_event(),
            Ok(Some(ResponseEvent::Head(_)))
        ));
        assert_eq!(
            decoder.next_event(),
            Ok(Some(ResponseEvent::Line("{\"a\":1}".into())))
        );
        assert_eq!(decoder.next_event(), Ok(None));
    }

    #[test]
    fn chunk_size_lines_that_overflow_or_run_long_are_rejected() {
        let head = chunked_head(200, "application/x-ndjson");
        for (line, what) in [
            (&b"10000000000000000\r\n"[..], "overflows usize"),
            (&b"ffffffffffffffffffffffff\r\n"[..], "overflows usize"),
            (&[b'0'; 64][..], "runs past the line cap without a newline"),
        ] {
            let mut bytes = head.clone();
            bytes.extend_from_slice(line);
            assert!(
                matches!(decode(&bytes), Err(DecodeError::TooLarge(_))),
                "{what}"
            );
        }
        for (line, what) in [
            (&b"zz\r\n"[..], "not hex"),
            (&b"\r\n"[..], "empty"),
            (&b"5\n"[..], "bare LF"),
            (&b"3\r\nabcXY"[..], "data not CRLF-terminated"),
        ] {
            let mut bytes = head.clone();
            bytes.extend_from_slice(line);
            assert!(
                matches!(decode(&bytes), Err(DecodeError::Malformed(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn bodies_truncated_before_their_end_are_errors() {
        let stream = ndjson_stream();
        let fixed = json_bytes(200, &Json::obj(vec![("ok", Json::Bool(true))]), true);
        for bytes in [&stream[..], &fixed[..]] {
            for cut in [0, 10, bytes.len() - 3, bytes.len() - 1] {
                let mut decoder = ResponseDecoder::new();
                decoder.feed(&bytes[..cut]);
                decoder.feed_eof();
                let outcome = loop {
                    match decoder.next_event() {
                        Ok(Some(_)) => {}
                        other => break other,
                    }
                };
                assert_eq!(outcome, Err(DecodeError::Truncated), "cut at {cut}");
            }
        }
    }

    #[test]
    fn a_final_ndjson_line_without_a_newline_is_an_error() {
        let mut bytes = chunked_head(200, "application/x-ndjson");
        encode_chunk(&mut bytes, b"{\"event\":\"sample\"}\n{\"event\":\"done\"}");
        bytes.extend_from_slice(CHUNK_TERMINATOR);
        let mut decoder = ResponseDecoder::new();
        decoder.feed(&bytes);
        assert!(matches!(
            decoder.next_event(),
            Ok(Some(ResponseEvent::Head(_)))
        ));
        assert!(matches!(
            decoder.next_event(),
            Ok(Some(ResponseEvent::Line(_)))
        ));
        assert_eq!(decoder.next_event(), Err(DecodeError::UnterminatedLine));
    }

    #[test]
    fn malformed_responses_are_rejected() {
        for (bytes, what) in [
            (&b"SPDY/3 200 OK\r\n\r\n"[..], "not HTTP/1.x"),
            (b"HTTP/1.1 OK\r\n\r\n", "no status code"),
            (b"HTTP/1.1 200 OK\r\nNoColon\r\n\r\n", "bad header"),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
                "bad length",
            ),
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
                "bad coding",
            ),
            (b"HTTP/1.1 200 OK\r\n\r\n", "no framing"),
        ] {
            assert!(
                matches!(decode(bytes), Err(DecodeError::Malformed(_))),
                "{what}"
            );
        }
        let huge = format!("HTTP/1.1 200 OK\r\nA: {}", "y".repeat(MAX_HEADER_BYTES));
        assert!(matches!(
            decode(huge.as_bytes()),
            Err(DecodeError::TooLarge(_))
        ));
    }
}
