//! A minimal blocking HTTP/1.1 client for the gateway's wire format.
//!
//! Exists so the integration tests and `examples/http_gateway.rs` can drive
//! the server over real loopback sockets without external dependencies. It
//! speaks exactly what the gateway serves: fixed-length JSON responses
//! ([`get`] / [`post`] / [`delete`], or [`Connection`] for keep-alive
//! reuse) and chunked NDJSON event streams ([`open_stream`]). Every read is
//! a read → feed loop over [`ResponseDecoder`], the same decoder the load
//! generator's non-blocking multiplexer drives.

use crate::http::{
    header_value, is_idle_timeout, status_reason, ResponseDecoder, ResponseEvent, ResponseHead,
};
use crate::json::{self, Json, JsonError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Timeout applied to every client socket: generous enough for a busy
/// loopback test machine, bounded enough that a hung server fails tests
/// instead of wedging them.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A complete (non-streaming) HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body (chunked bodies arrive de-chunked).
    pub body: Vec<u8>,
}

impl Response {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_value(&self.headers, name)
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, JsonError> {
        json::parse(std::str::from_utf8(&self.body).map_err(|_| JsonError {
            offset: 0,
            message: "body is not UTF-8",
        })?)
    }
}

/// One-shot `GET` (the connection is closed after the response).
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, None)
}

/// One-shot `POST` with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &Json) -> io::Result<Response> {
    request(addr, "POST", path, Some(body.encode().as_bytes()))
}

/// One-shot `DELETE`.
pub fn delete(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "DELETE", path, None)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<Response> {
    let mut conn = Connection::connect(addr)?;
    conn.request_with(method, path, body, true)
}

/// A request as wire bytes: `Host` and `Connection` headers, plus a JSON
/// `Content-Type` and `Content-Length` when there is a body.
pub fn request_bytes(
    method: &str,
    path: &str,
    host: SocketAddr,
    body: Option<&[u8]>,
    close: bool,
) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut out =
        format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n");
    if let Some(body) = body {
        out.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body.unwrap_or_default());
    out
}

/// A keep-alive client connection: sequential requests over one socket.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    decoder: ResponseDecoder,
    addr: SocketAddr,
}

impl Connection {
    /// Opens a connection to the gateway with the
    /// [`DEFAULT_CLIENT_TIMEOUT`].
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(DEFAULT_CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_CLIENT_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            decoder: ResponseDecoder::new(),
            addr,
        })
    }

    /// The server address this connection talks to.
    pub fn peer(&self) -> SocketAddr {
        self.addr
    }

    /// Sends a `GET` and reads the response, keeping the connection open.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request_with("GET", path, None, false)
    }

    /// Sends a `POST` with a JSON body, keeping the connection open.
    pub fn post(&mut self, path: &str, body: &Json) -> io::Result<Response> {
        self.request_with("POST", path, Some(body.encode().as_bytes()), false)
    }

    fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        close: bool,
    ) -> io::Result<Response> {
        self.send(method, path, body, close)?;
        let head = self.read_head()?;
        self.read_rest(head)
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        close: bool,
    ) -> io::Result<()> {
        self.stream
            .write_all(&request_bytes(method, path, self.addr, body, close))
    }

    fn read_head(&mut self) -> io::Result<ResponseHead> {
        match self.next_event()? {
            ResponseEvent::Head(head) => Ok(head),
            _ => Err(invalid("response body before its head")),
        }
    }

    /// Reads the body that follows `head` (NDJSON lines are rejoined with
    /// their newlines).
    fn read_rest(&mut self, head: ResponseHead) -> io::Result<Response> {
        let mut body = Vec::new();
        loop {
            match self.next_event()? {
                ResponseEvent::Line(line) => {
                    body.extend_from_slice(line.as_bytes());
                    body.push(b'\n');
                }
                ResponseEvent::End { body: rest } => {
                    body.extend_from_slice(&rest);
                    return Ok(Response {
                        status: head.status,
                        headers: head.headers,
                        body,
                    });
                }
                ResponseEvent::Head(_) => return Err(invalid("response head inside a body")),
            }
        }
    }

    /// The next decoded event, reading from the socket until one is
    /// complete.
    fn next_event(&mut self) -> io::Result<ResponseEvent> {
        let mut scratch = [0u8; 8 * 1024];
        loop {
            if let Some(event) = self.decoder.next_event()? {
                return Ok(event);
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => self.decoder.feed_eof(),
                Ok(n) => self.decoder.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(normalize_timeout(e)),
            }
        }
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Normalizes the platform-dependent socket-timeout kinds (`WouldBlock`
/// on Unix, `TimedOut` on Windows — see
/// [`is_idle_timeout`](crate::http::is_idle_timeout)) to `TimedOut`, so
/// callers that distinguish "server too slow" from "connection broken"
/// can match one kind on every platform.
fn normalize_timeout(e: io::Error) -> io::Error {
    if is_idle_timeout(&e) {
        io::Error::new(io::ErrorKind::TimedOut, e)
    } else {
        e
    }
}

/// Opens `GET {path}` and returns the NDJSON event stream. Fails with
/// [`io::ErrorKind::Other`] when the server answers non-200 (the error
/// message carries the status and body).
pub fn open_stream(addr: SocketAddr, path: &str) -> io::Result<EventStream> {
    let mut conn = Connection::connect(addr)?;
    conn.send("GET", path, None, true)?;
    let head = conn.read_head()?;
    if head.status != 200 {
        let response = conn.read_rest(head)?;
        return Err(io::Error::other(format!(
            "{} {}: {}",
            response.status,
            status_reason(response.status),
            String::from_utf8_lossy(&response.body),
        )));
    }
    Ok(EventStream { conn, done: false })
}

/// A live NDJSON event stream: iterates parsed JSON objects, one per line,
/// as the server flushes them. Dropping it mid-stream closes the socket —
/// which the gateway treats as a client hang-up, cancelling the job.
#[derive(Debug)]
pub struct EventStream {
    conn: Connection,
    done: bool,
}

impl Iterator for EventStream {
    type Item = io::Result<Json>;

    fn next(&mut self) -> Option<io::Result<Json>> {
        if self.done {
            return None;
        }
        let item = match self.conn.next_event() {
            Ok(ResponseEvent::Line(line)) => {
                return Some(
                    json::parse(&line)
                        .map_err(|e| invalid(format!("bad event line {line:?}: {e}"))),
                )
            }
            Ok(ResponseEvent::End { .. }) => None,
            Ok(ResponseEvent::Head(_)) => Some(Err(invalid("response head inside a stream"))),
            Err(e) => Some(Err(e)),
        };
        self.done = true;
        item
    }
}
