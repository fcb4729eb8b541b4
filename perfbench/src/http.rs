//! The benchmark's own HTTP/1.1 client over `std::net::TcpStream`: one
//! request/response exchange with `Content-Length` bodies, and a reader for
//! chunked NDJSON streams. It depends on no program code, so a change to the
//! program's client or decoder cannot change the instrument.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on any single response body or stream line the benchmark
/// will buffer.
const MAX_BODY: usize = 64 << 20;

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Response bytes read so far (head and body), for wire-size metrics.
    pub bytes_read: u64,
}

/// A response head: status and the headers the client acts on.
#[derive(Debug)]
pub struct Head {
    pub status: u16,
    pub content_length: Option<usize>,
    pub chunked: bool,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(16 * 1024, stream),
            bytes_read: 0,
        })
    }

    /// Sends one request; `body` goes out with a `Content-Length`.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        close: bool,
    ) -> io::Result<()> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\n",
            if close { "close" } else { "keep-alive" }
        )
        .into_bytes();
        if let Some(body) = body {
            req.extend_from_slice(
                format!(
                    "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            req.extend_from_slice(body);
        } else {
            req.extend_from_slice(b"\r\n");
        }
        self.reader.get_mut().write_all(&req)
    }

    fn line(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        buf.clear();
        let n = (&mut self.reader)
            .take(MAX_BODY as u64)
            .read_until(b'\n', buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.bytes_read += n as u64;
        while matches!(buf.last(), Some(b'\n' | b'\r')) {
            buf.pop();
        }
        Ok(())
    }

    /// Reads a response head.
    pub fn read_head(&mut self) -> io::Result<Head> {
        let mut line = Vec::new();
        self.line(&mut line)?;
        let status_line = String::from_utf8_lossy(&line).into_owned();
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
        let mut head = Head {
            status,
            content_length: None,
            chunked: false,
        };
        loop {
            self.line(&mut line)?;
            if line.is_empty() {
                return Ok(head);
            }
            let text = String::from_utf8_lossy(&line).to_ascii_lowercase();
            if let Some((name, value)) = text.split_once(':') {
                match name.trim() {
                    "content-length" => {
                        let n = value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| bad("bad content-length"))?;
                        if n > MAX_BODY {
                            return Err(bad("response body too large"));
                        }
                        head.content_length = Some(n);
                    }
                    "transfer-encoding" => head.chunked = value.contains("chunked"),
                    _ => {}
                }
            }
        }
    }

    /// Reads a `Content-Length` body.
    pub fn read_body(&mut self, head: &Head) -> io::Result<Vec<u8>> {
        let mut body = vec![0; head.content_length.unwrap_or(0)];
        self.reader.read_exact(&mut body)?;
        self.bytes_read += body.len() as u64;
        Ok(body)
    }

    /// Reads the next chunk of a chunked body into `out`; `Ok(false)` at
    /// the terminating zero-length chunk.
    pub fn read_chunk(&mut self, out: &mut Vec<u8>) -> io::Result<bool> {
        let mut line = Vec::new();
        self.line(&mut line)?;
        let text = String::from_utf8_lossy(&line);
        let size_text = text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| bad(format!("bad chunk size `{text}`")))?;
        if size > MAX_BODY {
            return Err(bad("chunk too large"));
        }
        out.clear();
        if size == 0 {
            // Trailer section ends at an empty line.
            loop {
                self.line(&mut line)?;
                if line.is_empty() {
                    return Ok(false);
                }
            }
        }
        out.resize(size, 0);
        self.reader.read_exact(out)?;
        let mut crlf = [0u8; 2];
        self.reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk not followed by CRLF"));
        }
        self.bytes_read += size as u64 + 2;
        Ok(true)
    }
}

/// A one-shot `GET` on a fresh connection: status and body.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::connect(addr)?;
    conn.send("GET", path, None, true)?;
    let head = conn.read_head()?;
    let body = conn.read_body(&head)?;
    Ok((head.status, body))
}
