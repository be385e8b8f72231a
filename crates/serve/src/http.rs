//! A minimal, dependency-free HTTP/1.1 layer over `std::net`.
//!
//! Exactly the slice the service needs: `GET`/`POST` request parsing
//! with bounded header and body sizes, fixed-length responses, and
//! chunked transfer encoding for the streaming endpoint. Every
//! response closes its connection (`Connection: close`) — the service
//! optimizes for cheap, stateless exchanges, not connection reuse, and
//! one-shot connections keep the worker pool's queueing semantics
//! trivial to reason about.
//!
//! A client cannot stall the read: the whole request must arrive within
//! [`REQUEST_DEADLINE`], else the parse fails with `408`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Time a client has to deliver its whole request, head and body,
/// counted from the start of [`read_request`].
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, e.g. `/whatif`.
    pub target: String,
    /// Headers as `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request-parse failure: the status to answer with and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpParseError {
    /// The HTTP status code to respond with.
    pub status: u16,
    /// Human-readable cause, safe to echo.
    pub message: String,
}

fn parse_error(status: u16, message: impl Into<String>) -> HttpParseError {
    HttpParseError {
        status,
        message: message.into(),
    }
}

/// One read that must return by `deadline`: the socket's timeout is
/// the time left, so a client that trickles bytes cannot stretch it.
fn read_by(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, HttpParseError> {
    let timed_out = || parse_error(408, "request not received in time");
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(timed_out());
    }
    stream
        .set_read_timeout(Some(left))
        .map_err(|e| parse_error(400, format!("read failed: {e}")))?;
    stream.read(buf).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => timed_out(),
        _ => parse_error(400, format!("read failed: {e}")),
    })
}

/// Reads one request from the stream, within [`REQUEST_DEADLINE`].
///
/// # Errors
///
/// `Err(parse error)` carries the status to answer with (400 for
/// malformed requests, 408 for one not complete by the deadline, 413
/// for oversized ones, 505 for non-1.x versions); transport failures
/// surface as a 400-class error too, since nothing can be answered on
/// a dead socket anyway.
pub fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, HttpParseError> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // Accumulate until the blank line ending the head.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(parse_error(413, "request head too large"));
        }
        let n = read_by(stream, &mut buf, deadline)?;
        if n == 0 {
            return Err(parse_error(400, "connection closed mid-request"));
        }
        head.extend_from_slice(&buf[..n]);
    };
    let body_prefix = head.split_off(head_end + 4);
    head.truncate(head_end);

    let head_text =
        std::str::from_utf8(&head).map_err(|_| parse_error(400, "non-UTF-8 request head"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(parse_error(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(parse_error(505, "HTTP version not supported"));
    }

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| parse_error(400, "malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| parse_error(400, "invalid Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(parse_error(413, "request body too large"));
    }

    let mut body = body_prefix;
    if body.len() > content_length {
        return Err(parse_error(400, "body longer than Content-Length"));
    }
    while body.len() < content_length {
        let n = read_by(stream, &mut buf, deadline)?;
        if n == 0 {
            return Err(parse_error(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&buf[..n]);
        if body.len() > content_length {
            return Err(parse_error(400, "body longer than Content-Length"));
        }
    }

    Ok(HttpRequest {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body,
    })
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response and flushes it.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A chunked-transfer response in progress: one `write_chunk` per
/// streamed snapshot, then `finish` for the terminating zero chunk.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    finished: bool,
}

impl<'a> ChunkedWriter<'a> {
    /// Starts a 200 chunked response.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn start(
        stream: &'a mut TcpStream,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<Self> {
        let mut head = String::from(
            "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n",
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self {
            stream,
            finished: false,
        })
    }

    /// Writes one chunk and flushes it, so long-running campaigns
    /// surface snapshots as they happen.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if bytes.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", bytes.len())?;
        self.stream.write_all(bytes)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finished = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{Shutdown, TcpListener, TcpStream};

    /// Writes `raw` on a fresh loopback connection and shuts down its
    /// write half before `read_request` starts, so a short request ends
    /// at end-of-stream instead of waiting out [`REQUEST_DEADLINE`].
    fn parse_raw(raw: &[u8]) -> Result<HttpRequest, HttpParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        read_request(&mut stream)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_raw(
            b"POST /whatif HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nX-Extra: v\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/whatif");
        assert_eq!(req.body, b"body");
        assert_eq!(req.header("x-extra"), Some("v"));
        assert_eq!(req.header("X-EXTRA"), Some("v"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse_raw(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(parse_raw(b"BROKEN\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse_raw(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status,
            505
        );
        assert_eq!(
            parse_raw(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: nine\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_raw(huge.as_bytes()).unwrap_err().status, 413);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_bytes_never_panic_or_stall(
            raw in proptest::collection::vec(0..256u32, 0..2048),
            slack in 0..5usize,
        ) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let ascii: Vec<u8> = bytes.iter().map(|b| b & 0x7f).collect();
            let (line, end) = (b"POST /whatif HTTP/1.1\r\n".as_slice(), b"\r\n\r\n".as_slice());
            let declared = (bytes.len() + slack).saturating_sub(2);
            let length = format!("Content-Length: {declared}\r\n\r\n");
            // The bytes alone, and as a whole head raw and in 7 bits;
            // then after a valid request line: as they are, as 7-bit
            // header lines (one of them a Content-Length value), and as
            // a body declared two bytes short of to two bytes past its
            // length.
            for raw in [
                bytes.clone(),
                [&bytes, end].concat(),
                [&ascii, end].concat(),
                [line, &bytes].concat(),
                [line, &ascii, end].concat(),
                [line, b"Content-Length: ", &ascii, end].concat(),
                [line, length.as_bytes(), &bytes].concat(),
            ] {
                // Either a request or a status for malformed bytes.
                if let Err(e) = parse_raw(&raw) {
                    let shown = String::from_utf8_lossy(&raw);
                    prop_assert!([400, 413, 505].contains(&e.status), "{e:?} for {shown:?}");
                }
            }
        }
    }

    #[test]
    fn reasons_cover_the_emitted_statuses() {
        for status in [200, 400, 404, 405, 408, 413, 422, 500, 503, 505] {
            assert_ne!(reason(status), "Unknown");
        }
        assert_eq!(reason(418), "Unknown");
    }

    #[test]
    fn response_and_chunked_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut all = Vec::new();
            c.read_to_end(&mut all).unwrap();
            String::from_utf8(all).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        write_response(&mut stream, 200, &[("x-cache", "hit")], b"{\"ok\":true}").unwrap();
        drop(stream);
        let text = client.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("x-cache: hit\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut all = Vec::new();
            c.read_to_end(&mut all).unwrap();
            String::from_utf8(all).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut w = ChunkedWriter::start(&mut stream, &[]).unwrap();
        w.write_chunk(b"line one\n").unwrap();
        w.write_chunk(b"").unwrap(); // ignored, must not terminate
        w.write_chunk(b"line two\n").unwrap();
        w.finish().unwrap();
        drop(stream);
        let text = client.join().unwrap();
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("9\r\nline one\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
