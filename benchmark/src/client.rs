//! A minimal HTTP/1.1 client over real loopback sockets: one request
//! per connection, as eh-serve answers with `connection: close`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `x-cache` header (`hit`, `miss`, `coalesced`), if any.
    pub cache: Option<String>,
    /// Response body.
    pub body: String,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Connection, I/O and malformed-response failures, as text.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_read_timeout(Some(Duration::from_secs(150)))
        .map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: benchmark\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).map_err(io)?;
    conn.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw).map_err(io)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let cache = head
        .lines()
        .find_map(|l| l.strip_prefix("x-cache: "))
        .map(str::to_owned);
    Ok(Reply {
        status,
        cache,
        body: body.to_owned(),
    })
}

/// A reply that must be a 200, or the failure to report.
pub fn ok(reply: Result<Reply, String>) -> Result<Reply, String> {
    let reply = reply?;
    if reply.status == 200 {
        Ok(reply)
    } else {
        Err(format!("status {}: {}", reply.status, reply.body))
    }
}
