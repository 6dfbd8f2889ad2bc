//! A minimal HTTP/1.1 keep-alive client that can pipeline: requests are
//! written when due, and responses are parsed out of a byte buffer as they
//! arrive, so one thread can both send on schedule and collect replies.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// `x-cache: hit` was present.
    pub cache_hit: bool,
    pub body: String,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small; without nodelay, Nagle plus delayed ACK put a
        // ~40 ms floor under pipelined round trips.
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Writes one request; `headers` is extra `name: value\r\n` lines.
    pub fn send(&mut self, method: &str, path: &str, body: &str, headers: &str) -> io::Result<()> {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n{headers}\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes())
    }

    /// Waits up to `timeout` for the next complete response; `Ok(None)` when
    /// none arrived in time. A closed connection is an error.
    pub fn poll(&mut self, timeout: Duration) -> io::Result<Option<Reply>> {
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((reply, used)) = parse(&self.buf)? {
                self.buf.drain(..used);
                return Ok(Some(reply));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left.max(Duration::from_micros(50))))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and waits up to `timeout` for its response.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &str,
        timeout: Duration,
    ) -> io::Result<Reply> {
        self.send(method, path, body, headers)?;
        self.poll(timeout)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no response in time"))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Parses one complete response from the front of `buf`, returning it and
/// the bytes it used, or `None` if more bytes are needed.
fn parse(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut cache_hit) = (0usize, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "content-length" {
            length = value.parse().map_err(|_| bad("bad content-length"))?;
        } else if name == "x-cache" {
            cache_hit = value == "hit";
        }
    }
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[start..start + length]).into_owned();
    Ok(Some((
        Reply {
            status,
            cache_hit,
            body,
        },
        start + length,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_one_at_a_time() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-cache: hit\r\n\r\n{}HTTP/1.1 429 Too Many\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200";
        let (r1, n1) = parse(raw).unwrap().unwrap();
        assert_eq!(
            (r1.status, r1.cache_hit, r1.body.as_str()),
            (200, true, "{}")
        );
        let (r2, n2) = parse(&raw[n1..]).unwrap().unwrap();
        assert_eq!(
            (r2.status, r2.cache_hit, r2.body.as_str()),
            (429, false, "")
        );
        assert!(parse(&raw[n1 + n2..]).unwrap().is_none());
    }
}
