//! A deliberately small HTTP/1.1 layer over `std::net` — hand-rolled
//! request parsing in the spirit of `uvllm-json`, because the service
//! needs exactly one verb shape (`METHOD /path` + optional JSON body)
//! and the build is dependency-free.
//!
//! Server side: [`read_request`] / [`respond`], one request per
//! connection (`Connection: close`), bounded head and body sizes. The
//! server reads and writes each connection under one deadline
//! ([`REQUEST_DEADLINE`]).
//! Client side: [`request`], used by remote workers, the CLI client
//! subcommands and the test suite.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request/status line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request or response body.
const MAX_BODY: usize = 8 * 1024 * 1024;
/// Client-side socket read timeout, per read.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a server-side connection may wait on its peer, all its
/// reads and writes together. The server answers one connection at a
/// time, so a stalled or trickling peer holds every other client up by
/// at most this.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(3);

/// A server-side connection under one deadline for every read and
/// write: each waits at most until the deadline, and none starts after
/// it ([`std::io::ErrorKind::TimedOut`]).
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    deadline: Instant,
}

impl Connection {
    /// `stream`, due [`REQUEST_DEADLINE`] from now.
    pub(crate) fn new(stream: TcpStream) -> Connection {
        Connection { stream, deadline: Instant::now() + REQUEST_DEADLINE }
    }

    /// Runs `answer` off the peer's clock: the deadline moves on by the
    /// time it took, so only waits on the peer count against it.
    pub(crate) fn off_the_clock<T>(&mut self, answer: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let answered = answer();
        self.deadline += started.elapsed();
        answered
    }

    /// Sets the socket timeout `set` to the time left before the
    /// deadline.
    fn arm(
        &self,
        set: fn(&TcpStream, Option<Duration>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        set(&self.stream, Some(left))
    }
}

impl Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.arm(TcpStream::set_read_timeout)?;
        self.stream.read(buf)
    }
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.arm(TcpStream::set_write_timeout)?;
        self.stream.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.arm(TcpStream::set_write_timeout)?;
        self.stream.write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The request target as sent (path only; no scheme/host).
    pub target: String,
    /// Decoded body (empty when no `Content-Length`).
    pub body: String,
}

/// Reads one request from `stream`; how long a read may wait is the
/// stream's to say (the server's reads share the connection's
/// [`REQUEST_DEADLINE`]).
///
/// # Errors
///
/// Malformed request lines, oversized heads/bodies, connections closed
/// mid-request, and socket errors — all as displayable messages (the
/// server answers them with `400`).
pub fn read_request(stream: &mut impl Read) -> Result<Request, String> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(format!("request head exceeds {MAX_HEAD} bytes"));
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let parts: Vec<&str> = request_line.split(' ').collect();
    let [method, target, version] = parts.as_slice() else {
        return Err(format!("malformed request line '{request_line}'"));
    };
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(format!("malformed request line '{request_line}'"));
    }
    let (method, target) = (method.to_ascii_uppercase(), (*target).to_string());
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        // Strict header parsing: anything that isn't `Name: value`
        // gets a clean 400 now, not misinterpretation later.
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line '{line}'"));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // The service speaks Content-Length only. Accepting (and
            // then ignoring) chunked framing would leave the chunk
            // stream unread in the socket and desync the connection —
            // refuse it outright.
            return Err(format!("unsupported Transfer-Encoding '{value}' (send Content-Length)"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize =
                value.parse().map_err(|_| format!("bad Content-Length '{value}'"))?;
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err("conflicting Content-Length headers".to_string());
            }
            content_length = Some(parsed);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("request body exceeds {MAX_BODY} bytes"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(Request { method, target, body })
}

/// Writes one response and flushes. The connection is `close`-marked;
/// the caller drops the stream afterwards.
///
/// # Errors
///
/// Socket write failures.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    send(stream, head.as_bytes(), body.as_bytes())
}

/// Writes `head` then `body` with vectored writes — one call when the
/// writer takes both at once, as a socket does — without copying the
/// body, then flushes.
fn send(out: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match out.write_vectored(pending) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    out.flush()
}

/// The canonical reason phrase for the handful of statuses the service
/// speaks.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// One client round trip: connect, send `method target` with `body`,
/// read the full response. Returns `(status, body)`.
///
/// # Errors
///
/// Connection, socket and malformed-response errors as messages.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
    write_request(&mut stream, addr, method, target, body)
        .map_err(|e| format!("send {method} {target}: {e}"))?;

    let mut raw = Vec::new();
    // The server closes after one response, so EOF delimits it.
    stream.read_to_end(&mut raw).map_err(|e| format!("read response: {e}"))?;
    let head_end =
        find_head_end(&raw).ok_or_else(|| "malformed response (no header end)".to_string())?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| "response head is not UTF-8".to_string())?;
    let status_line = head.split("\r\n").next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line '{status_line}'"))?;
    // The read buffer becomes the body: no second copy of it.
    raw.drain(..head_end + 4);
    let body = String::from_utf8(raw).map_err(|_| "response body is not UTF-8".to_string())?;
    Ok((status, body))
}

/// Writes one `Connection: close` request for `method target` with
/// `body`.
fn write_request(
    out: &mut impl Write,
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len(),
    );
    send(out, head.as_bytes(), body.as_bytes())
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-shot echo server: parse the request, answer with its shape.
    fn echo_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            match read_request(&mut stream) {
                Ok(req) => {
                    let body = format!("{} {} [{}]", req.method, req.target, req.body);
                    respond(&mut stream, 200, "text/plain", &body).unwrap();
                }
                Err(e) => respond(&mut stream, 400, "text/plain", &e).unwrap(),
            }
        });
        (addr, handle)
    }

    #[test]
    fn request_round_trips_method_target_and_body() {
        let (addr, handle) = echo_server();
        let (status, body) =
            request(&addr.to_string(), "POST", "/lease", "{\"worker\":\"w1\"}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "POST /lease [{\"worker\":\"w1\"}]");
        handle.join().unwrap();
    }

    #[test]
    fn empty_body_round_trips() {
        let (addr, handle) = echo_server();
        let (status, body) = request(&addr.to_string(), "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "GET /metrics []");
        handle.join().unwrap();
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        let (addr, handle) = echo_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        handle.join().unwrap();
    }

    /// Sends raw bytes, returns the status line + the parser's message.
    /// Read errors are tolerated: rejected requests leave unread bytes
    /// server-side, so its close may RST after the 400 was delivered.
    fn raw(bytes: &[u8]) -> String {
        let (addr, handle) = echo_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(bytes).unwrap();
        let mut text = String::new();
        let _ = stream.read_to_string(&mut text);
        handle.join().unwrap();
        text
    }

    #[test]
    fn extra_request_line_tokens_are_rejected() {
        let text = raw(b"GET /x HTTP/1.1 extra\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("malformed request line"), "{text}");
    }

    #[test]
    fn header_lines_without_a_colon_are_rejected() {
        let text = raw(b"GET /x HTTP/1.1\r\nthis is not a header\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("malformed header line"), "{text}");
    }

    #[test]
    fn chunked_transfer_encoding_is_refused_cleanly() {
        // A chunked request the parser pretended to accept would leave
        // the chunk stream unread and the connection wedged; it must be
        // a prompt, explicit 400 instead.
        let text = raw(
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("Transfer-Encoding"), "{text}");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let text = raw(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\nhi");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("conflicting Content-Length"), "{text}");
        // Duplicates that agree are harmless and accepted.
        let text = raw(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi");
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    }

    #[test]
    fn non_numeric_content_length_is_rejected() {
        let text = raw(b"POST /jobs HTTP/1.1\r\nContent-Length: lots\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("bad Content-Length"), "{text}");
        // Negative and overflowing values fail the same parse.
        let text = raw(b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_reading_it() {
        let text = raw(b"POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("exceeds"), "{text}");
    }

    #[test]
    fn oversized_head_is_rejected() {
        // Asserted on the parser directly: the server stops reading
        // mid-head here, so a full HTTP round trip would race the
        // error response against the connection reset.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut bytes = b"GET /x HTTP/1.1\r\n".to_vec();
            // The terminator must sit far past the limit, or the head
            // completes before the bound check sees an oversized buffer.
            bytes.extend_from_slice(format!("X-Pad: {}\r\n", "y".repeat(MAX_HEAD * 3)).as_bytes());
            bytes.extend_from_slice(b"\r\n");
            let _ = stream.write_all(&bytes);
            stream // kept open until joined
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream).unwrap_err();
        assert!(err.contains("head exceeds"), "{err}");
        let _ = writer.join();
    }

    /// A writer that takes everything it is handed and counts calls.
    #[derive(Default)]
    struct CountingWrite {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|buf| self.bytes.extend_from_slice(buf));
            Ok(bufs.iter().map(|buf| buf.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_message_is_one_write() {
        let body = "{\"rows\": 1}\n".repeat(1000);
        let mut out = CountingWrite::default();
        respond(&mut out, 200, "application/json", &body).unwrap();
        assert_eq!(out.calls, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        let tail = format!("Content-Length: {}\r\nConnection: close\r\n\r\n{body}", body.len());
        assert!(text.ends_with(&tail), "{text}");

        let mut out = CountingWrite::default();
        write_request(&mut out, "127.0.0.1:1", "POST", "/lease", "{}").unwrap();
        assert_eq!(out.calls, 1);
        assert!(out.bytes.starts_with(b"POST /lease HTTP/1.1\r\n"));
        assert!(out.bytes.ends_with(b"\r\n\r\n{}"));

        let mut out = CountingWrite::default();
        respond(&mut out, 204, "text/plain", "").unwrap();
        assert_eq!(out.calls, 1, "an empty body is no second write");
    }

    #[test]
    fn reasons_cover_the_spoken_statuses() {
        for status in [200, 204, 400, 404, 405, 409, 410, 500] {
            assert_ne!(reason(status), "Unknown", "{status}");
        }
    }
}
