//! A minimal HTTP/1.1 front end over [`Service`] using only `std::net`.
//!
//! One request per connection (`Connection: close`), bodies delimited by
//! `Content-Length`. Routes:
//!
//! * `POST /simulate` — a [`crate::request::SimRequest`] body; responds
//!   200 (success), 400 (malformed request), 422 (structured simulation
//!   error), 429/503 (shed, with `Retry-After`), 500/504 (supervision
//!   exhausted, structured body). Success responses carry `X-Cache:
//!   HIT|MISS`; bodies are byte-identical either way.
//! * `GET /healthz` — `200 ok` (or `503 draining`).
//! * `GET /stats` — service counters as JSON.
//! * `POST /admin/drain` — stop admitting (graceful drain), then answer
//!   the caller.
//!
//! Concurrency: one `accept` thread hands each connection to a `conn`
//! thread. A `conn` thread that finishes its connection parks for the
//! next one, so the acceptor starts a thread only when none is parked;
//! one that finishes while `MAX_IDLE` others are parked exits instead, so
//! the pool shrinks back after a burst. Each connection still has a thread
//! to itself while it is served. The admission gates bound simulation
//! work; the tiny header parser bounds everything else (16 KiB of headers,
//! 1 MiB of body), so a slow or hostile client costs one blocked thread,
//! not the service. A connection the OS will not give a thread is dropped,
//! and the accept loop carries on. [`HttpServer::stop`] ends the accept
//! loop, which hangs up on the parked threads: they exit and release
//! their handle on the [`Service`]; a thread still serving a connection
//! releases it when that connection ends.

use crate::json::error_body;
use crate::request::SimRequest;
use crate::service::{Response, Service};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Largest accepted header block.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Most `conn` threads kept parked between connections.
const MAX_IDLE: usize = 4;

/// Starts a `conn` thread.
type Spawn = dyn Fn(Box<dyn FnOnce() + Send>) -> std::io::Result<()> + Send;

/// Where parked `conn` threads wait for their next connection.
struct Parked {
    /// Connections handed to parked threads; the accept loop holds the
    /// only sender.
    streams: Mutex<mpsc::Receiver<TcpStream>>,
    /// Parked threads no connection has claimed yet.
    idle: AtomicUsize,
}

impl Parked {
    /// Claim a parked thread for one connection, if one is idle.
    fn claim(&self) -> bool {
        self.idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Count the caller as parked, unless `MAX_IDLE` threads already are.
    fn park(&self) -> bool {
        self.idle
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < MAX_IDLE).then_some(n + 1)
            })
            .is_ok()
    }
}

/// A `conn` thread: serve `stream`, then each connection handed over while
/// parked, until the pool is full or the accept loop is gone.
fn serve_connections(mut stream: TcpStream, service: &Service, parked: &Parked) {
    loop {
        handle_connection(&mut stream, service);
        // Park before the close, so a client that reads to the end of the
        // stream finds this thread free for its next connection.
        let parks = parked.park();
        drop(stream);
        if !parks {
            return;
        }
        // Each `park` is matched by one stream sent after a `claim`, or by
        // the sender's drop, so this `recv` never waits on a stream that
        // another thread was promised.
        let Ok(next) = parked.streams.lock().unwrap().recv() else {
            return; // The accept loop is gone.
        };
        stream = next;
    }
}

/// The running HTTP server.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `service` until [`HttpServer::stop`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the OS refusing the accept thread.
    pub fn serve(addr: &str, service: Arc<Service>) -> std::io::Result<HttpServer> {
        HttpServer::serve_with(
            addr,
            service,
            Box::new(|handler| {
                std::thread::Builder::new()
                    .name("conn".into())
                    .spawn(handler)
                    .map(drop)
            }),
        )
    }

    /// [`HttpServer::serve`], starting each `conn` thread with `spawn`.
    fn serve_with(
        addr: &str,
        service: Arc<Service>,
        spawn: Box<Spawn>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let (handoff, streams) = mpsc::channel();
        let parked = Arc::new(Parked {
            streams: Mutex::new(streams),
            idle: AtomicUsize::new(0),
        });
        let accept = std::thread::Builder::new().name("accept".into());
        // Returning drops `handoff`, which wakes every parked thread to
        // exit.
        let accept_thread = accept.spawn(move || {
            // Blocking accept: a connection is served the moment it
            // arrives. [`HttpServer::stop`] sets the flag and then makes a
            // throwaway connection, so the flag is checked after every
            // accept returns.
            loop {
                let accepted = listener.accept();
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                match accepted {
                    Ok((stream, peer)) => {
                        let _ = stream.set_nodelay(true);
                        if parked.claim() {
                            // `parked` holds the receiver, so this send
                            // cannot fail.
                            let _ = handoff.send(stream);
                            continue;
                        }
                        let svc = Arc::clone(&service);
                        let pool = Arc::clone(&parked);
                        // A refused spawn drops the handler and the stream
                        // it owns, so the client sees its connection close.
                        if let Err(e) =
                            spawn(Box::new(move || serve_connections(stream, &svc, &pool)))
                        {
                            eprintln!(
                                "warning: dropped the connection from {peer}: no thread ({e})"
                            );
                        }
                    }
                    // E.g. out of file descriptors: back off, don't spin.
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
                }
            }
        })?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and release the parked `conn` threads; in-flight
    /// connections finish on their own threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

struct Request {
    method: String,
    path: String,
    body: String,
}

/// Read one `\n`-terminated line, accumulating at most `cap` bytes. The
/// cap is enforced *while reading*, not after: a hostile client streaming
/// an endless line without a terminator gets an error at `cap` bytes
/// instead of growing the buffer without bound.
fn read_line_bounded<R: BufRead>(reader: &mut R, cap: usize) -> Result<String, String> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // A signal cut the read short; retry, as std's `read_line` does.
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.to_string()),
        };
        if buf.is_empty() {
            break; // EOF mid-line: return what arrived.
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if line.len() + take > cap {
            return Err("headers too large".into());
        }
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    String::from_utf8(line).map_err(|_| "header is not UTF-8".to_string())
}

fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line_bounded(&mut reader, MAX_HEADER_BYTES)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let mut content_length = 0usize;
    let mut header_bytes = request_line.len();
    loop {
        let line = read_line_bounded(&mut reader, MAX_HEADER_BYTES - header_bytes)?;
        if line.is_empty() {
            return Err("connection closed before end of headers".into());
        }
        header_bytes += line.len();
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad content-length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body larger than {MAX_BODY_BYTES} bytes"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(&str, String)],
) {
    use std::fmt::Write as _;
    // Head and body in one buffer, so one `write` sends both.
    let mut out = String::with_capacity(160 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        status_text(status),
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    let _ = stream.write_all(out.as_bytes());
}

fn handle_connection(stream: &mut TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(e) => {
            write_response(stream, 400, &error_body("bad_request", &e), &[]);
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/simulate") => {
            let req = match SimRequest::from_json(&request.body) {
                Ok(r) => r,
                Err(e) => {
                    write_response(stream, 400, &error_body("bad_request", &e), &[]);
                    return;
                }
            };
            let Response {
                status,
                body,
                cached,
                retry_after,
            } = service.submit(req);
            let mut headers: Vec<(&str, String)> = Vec::new();
            if status == 200 {
                headers.push(("X-Cache", if cached { "HIT" } else { "MISS" }.to_string()));
            }
            if let Some(s) = retry_after {
                headers.push(("Retry-After", s.to_string()));
            }
            write_response(stream, status, &body, &headers);
        }
        ("GET", "/healthz") => {
            if service.draining() {
                write_response(stream, 503, "{\"status\":\"draining\"}", &[]);
            } else {
                write_response(stream, 200, "{\"status\":\"ok\"}", &[]);
            }
        }
        ("GET", "/stats") => {
            write_response(stream, 200, &service.stats_json().render(), &[]);
        }
        ("POST", "/admin/drain") => {
            service.start_drain();
            write_response(stream, 200, "{\"status\":\"draining\"}", &[]);
        }
        (_, "/simulate" | "/healthz" | "/stats" | "/admin/drain") => {
            write_response(
                stream,
                405,
                &error_body("method_not_allowed", "wrong method for this path"),
                &[],
            );
        }
        _ => {
            write_response(stream, 404, &error_body("not_found", "no such route"), &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_connection_thread_drops_that_connection_and_keeps_accepting() {
        let service = Arc::new(Service::start(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        }));
        let refused_once = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&refused_once);
        let server = HttpServer::serve_with(
            "127.0.0.1:0",
            service,
            Box::new(move |handler| {
                if !flag.swap(true, Ordering::AcqRel) {
                    return Err(std::io::Error::other("thread limit reached"));
                }
                std::thread::Builder::new().spawn(handler).map(drop)
            }),
        )
        .unwrap();
        let addr = server.addr().to_string();
        assert!(
            client::get(&addr, "/healthz").is_err(),
            "the refused connection must close without a response"
        );
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
        server.stop();
    }

    fn one_worker_service() -> Arc<Service> {
        Arc::new(Service::start(crate::ServeConfig {
            workers: 1,
            ..crate::ServeConfig::default()
        }))
    }

    #[test]
    fn sequential_connections_reuse_parked_threads() {
        let started = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&started);
        let server = HttpServer::serve_with(
            "127.0.0.1:0",
            one_worker_service(),
            Box::new(move |handler| {
                count.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new().spawn(handler).map(drop)
            }),
        )
        .unwrap();
        for _ in 0..50 {
            // Read to the close, which comes after the thread has parked.
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        }
        server.stop();
        // Each client waits for the close, which follows the park, so one
        // thread serves them all.
        let started = started.load(Ordering::Relaxed);
        assert_eq!(
            started, 1,
            "50 sequential connections started {started} threads"
        );
    }

    #[test]
    fn a_stalled_connection_does_not_hold_up_the_next() {
        let server = HttpServer::serve("127.0.0.1:0", one_worker_service()).unwrap();
        let addr = server.addr().to_string();
        // Warm the pool so the stall lands on a parked thread.
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(b"GET /hea").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let other = addr.clone();
        std::thread::spawn(move || {
            let _ = tx.send(client::get(&other, "/healthz").map(|r| r.status));
        });
        let status = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the second client waited behind the stalled one");
        assert_eq!(status, Ok(200));
        drop(stalled);
        server.stop();
    }

    #[test]
    fn stop_releases_every_parked_thread() {
        let service = one_worker_service();
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.addr().to_string();
        // Two clients at once, so more than one thread parks.
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert!(Arc::strong_count(&service) > 1);
        server.stop();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Arc::strong_count(&service) > 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} handles on the service outlived stop",
                Arc::strong_count(&service) - 1
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn read_line_bounded_caps_unterminated_lines() {
        // 100 KiB with no newline: the error must fire at the cap, long
        // before the whole stream is buffered.
        let junk = vec![b'a'; 100_000];
        let mut r = BufReader::new(&junk[..]);
        assert!(read_line_bounded(&mut r, MAX_HEADER_BYTES).is_err());

        let mut r = BufReader::new(&b"hello\nworld\n"[..]);
        assert_eq!(read_line_bounded(&mut r, 16).unwrap(), "hello\n");
        assert_eq!(read_line_bounded(&mut r, 16).unwrap(), "world\n");
        // EOF with no data: empty line.
        assert_eq!(read_line_bounded(&mut r, 16).unwrap(), "");

        // A line exactly at the cap passes; one byte over fails.
        let mut r = BufReader::new(&b"abcd\n"[..]);
        assert_eq!(read_line_bounded(&mut r, 5).unwrap(), "abcd\n");
        let mut r = BufReader::new(&b"abcd\n"[..]);
        assert!(read_line_bounded(&mut r, 4).is_err());
    }

    /// Fails its first read with `Interrupted`, then reads `data`.
    struct InterruptedOnce {
        interrupted: bool,
        data: &'static [u8],
    }

    impl Read for InterruptedOnce {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(ErrorKind::Interrupted.into());
            }
            self.data.read(buf)
        }
    }

    #[test]
    fn read_line_bounded_retries_an_interrupted_read() {
        let mut r = BufReader::new(InterruptedOnce {
            interrupted: false,
            data: b"GET /healthz HTTP/1.1\r\n",
        });
        assert_eq!(
            read_line_bounded(&mut r, MAX_HEADER_BYTES).unwrap(),
            "GET /healthz HTTP/1.1\r\n"
        );
        assert!(r.get_ref().interrupted);
    }
}

/// A tiny blocking HTTP client for the load generator and tests.
pub mod client {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// A parsed response.
    #[derive(Debug, Clone)]
    pub struct HttpResponse {
        pub status: u16,
        pub body: String,
        /// `X-Cache` header value, if present.
        pub x_cache: Option<String>,
        /// `Retry-After` header value, if present.
        pub retry_after: Option<u64>,
    }

    /// POST `body` to `path`, returning the parsed response.
    ///
    /// # Errors
    ///
    /// A description of the transport failure.
    pub fn post(addr: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
        request(addr, "POST", path, body)
    }

    /// GET `path`.
    ///
    /// # Errors
    ///
    /// A description of the transport failure.
    pub fn get(addr: &str, path: &str) -> Result<HttpResponse, String> {
        request(addr, "GET", path, "")
    }

    fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream
            .write_all(head.as_bytes())
            .map_err(|e| e.to_string())?;
        stream
            .write_all(body.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|e| e.to_string())?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{}`", status_line.trim()))?;
        let mut content_length = 0usize;
        let mut x_cache = None;
        let mut retry_after = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| "bad content-length")?;
                } else if name.eq_ignore_ascii_case("x-cache") {
                    x_cache = Some(value.to_string());
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = value.parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        Ok(HttpResponse {
            status,
            body: String::from_utf8_lossy(&body).into_owned(),
            x_cache,
            retry_after,
        })
    }
}
