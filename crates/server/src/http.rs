//! A minimal blocking HTTP/1.1 listener exposing the control surface.
//!
//! Deliberately tiny — `std::net::TcpListener`, one serving thread,
//! requests handled serially — because its job is observability, not
//! throughput: a scrape every few seconds from a curl or a collector.
//! Routes:
//!
//! * `GET /metrics` — the v2 metrics document
//! * `GET /events?since=<seq>` — buffered events after `seq` as JSON
//!   lines (`since` defaults to 0, i.e. everything still buffered)
//! * `GET /latency` — server-wide per-stage latency percentiles
//!   (`adoc-latency-v1`)
//! * `GET /trace?conn=<id>` — one connection's flight recorder: its
//!   recent spans and their stage summaries (`adoc-trace-v1`)
//! * `POST /control/drain` — begin a graceful drain
//! * `POST /control/budget` — body `<mbit>` or `off`
//!
//! No framework, no keep-alive, no TLS: every response carries
//! `Connection: close`. Malformed requests get a 400; unknown paths a
//! 404; a GET on a control route a 405.

use crate::control::{parse_command, Command, Control};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Accept-loop poll interval while idle; also the per-request socket
/// read/write timeout — for reads only the granularity at which
/// [`DeadlineReader`] re-checks [`REQUEST_DEADLINE`], never a verdict.
const HTTP_POLL: Duration = Duration::from_millis(50);

/// Hard wall-clock budget for reading one whole request, and the only
/// thing that ends a slow one: a per-read verdict would both let a
/// client dripping one byte per poll interval hold the serial listener
/// for minutes and cut an honest client whose next segment is merely
/// late. The worst case a slow or silent client can inflict is
/// `REQUEST_DEADLINE + HTTP_POLL`.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Largest accepted request head + body; far above any legitimate
/// control request.
const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// A running HTTP control listener. Stop it with
/// [`HttpHandle::shutdown`]; dropping the handle detaches the thread.
pub struct HttpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `listen` and serves the control surface for `control` until
/// the returned handle is shut down.
pub fn spawn(control: Control, listen: impl ToSocketAddrs) -> io::Result<HttpHandle> {
    let listener = TcpListener::bind(listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("adoc-http".into())
            .spawn(move || accept_loop(control, listener, stop))?
    };
    Ok(HttpHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(control: Control, listener: TcpListener, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serial on purpose: one scraper at a time is the
                // designed load, and serial handling means a client
                // can never observe a half-applied control command
                // interleaved with its own.
                if let Err(e) = serve_request(&control, stream) {
                    if e.kind() != io::ErrorKind::WouldBlock && e.kind() != io::ErrorKind::TimedOut
                    {
                        eprintln!("adoc-server: http request failed: {e}");
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(HTTP_POLL),
            Err(e) => {
                eprintln!("adoc-server: http accept failed: {e}");
                thread::sleep(HTTP_POLL);
            }
        }
    }
}

struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Self {
        Response {
            status: "200 OK",
            content_type,
            body,
        }
    }

    fn error(status: &'static str, msg: &str) -> Self {
        Response {
            status,
            content_type: "text/plain",
            body: format!("{msg}\n"),
        }
    }
}

/// A read half that enforces the whole-request deadline: the socket's
/// per-read timeout only wakes it to look at the clock again.
struct DeadlineReader {
    inner: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if Instant::now() >= self.deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request read deadline exceeded",
                ));
            }
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                other => return other,
            }
        }
    }
}

fn serve_request(control: &Control, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(HTTP_POLL))?;
    stream.set_write_timeout(Some(HTTP_POLL))?;
    stream.set_nodelay(true).ok();

    let reader = DeadlineReader {
        inner: stream.try_clone()?,
        deadline: Instant::now() + REQUEST_DEADLINE,
    };
    let mut reader = BufReader::new(reader).take(MAX_REQUEST_BYTES as u64);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return write_response(
                &mut stream,
                Response::error("400 Bad Request", "bad request"),
            )
        }
    };

    // Drain headers; all we need from them is the body length.
    let mut content_length: usize = 0;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0).min(MAX_REQUEST_BYTES);
        }
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body)?;
    }
    let body = String::from_utf8_lossy(&body).into_owned();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };

    let resp = route(control, &method, path, query, body.trim());
    write_response(&mut stream, resp)
}

fn route(control: &Control, method: &str, path: &str, query: &str, body: &str) -> Response {
    match (method, path) {
        ("GET", "/metrics") => {
            if let Some(other) = query_param(query, "schema") {
                return Response::error(
                    "400 Bad Request",
                    &format!("unknown metrics schema \"{other}\" (the v1 schema has been removed)"),
                );
            }
            Response::ok("application/json", control.metrics_json())
        }
        ("GET", "/events") => match u64_param(query, "since", "an event sequence number") {
            Ok(since) => Response::ok(
                "application/x-ndjson",
                control.events_json_lines(since.unwrap_or(0)),
            ),
            Err(resp) => resp,
        },
        ("GET", "/latency") => Response::ok("application/json", control.latency_json()),
        ("GET", "/trace") => match u64_param(query, "conn", "a connection id") {
            Ok(Some(conn)) => match control.trace_json(conn) {
                Some(doc) => Response::ok("application/json", doc),
                None => Response::error("404 Not Found", &format!("unknown conn {conn}")),
            },
            Ok(None) => Response::error("400 Bad Request", "missing conn parameter"),
            Err(resp) => resp,
        },
        ("POST", "/control/drain") => {
            control.drain();
            Response::ok("text/plain", "draining\n".into())
        }
        ("POST", "/control/budget") => match parse_command(&format!("budget {body}")) {
            Ok(Some(Command::Budget(b))) => {
                control.set_budget(b);
                Response::ok("text/plain", "ok\n".into())
            }
            Ok(_) => Response::error("400 Bad Request", "empty budget body"),
            Err(e) => Response::error("400 Bad Request", &e),
        },
        ("GET", "/control/drain" | "/control/budget")
        | ("POST", "/metrics" | "/events" | "/latency" | "/trace") => {
            Response::error("405 Method Not Allowed", "method not allowed")
        }
        _ => Response::error("404 Not Found", "not found"),
    }
}

/// Extracts a query parameter's raw value (no percent-decoding; the
/// control surface's values never need it).
fn query_param<'q>(query: &'q str, name: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Parses query parameter `name` as a number; a value that is not one
/// gets a 400 saying what the parameter should be (`want`).
fn u64_param(query: &str, name: &str, want: &str) -> Result<Option<u64>, Response> {
    let bad = |v| {
        Response::error(
            "400 Bad Request",
            &format!("bad {name} \"{v}\" (want {want})"),
        )
    };
    query_param(query, name)
        .map(|v| v.parse().map_err(|_| bad(v)))
        .transpose()
}

fn write_response(stream: &mut TcpStream, resp: Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};

    #[test]
    fn a_drip_feeding_client_cannot_wedge_the_listener() {
        let server = Server::new(ServerConfig::builder().build().expect("config")).expect("server");
        let handle = spawn(Control::new(server), "127.0.0.1:0").expect("listener");
        let addr = handle.addr();

        // Slowloris: connects first and drips one byte per ~25 ms —
        // each individual read succeeds, so only the whole-request
        // deadline can cut it loose.
        let stop = Arc::new(AtomicBool::new(false));
        let drip = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("drip connect");
                while !stop.load(Ordering::Relaxed) {
                    if s.write_all(b"G").is_err() {
                        break; // listener cut us: mission accomplished
                    }
                    thread::sleep(Duration::from_millis(25));
                }
            })
        };
        thread::sleep(Duration::from_millis(200)); // drip holds the serial listener

        // A well-behaved scrape queued behind the drip must still be
        // answered once the deadline cuts the stalled request.
        let t0 = Instant::now();
        let mut scrape = TcpStream::connect(addr).expect("scrape connect");
        scrape
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        scrape
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("request");
        let mut resp = String::new();
        scrape.read_to_string(&mut resp).expect("response");
        assert!(
            resp.starts_with("HTTP/1.1 200"),
            "scrape failed: {resp:.60}"
        );
        assert!(
            t0.elapsed() < REQUEST_DEADLINE + Duration::from_secs(5),
            "scrape waited {:?} — the drip client wedged the listener",
            t0.elapsed()
        );

        stop.store(true, Ordering::Relaxed);
        drip.join().expect("drip thread");
        handle.shutdown();
    }

    #[test]
    fn query_params_are_extracted_by_name() {
        assert_eq!(query_param("since=42", "since"), Some("42"));
        assert_eq!(query_param("a=1&since=7&b=2", "since"), Some("7"));
        assert_eq!(query_param("", "since"), None);
        assert_eq!(query_param("since", "since"), None);
        assert_eq!(query_param("schema=v1", "schema"), Some("v1"));
    }
}
