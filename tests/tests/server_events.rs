//! The structured event subsystem end-to-end: per-connection event
//! ordering, bounded `EventLog` retention under a burst, panicking user
//! subscribers isolated without wedging the serve loop, and the
//! embedded HTTP control surface (`/metrics`, `/events`,
//! `/control/*`) against a live TCP daemon.

use adoc::AdocSocket;
use adoc_server::{daemon, Event, EventLog, EventMeta, Server, ServerConfig, Subscriber};
use adoc_sim::pipe::duplex_pipe;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Records every `(seq, event name)` pair it sees.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<(u64, String)>>,
}

impl Subscriber for Recorder {
    fn on_event(&self, meta: &EventMeta, event: &Event<'_>) {
        self.seen
            .lock()
            .unwrap()
            .push((meta.seq, event.name().to_string()));
    }
}

/// Serves `messages` byte-exact echoes over an in-process pipe.
fn echo_over_pipe(server: &Arc<Server>, messages: usize) {
    let (client_end, server_end) = duplex_pipe(1 << 20);
    let (sr, sw) = server_end.split();
    let s2 = Arc::clone(server);
    let serving = thread::spawn(move || s2.serve_stream(sr, sw, "pipe-client"));
    let (cr, cw) = client_end.split();
    let mut client = AdocSocket::new(cr, cw);
    for m in 0..messages {
        let payload = vec![(m % 251) as u8; 60_000];
        client.write(&payload).expect("send");
        let mut back = vec![0u8; payload.len()];
        client.read_exact(&mut back).expect("echo");
        assert_eq!(back, payload);
    }
    drop(client);
    assert_eq!(serving.join().unwrap().unwrap(), messages as u64);
}

#[test]
fn per_connection_events_arrive_in_lifecycle_order() {
    let rec = Arc::new(Recorder::default());
    let cfg = ServerConfig::builder()
        .subscriber(rec.clone())
        .build()
        .unwrap();
    let server = Server::new(cfg).unwrap();
    echo_over_pipe(&server, 3);

    let seen = rec.seen.lock().unwrap();
    let names: Vec<&str> = seen.iter().map(|(_, n)| n.as_str()).collect();
    let first = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no {name} in {names:?}"))
    };
    let last = |name: &str| names.iter().rposition(|n| *n == name).unwrap();
    assert!(first("conn_accepted") < first("conn_admitted"), "{names:?}");
    assert!(
        first("conn_admitted") < first("message_served"),
        "{names:?}"
    );
    assert!(last("message_served") < first("conn_closed"), "{names:?}");
    assert_eq!(
        names.iter().filter(|n| **n == "message_served").count(),
        3,
        "{names:?}"
    );
    // Sequence numbers order the stream totally and match arrival order
    // for a single connection's thread.
    assert!(
        seen.windows(2).all(|w| w[0].0 < w[1].0),
        "seqs must be strictly increasing: {seen:?}"
    );
}

#[test]
fn event_log_stays_bounded_under_burst() {
    let log = Arc::new(EventLog::new(8));
    let cfg = ServerConfig::builder()
        .subscriber(log.clone())
        .build()
        .unwrap();
    let server = Server::new(cfg).unwrap();
    // 30 messages ⇒ ≥ 33 events through an 8-slot ring.
    echo_over_pipe(&server, 30);

    assert_eq!(log.len(), 8, "ring must stay at capacity");
    assert!(log.dropped() > 0, "burst must overwrite, not grow");
    let records = log.records_since(0);
    assert_eq!(records.len(), 8);
    assert!(
        records.windows(2).all(|w| w[0].seq < w[1].seq),
        "retained records stay seq-ordered"
    );
    // The newest events survive; the ring ends at the bus's last seq.
    assert_eq!(records.last().unwrap().seq, server.events().last_seq());
    // Incremental drains see only the tail…
    let mid = records[3].seq;
    assert_eq!(log.records_since(mid).len(), 4);
    assert_eq!(log.json_lines_since(mid).lines().count(), 4);
    // …and a cursor past the end sees nothing.
    assert!(log.records_since(u64::MAX).is_empty());
}

#[test]
fn panicking_subscriber_is_isolated_from_the_serve_loop() {
    struct Bomb;
    impl Subscriber for Bomb {
        fn on_event(&self, _m: &EventMeta, _e: &Event<'_>) {
            panic!("user subscriber bug");
        }
    }
    let rec = Arc::new(Recorder::default());
    let cfg = ServerConfig::builder()
        .subscriber(Arc::new(Bomb))
        .subscriber(rec.clone())
        .build()
        .unwrap();
    let server = Server::new(cfg).unwrap();
    // Quiet the default panic hook for the expected unwinds.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    echo_over_pipe(&server, 2);
    std::panic::set_hook(hook);

    // The serve loop completed byte-exactly despite the bomb; the bomb
    // is detached, every other subscriber kept observing.
    assert_eq!(server.registry().totals().completed, 1);
    assert_eq!(server.events().poisoned(), 1);
    assert_eq!(server.event_counts().messages_served, 2);
    // accepted + admitted + 2× served + closed
    assert!(rec.seen.lock().unwrap().len() >= 5);
    assert!(
        server
            .metrics_json()
            .contains("\"subscribers_poisoned\": 1"),
        "poisoning must be visible in metrics"
    );
}

#[test]
fn http_latency_and_trace_surfaces_cover_a_live_connection() {
    let cfg = ServerConfig::builder()
        .metrics_addr("127.0.0.1:0")
        .build()
        .unwrap();
    let server = Server::new(cfg).unwrap();
    let handle = daemon::spawn(server, "127.0.0.1:0").expect("bind daemon");
    let maddr = handle.metrics_addr().expect("http listener bound");

    // Echo over a real TCP connection and hold it open: the flight
    // recorder deregisters a connection's trace when it closes, so
    // /trace?conn= must be scraped while the peer is still connected.
    let sock = TcpStream::connect(handle.addr()).expect("connect");
    sock.set_nodelay(true).ok();
    let r = sock.try_clone().expect("clone");
    let mut conn = AdocSocket::new(r, sock);
    let payload = vec![0xA5u8; 90_000];
    for _ in 0..3 {
        conn.write(&payload).expect("send");
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).expect("echo");
        assert_eq!(back, payload);
    }

    // The last span lands in the recorder just after the final reply
    // byte reaches the client; poll the global document briefly.
    let t0 = Instant::now();
    let body = loop {
        let (status, body) = http_request(maddr, "GET /latency HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(status.contains("200"), "{status}");
        if body.contains("\"messages\": 3") {
            break body;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "latency document never reached 3 messages: {body}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    assert!(body.contains("\"schema\": \"adoc-latency-v1\""), "{body}");
    for stage in [
        "read",
        "sched_wait",
        "queue_wait",
        "codec",
        "write",
        "total",
    ] {
        assert!(body.contains(&format!("\"{stage}\": {{")), "{body}");
    }
    assert!(body.contains("\"p99_us\":"), "{body}");

    // The flight recorder for the (only) live connection: per-stage
    // summaries plus one span record per message, oldest first.
    let (status, body) = http_request(maddr, "GET /trace?conn=1 HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"schema\": \"adoc-trace-v1\""), "{body}");
    assert!(body.contains("\"conn\": 1"), "{body}");
    assert!(body.contains("\"messages\": 3"), "{body}");
    assert!(body.contains("\"spans\": ["), "{body}");
    assert!(body.contains("\"msg\": 1"), "{body}");
    assert!(body.contains("\"msg\": 3"), "{body}");
    assert!(body.contains("\"total_us\":"), "{body}");

    // Bad and missing conn parameters.
    let (status, _) = http_request(maddr, "GET /trace?conn=999 HTTP/1.1\r\n\r\n");
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_request(maddr, "GET /trace HTTP/1.1\r\n\r\n");
    assert!(status.contains("400"), "{status}");
    let (status, _) = http_request(maddr, "GET /trace?conn=abc HTTP/1.1\r\n\r\n");
    assert!(status.contains("400"), "{status}");
    let (status, _) = http_request(maddr, "POST /latency HTTP/1.1\r\n\r\n");
    assert!(status.contains("405"), "{status}");

    // A departed connection's flight recorder is gone: close the echo
    // connection and wait for the reactor to reap it.
    drop(conn);
    let t0 = Instant::now();
    loop {
        let (status, _) = http_request(maddr, "GET /trace?conn=1 HTTP/1.1\r\n\r\n");
        if status.contains("404") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "closed connection's trace was never deregistered"
        );
        thread::sleep(Duration::from_millis(10));
    }

    // The DeadlineReader cuts a dripping request at ~2s (each 25ms
    // byte defeats the per-read socket timeout, so only the
    // whole-request deadline can end it); the serial listener then
    // answers the next scrape normally.
    let t0 = Instant::now();
    let mut drip = TcpStream::connect(maddr).expect("connect drip");
    let waited = loop {
        if drip.write_all(b"G").is_err() {
            break t0.elapsed(); // listener cut us
        }
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "dripping request was never cut by the 2s deadline"
        );
        thread::sleep(Duration::from_millis(25));
    };
    assert!(
        waited >= Duration::from_millis(1500),
        "dripping request should survive to the 2s deadline, cut after {waited:?}"
    );
    let (status, _) = http_request(maddr, "GET /latency HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(status.contains("200"), "{status}");

    handle.shutdown().expect("drain shutdown");
}

/// One blocking HTTP exchange; returns (status line, body).
fn http_request(addr: SocketAddr, request: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect http");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(request.as_bytes()).expect("send request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("malformed response: {text:?}"));
    (head.lines().next().unwrap().to_string(), body.to_string())
}

#[test]
fn http_surface_serves_metrics_events_and_control() {
    let cfg = ServerConfig::builder()
        .metrics_addr("127.0.0.1:0")
        .build()
        .unwrap();
    let server = Server::new(cfg).unwrap();
    let handle = daemon::spawn(server, "127.0.0.1:0").expect("bind daemon");
    let maddr = handle.metrics_addr().expect("http listener bound");

    // One real TCP echo so the documents have content.
    {
        let sock = TcpStream::connect(handle.addr()).expect("connect");
        sock.set_nodelay(true).ok();
        let r = sock.try_clone().expect("clone");
        let mut conn = AdocSocket::new(r, sock);
        let payload = vec![0x5Au8; 120_000];
        conn.write(&payload).expect("send");
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).expect("echo");
        assert_eq!(back, payload);
    }

    // GET /metrics: the v2 document, with the event section live.
    let (status, body) = http_request(maddr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains("\"schema\": \"adoc-server-metrics-v2\""),
        "{body}"
    );
    assert!(body.contains("\"conns_accepted\": 1"), "{body}");

    // GET /metrics?schema=v1: the removed v1 layout is now a 400.
    let (status, _) = http_request(maddr, "GET /metrics?schema=v1 HTTP/1.1\r\n\r\n");
    assert!(status.contains("400"), "{status}");

    // GET /events: JSON lines covering the connection's lifecycle.
    let (status, lines) = http_request(maddr, "GET /events?since=0 HTTP/1.1\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    assert!(lines.contains("\"event\": \"conn_accepted\""), "{lines}");
    assert!(lines.contains("\"event\": \"conn_closed\""), "{lines}");
    // An up-to-date cursor drains nothing.
    let (_, empty) = http_request(
        maddr,
        "GET /events?since=18446744073709551615 HTTP/1.1\r\n\r\n",
    );
    assert!(empty.is_empty(), "{empty:?}");
    let (status, _) = http_request(maddr, "GET /events?since=nope HTTP/1.1\r\n\r\n");
    assert!(status.contains("400"), "{status}");

    // Unknown path and wrong method.
    let (status, _) = http_request(maddr, "GET /nope HTTP/1.1\r\n\r\n");
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_request(maddr, "GET /control/drain HTTP/1.1\r\n\r\n");
    assert!(status.contains("405"), "{status}");

    // POST /control/budget retunes the scheduler live.
    let (status, _) = http_request(
        maddr,
        "POST /control/budget HTTP/1.1\r\nContent-Length: 2\r\n\r\n64",
    );
    assert!(status.contains("200"), "{status}");
    assert_eq!(handle.server().scheduler().budget(), Some(8e6));
    let (status, _) = http_request(
        maddr,
        "POST /control/budget HTTP/1.1\r\nContent-Length: 4\r\n\r\nfast",
    );
    assert!(status.contains("400"), "{status}");

    // POST /control/drain shuts the daemon down gracefully.
    let (status, _) = http_request(maddr, "POST /control/drain HTTP/1.1\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    let t0 = Instant::now();
    while !handle.server().is_draining() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "HTTP drain was not applied"
        );
        thread::sleep(Duration::from_millis(10));
    }
    let server = Arc::clone(handle.server());
    handle.shutdown().expect("drain shutdown");
    assert_eq!(server.registry().totals().completed, 1);
    assert!(
        server
            .event_log()
            .json_lines_since(0)
            .contains("\"event\": \"drain_finished\""),
        "shutdown must emit DrainFinished"
    );
}
