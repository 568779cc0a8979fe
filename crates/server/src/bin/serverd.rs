//! `adoc-serverd` — the AdOC transfer daemon.
//!
//! ```text
//! adoc-serverd [--listen ADDR] [--max-conns N] [--budget-mbit F]
//!              [--mode echo|sink] [--hello-timeout-ms N]
//!              [--drain-deadline-ms N] [--pool-idle N]
//!              [--pool-idle-bytes B]
//!              [--default-tier control|paid|bulk]
//!              [--tier-peer PREFIX=TIER]...
//!              [--metrics-every-secs N] [--port-file PATH]
//!              [--metrics-addr ADDR] [--metrics-port-file PATH]
//!              [--require-auth] [--secret STRING]
//!              [--resume-window-ms N] [--ticket-ttl-secs N]
//! ```
//!
//! `--secret` keys the HMAC session tickets (v4 clients get a ticket on
//! connect and can resume a dropped session mid-message with it);
//! `--require-auth` additionally refuses every unauthenticated client
//! (v1 sockets, and new-session hellos without a valid MAC).
//! Without `--secret` the key is random per process, so tickets only
//! resume against the daemon that minted them.
//!
//! The wire budget is shared by a **work-conserving weighted
//! scheduler**: share idle connections leave unused flows to backlogged
//! ones, and `--default-tier` / `--tier-peer` set the weights
//! (`control` = 4×, `paid` = 2×, `bulk` = 1×). `--tier-peer` matches
//! peer-address prefixes, first match wins, and may repeat:
//! `--tier-peer 10.0.7.=paid --tier-peer 10.0.8.=control`.
//!
//! Two control transports front the same [`adoc_server::Control`]
//! surface:
//!
//! * **stdin** — one command per line: `metrics` (add `v1` for the
//!   deprecated schema), `budget <mbit>|off`, `help`, and `drain`;
//!   unknown lines answer `err …` on stdout. EOF also drains, so CI
//!   bounds a run with `sleep 30 | adoc-serverd …`.
//! * **HTTP** (`--metrics-addr`) — `GET /metrics`,
//!   `GET /events?since=seq`, `POST /control/drain`,
//!   `POST /control/budget`; `--metrics-port-file` writes the bound
//!   port (useful with port 0).
//!
//! The daemon serves until a drain arrives on either transport, then
//! drains gracefully (in-flight messages finish) and prints a final
//! metrics document on stdout.

use adoc_server::Server;
use adoc_server::{daemon, parse_command, Command, Control, ServeMode, ServerConfig, Tier};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: adoc-serverd [--listen ADDR] [--max-conns N] [--budget-mbit F]\n\
         \u{20}                   [--mode echo|sink] [--hello-timeout-ms N]\n\
         \u{20}                   [--drain-deadline-ms N] [--pool-idle N]\n\
         \u{20}                   [--pool-idle-bytes B]\n\
         \u{20}                   [--default-tier control|paid|bulk]\n\
         \u{20}                   [--tier-peer PREFIX=TIER]...\n\
         \u{20}                   [--metrics-every-secs N] [--port-file PATH]\n\
         \u{20}                   [--metrics-addr ADDR] [--metrics-port-file PATH]\n\
         \u{20}                   [--require-auth] [--secret STRING]\n\
         \u{20}                   [--resume-window-ms N] [--ticket-ttl-secs N]\n\
         --secret keys HMAC session tickets (resumable v4 sessions);\n\
         --require-auth refuses every client without a valid MAC\n\
         the budget is work-conserving weighted fair: tiers weigh control=4x,\n\
         paid=2x, bulk=1x; --tier-peer assigns a tier by peer-address prefix\n\
         (first match wins) and may be repeated\n\
         --metrics-addr serves GET /metrics, GET /events?since=seq,\n\
         POST /control/drain and POST /control/budget over HTTP\n\
         stdin: 'metrics [v1]' prints a snapshot, 'budget <mbit>|off' retunes\n\
         the budget live, 'help' lists commands, 'drain' or EOF shuts down\n\
         gracefully"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(v) = args.next() else {
        eprintln!("missing value for {flag}");
        usage();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value {v:?} for {flag}");
        usage();
    })
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut builder = ServerConfig::builder();
    let mut adoc = adoc::AdocConfig::default();
    let mut metrics_every: u64 = 0;
    let mut port_file: Option<String> = None;
    let mut metrics_port_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = parse(&mut args, "--listen"),
            "--max-conns" => builder = builder.max_conns(parse(&mut args, "--max-conns")),
            "--budget-mbit" => {
                let mbit: f64 = parse(&mut args, "--budget-mbit");
                if !(mbit > 0.0 && mbit.is_finite()) {
                    eprintln!("--budget-mbit wants a positive finite Mbit/s, got {mbit}");
                    usage();
                }
                builder = builder.budget(Some(mbit * 1e6 / 8.0));
            }
            "--mode" => {
                builder = builder.mode(match parse::<String>(&mut args, "--mode").as_str() {
                    "echo" => ServeMode::Echo,
                    "sink" => ServeMode::Sink,
                    other => {
                        eprintln!("unknown mode {other:?}");
                        usage();
                    }
                })
            }
            "--hello-timeout-ms" => {
                adoc.hello_timeout = Duration::from_millis(parse(&mut args, "--hello-timeout-ms"));
            }
            "--drain-deadline-ms" => {
                builder = builder.drain_deadline(Duration::from_millis(parse(
                    &mut args,
                    "--drain-deadline-ms",
                )));
            }
            "--pool-idle" => builder = builder.pool_max_idle(Some(parse(&mut args, "--pool-idle"))),
            "--pool-idle-bytes" => {
                builder = builder.pool_max_idle_bytes(Some(parse(&mut args, "--pool-idle-bytes")))
            }
            "--default-tier" => builder = builder.default_tier(parse(&mut args, "--default-tier")),
            "--tier-peer" => {
                let spec: String = parse::<String>(&mut args, "--tier-peer");
                let Some((prefix, tier)) = spec.split_once('=') else {
                    eprintln!("--tier-peer wants PREFIX=TIER, got {spec:?}");
                    usage();
                };
                let Ok(tier) = tier.parse::<Tier>() else {
                    eprintln!("bad tier in {spec:?}");
                    usage();
                };
                builder = builder.tier_override(prefix, tier);
            }
            "--require-auth" => builder = builder.require_auth(true),
            "--secret" => builder = builder.auth_secret(parse::<String>(&mut args, "--secret")),
            "--resume-window-ms" => {
                builder = builder.resume_window(Duration::from_millis(parse(
                    &mut args,
                    "--resume-window-ms",
                )));
            }
            "--ticket-ttl-secs" => {
                builder =
                    builder.ticket_ttl(Duration::from_secs(parse(&mut args, "--ticket-ttl-secs")));
            }
            "--metrics-every-secs" => metrics_every = parse(&mut args, "--metrics-every-secs"),
            "--port-file" => port_file = Some(parse(&mut args, "--port-file")),
            "--metrics-addr" => {
                builder = builder.metrics_addr(parse::<String>(&mut args, "--metrics-addr"))
            }
            "--metrics-port-file" => {
                metrics_port_file = Some(parse(&mut args, "--metrics-port-file"))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let server = match builder.adoc(adoc).build().and_then(|cfg| {
        Server::new(cfg).map_err(|e| {
            adoc::AdocError::from_io(&e)
                .cloned()
                .unwrap_or(adoc::AdocError::InvalidConfig {
                    reason: e.to_string(),
                })
        })
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adoc-serverd: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let handle = match daemon::spawn(server, &listen) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("adoc-serverd: cannot listen on {listen}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("adoc-serverd: listening on {}", handle.addr());
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, handle.addr().port().to_string()) {
            eprintln!("adoc-serverd: cannot write port file {path}: {e}");
        }
    }
    if let Some(maddr) = handle.metrics_addr() {
        eprintln!("adoc-serverd: metrics on http://{maddr}/metrics");
        if let Some(path) = metrics_port_file {
            if let Err(e) = std::fs::write(&path, maddr.port().to_string()) {
                eprintln!("adoc-serverd: cannot write metrics port file {path}: {e}");
            }
        }
    }

    // Optional periodic metrics on stderr (stdout stays machine-clean).
    // The interval wait doubles as the drain watch: a drain wakes the
    // condvar immediately instead of being noticed on the next poll.
    let periodic = (metrics_every > 0).then(|| {
        let server = Arc::clone(handle.server());
        std::thread::spawn(move || {
            let interval = Duration::from_secs(metrics_every);
            while !server.wait_until_draining(Some(interval)) {
                eprintln!("{}", server.metrics_json());
            }
        })
    });

    // stdin is one thin adapter over the shared Control surface (the
    // HTTP listener is the other). It runs on its own thread so the
    // main thread can also notice a drain requested over HTTP; it is
    // deliberately never joined — with no drain command it blocks in
    // the stdin read forever, and the process exit reaps it.
    {
        let control = Control::new(Arc::clone(handle.server()));
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                match parse_command(&line) {
                    Ok(None) => {}
                    Ok(Some(Command::Drain)) => break,
                    Ok(Some(cmd)) => {
                        let reply = control.run(&cmd);
                        if !reply.is_empty() {
                            print!("{reply}");
                            if !reply.ends_with('\n') {
                                println!();
                            }
                        }
                    }
                    Err(e) => println!("err {e}"),
                }
            }
            // drain command, stdin EOF, or a read error: shut down.
            control.drain();
        });
    }

    // Serve until *any* transport requests a drain. The condvar wait
    // means zero wakeups while serving — no 100 ms poll loop.
    handle.server().wait_until_draining(None);

    eprintln!("adoc-serverd: draining…");
    let server = Arc::clone(handle.server());
    match handle.shutdown() {
        Ok(()) => {
            println!("{}", server.metrics_json());
            eprintln!("adoc-serverd: drained cleanly");
        }
        Err(e) => {
            eprintln!("adoc-serverd: shutdown error: {e}");
            std::process::exit(1);
        }
    }
    if let Some(t) = periodic {
        let _ = t.join();
    }
}
