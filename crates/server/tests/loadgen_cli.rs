//! `adoc-loadgen` from the outside: every rejected flag combination
//! exits 2 with its message, and one short run of each mode exits 0 with
//! its report lines and its `--json` document.

use std::process::{Command, Output};

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adoc-loadgen"))
        .args(args)
        .output()
        .expect("run adoc-loadgen")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Runs `args` plus `--json PATH`, expects exit 0, and returns stdout
/// and the document.
fn run_with_json(name: &str, args: &[&str]) -> (String, String) {
    let path = std::env::temp_dir().join(format!(
        "adoc-loadgen-cli-{}-{name}.json",
        std::process::id()
    ));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = loadgen(&[args, &["--json", path_arg]].concat());
    let doc = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: stderr {}",
        text(&out.stderr)
    );
    (text(&out.stdout), doc)
}

#[test]
fn every_rejected_combination_exits_2_with_its_message() {
    let rules: [(&[&str], &str); 12] = [
        (
            &["--sim", "lan100", "--streams", "2"],
            "adoc-loadgen: --sim drives v1 (single-stream) connections only; \
             stream groups need the TCP path. Drop --streams or --sim.",
        ),
        (
            &["--sim", "lan100", "--connect", "127.0.0.1:1"],
            "adoc-loadgen: --sim and --connect are mutually exclusive",
        ),
        (
            &["--sim", "lan100", "--idle-clients", "1"],
            "adoc-loadgen: --idle-clients needs the TCP path; drop --sim",
        ),
        (
            &["--sim", "lan100", "--bulk-clients", "1"],
            "adoc-loadgen: --bulk-clients needs the TCP path; drop --sim",
        ),
        (
            &["--tier", "control", "--connect", "127.0.0.1:1"],
            "adoc-loadgen: --tier re-tiers connections on the spawned in-process \
             daemon's scheduler; an external server's tiers are set on adoc-serverd",
        ),
        (
            &["--tier", "control", "--sim", "lan100"],
            "adoc-loadgen: --tier needs the spawned TCP path; drop --sim",
        ),
        (
            &["--tier", "control", "--streams", "2"],
            "adoc-loadgen: --tier probes use single-stream connections; drop --streams",
        ),
        (
            &["--connect", "127.0.0.1:1", "--budget-mbit", "64"],
            "adoc-loadgen: --budget-mbit only configures a spawned in-process \
             daemon; an external server's budget is set on adoc-serverd",
        ),
        (
            &["--churn", "1", "--rps", "5"],
            "adoc-loadgen: --churn drives plain v4 sessions over TCP; drop --sim/--tier/--rps",
        ),
        (
            &["--churn", "1", "--idle-clients", "1"],
            "adoc-loadgen: --churn does not mix with --idle-clients/--bulk-clients",
        ),
        (
            &["--churn", "1", "--mode", "sink"],
            "adoc-loadgen: --churn verifies byte-exact echoes; drop --mode sink",
        ),
        (
            &["--secret", "s"],
            "adoc-loadgen: --secret keys session-mode clients; it needs --churn",
        ),
    ];
    for (args, message) in rules {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(text(&out.stderr), format!("{message}\n"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn spawned_daemon_run_with_idle_and_bulk_clients_reports_both_populations() {
    let (stdout, doc) = run_with_json(
        "mixed",
        &[
            "--quick",
            "--levels",
            "0,0",
            "--clients",
            "2",
            "--idle-clients",
            "3",
            "--bulk-clients",
            "1",
        ],
    );
    assert!(
        stdout.starts_with("adoc-loadgen: 2 clients (+3 idle) x 2 messages x 196608 B: "),
        "{stdout}"
    );
    assert!(
        stdout.contains("\nadoc-loadgen: 1 bulk clients x 1048576 B background: "),
        "{stdout}"
    );
    assert!(doc.contains("\"schema\": \"adoc-loadgen-v1\""), "{doc}");
    assert!(doc.contains("\"sched_utilization\": null"), "{doc}");
    assert!(doc.contains("\"id\": \"loadgen/echo/clients=2\""), "{doc}");
    assert!(doc.contains("\"id\": \"loadgen/bulk/clients=1\""), "{doc}");
}

#[test]
fn stream_groups_in_sink_mode_run_against_the_spawned_daemon() {
    let out = loadgen(&[
        "--quick",
        "--levels",
        "0,0",
        "--streams",
        "1,2",
        "--mode",
        "sink",
    ]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(
        stdout.starts_with("adoc-loadgen: 6 clients x 2 messages x 196608 B: "),
        "{stdout}"
    );
}

#[test]
fn a_sim_run_serves_the_client_in_process() {
    let out = loadgen(&[
        "--quick",
        "--sim",
        "lan100",
        "--clients",
        "1",
        "--levels",
        "0,0",
    ]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(
        stdout.starts_with("adoc-loadgen: 1 clients x 2 messages x 196608 B: "),
        "{stdout}"
    );
}

#[test]
fn a_churn_run_verifies_messages_across_cuts() {
    let (stdout, doc) = run_with_json("churn", &["--churn", "1", "--clients", "1"]);
    assert!(
        stdout.starts_with("adoc-loadgen: churn: 1 clients x 1048576 B for 1s: "),
        "{stdout}"
    );
    assert!(
        doc.contains("\"schema\": \"adoc-loadgen-churn-v1\""),
        "{doc}"
    );
    let messages: u64 = doc
        .split("\"messages\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no messages count in {doc}"));
    assert!(messages > 0, "{doc}");
}
