//! The server's control surface: a typed command vocabulary, a
//! tolerant line parser, and a [`Control`] object that executes
//! commands against a running [`Server`].
//!
//! Both front ends — the `adoc-serverd` stdin loop and the embedded
//! HTTP listener (see [`crate::http`]) — are thin adapters over this
//! module: they parse bytes into a [`Command`] with [`parse_command`]
//! and hand it to [`Control`]. Keeping the verbs in one place means a
//! new control operation automatically reaches every transport.

use crate::Server;
use std::sync::Arc;

/// A parsed control command.
///
/// The wire syntax (one line per command, case-sensitive verbs):
///
/// | line                | command                          |
/// |---------------------|----------------------------------|
/// | `metrics`           | `Metrics`                        |
/// | `drain`             | `Drain`                          |
/// | `budget <mbit>`     | `Budget(Some(bytes_per_sec))`    |
/// | `budget off`        | `Budget(None)`                   |
/// | `help`              | `Help`                           |
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print a metrics document (`adoc-server-metrics-v2`).
    Metrics,
    /// Begin a graceful drain.
    Drain,
    /// Change the global bandwidth budget (bytes/sec); `None` lifts it.
    Budget(Option<f64>),
    /// Show the command vocabulary.
    Help,
}

/// Parses one control line.
///
/// Tolerant of surrounding whitespace and internal runs of blanks;
/// an empty (or all-blank) line is `Ok(None)` — not a command, not an
/// error. Unknown verbs and malformed arguments produce a one-line
/// human-readable error, e.g. `unknown command "metricz"`.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let mut words = line.split_whitespace();
    let verb = match words.next() {
        Some(w) => w,
        None => return Ok(None),
    };
    let arg = words.next();
    if let Some(extra) = words.next() {
        return Err(format!("unexpected trailing argument \"{extra}\""));
    }
    let cmd = match (verb, arg) {
        ("metrics", None) => Command::Metrics,
        ("metrics", Some(extra)) => {
            return Err(format!(
                "unexpected trailing argument \"{extra}\" (the v1 schema has been removed)"
            ))
        }
        ("drain", None) => Command::Drain,
        ("help", None) => Command::Help,
        ("budget", Some("off")) => Command::Budget(None),
        // Judged after the conversion: a finite Mbit/s figure can still
        // overflow to an infinite byte rate.
        ("budget", Some(v)) => match v.parse::<f64>().map(|mbit| mbit * 1e6 / 8.0) {
            Ok(bytes) if bytes > 0.0 && bytes.is_finite() => Command::Budget(Some(bytes)),
            _ => {
                return Err(format!(
                    "bad budget \"{v}\" (want a positive Mbit/s number or \"off\")"
                ))
            }
        },
        ("budget", None) => return Err("budget needs an argument (Mbit/s or \"off\")".into()),
        ("drain" | "help", Some(extra)) => {
            return Err(format!("unexpected trailing argument \"{extra}\""))
        }
        (other, _) => return Err(format!("unknown command \"{other}\"")),
    };
    Ok(Some(cmd))
}

/// The command vocabulary, one verb per line (the `help` reply).
pub fn help_text() -> &'static str {
    "commands:\n  metrics        print a v2 metrics document\n  drain          begin a graceful drain\n  budget <mbit>  set the global budget in Mbit/s\n  budget off     lift the budget\n  help           this text"
}

/// Executes control commands against a running server. Cheap to clone
/// conceptually (holds one `Arc`); both the stdin loop and the HTTP
/// listener own one.
pub struct Control {
    server: Arc<Server>,
}

impl Control {
    /// Wraps a server.
    pub fn new(server: Arc<Server>) -> Self {
        Control { server }
    }

    /// The server under control.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Current metrics document in the v2 schema.
    pub fn metrics_json(&self) -> String {
        self.server.metrics_json()
    }

    /// Server-wide per-stage latency percentiles (`adoc-latency-v1`).
    pub fn latency_json(&self) -> String {
        self.server.tracer().latency_json()
    }

    /// One connection's flight-recorder document (`adoc-trace-v1`), or
    /// `None` when the connection has no trace (unknown or departed).
    pub fn trace_json(&self, conn: crate::registry::ConnId) -> Option<String> {
        self.server.tracer().trace_json(conn)
    }

    /// Buffered events after `since` rendered as JSON lines (one
    /// object per line, trailing newline when non-empty).
    pub fn events_json_lines(&self, since: u64) -> String {
        self.server.event_log().json_lines_since(since)
    }

    /// Begins a graceful drain (idempotent).
    pub fn drain(&self) {
        self.server.begin_drain();
    }

    /// Replaces the global bandwidth budget; `None` lifts it.
    pub fn set_budget(&self, bytes_per_sec: Option<f64>) {
        self.server.scheduler().set_budget(bytes_per_sec);
    }

    /// Runs one parsed command, returning the text reply to print (the
    /// empty string for commands with no output).
    pub fn run(&self, cmd: &Command) -> String {
        match cmd {
            Command::Metrics => self.metrics_json(),
            Command::Drain => {
                self.drain();
                String::new()
            }
            Command::Budget(b) => {
                self.set_budget(*b);
                String::new()
            }
            Command::Help => help_text().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adoc::Throttle;
    use std::time::Duration;

    #[test]
    fn blank_lines_parse_to_nothing() {
        assert_eq!(parse_command(""), Ok(None));
        assert_eq!(parse_command("   \t  "), Ok(None));
    }

    #[test]
    fn known_verbs_parse_with_sloppy_whitespace() {
        assert_eq!(parse_command("  metrics  "), Ok(Some(Command::Metrics)));
        assert_eq!(parse_command("\tdrain"), Ok(Some(Command::Drain)));
        assert_eq!(parse_command("help"), Ok(Some(Command::Help)));
        assert_eq!(parse_command("budget off"), Ok(Some(Command::Budget(None))));
    }

    #[test]
    fn budget_converts_mbit_to_bytes_per_sec() {
        let cmd = parse_command("budget 64").unwrap().unwrap();
        match cmd {
            Command::Budget(Some(b)) => assert!((b - 8_000_000.0).abs() < 1e-6),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn errors_are_single_line_and_name_the_offender() {
        for (line, needle) in [
            ("metricz", "unknown command \"metricz\""),
            ("metrics v1", "unexpected trailing argument \"v1\""),
            ("budget", "budget needs an argument"),
            ("budget fast", "bad budget \"fast\""),
            ("budget -3", "bad budget \"-3\""),
            ("budget inf", "bad budget \"inf\""),
            ("budget 1e303", "bad budget \"1e303\""),
            ("budget 0", "bad budget \"0\""),
            ("drain now", "unexpected trailing argument \"now\""),
            ("budget 64 now", "unexpected trailing argument \"now\""),
        ] {
            let err = parse_command(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} gave {err:?}");
            assert!(!err.contains('\n'), "{line:?} error spans lines: {err:?}");
        }
    }

    #[test]
    fn extreme_budgets_parse_only_to_rates_the_scheduler_accepts() {
        // 1e303 Mbit/s is finite but overflows to an infinite byte rate,
        // which would trip the scheduler's assert; 1e-300 converts to a
        // tiny positive rate the scheduler must take without panicking.
        assert!(parse_command("budget 1e303").is_err());
        let Ok(Some(Command::Budget(Some(tiny)))) = parse_command("budget 1e-300") else {
            panic!("a tiny positive budget is valid");
        };
        assert!(tiny > 0.0 && tiny.is_finite());
        let sched = crate::FairScheduler::new(None);
        let t = sched.register(1);
        sched.set_budget(Some(tiny));
        t.try_acquire_wire(1 << 20).expect("the burst grant admits");
        let retry = t
            .try_acquire_wire(1)
            .expect_err("a vanishing budget refuses");
        assert!(retry >= Duration::from_secs(60), "hint {retry:?}");
    }

    #[test]
    fn help_text_names_every_verb() {
        for verb in ["metrics", "drain", "budget", "help"] {
            assert!(help_text().contains(verb));
        }
    }
}
