//! Process-level readings from `/proc/self`: peak RSS, CPU time, thread
//! count, context switches. The parsers take the file's text so the unit
//! tests can feed them fixtures.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for every architecture's user-space ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// The numeric value of a `Key:   123 kB` line in `/proc/<pid>/status`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// second field is the command name in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn stat_cpu_secs(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

fn read_status() -> String {
    fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field(&read_status(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now.
pub fn threads_now() -> u64 {
    status_field(&read_status(), "Threads").unwrap_or(0)
}

/// CPU seconds (user + system) this process has used, threads that have
/// already exited included.
pub fn cpu_secs() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_secs(&s))
        .unwrap_or(0.0)
}

/// Voluntary + involuntary context switches summed over the threads that
/// are alive now. The kernel keeps these per thread and drops them when
/// a thread exits, so switches of short-lived threads (AdOC starts a
/// compression and an emission thread per large message) are not in the
/// sum; the number is a floor, comparable between runs of one workload.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// CPU time and context switches at one instant; two of them bracket
/// the measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSnap {
    /// Seconds on the run's clock.
    pub t: f64,
    pub cpu_s: f64,
    pub ctx: u64,
}

impl ProcSnap {
    pub fn take(t: f64) -> ProcSnap {
        ProcSnap {
            t,
            cpu_s: cpu_secs(),
            ctx: ctx_switches(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tadoc-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  215040 kB\nVmSize:\t  149504 kB\nVmHWM:\t   70656 kB\nVmRSS:\t   4096 kB\n\
        Threads:\t7\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(70656));
        assert_eq!(status_field(STATUS, "Threads"), Some(7));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(120));
        // A key that is a prefix of another must not match it.
        assert_eq!(status_field(STATUS, "Vm"), None);
        assert_eq!(status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (a) b (c)) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
            250 50 0 0 20 0 7 0 100 153092096 17664 18446744073709551615";
        assert_eq!(stat_cpu_secs(stat), Some(3.0));
        assert_eq!(stat_cpu_secs("1 (x) R 1 2"), None);
        assert_eq!(stat_cpu_secs("garbage"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        assert!(threads_now() >= 1);
        assert!(cpu_secs() >= 0.0);
    }
}
