//! Harness-owned spans: one around each call into a layer's public
//! functions. Spans stay in memory while the workload runs and are
//! written out at exit; tracing inside the program is a later change.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a span nothing in this thread caused.
const NO_PARENT: u32 = u32::MAX;

/// Spans one recorder keeps before it stops recording and only counts;
/// the smallest-message workload fills well under half of it in a run.
const MAX_SPANS: usize = 2_000_000;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `socket.write`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Message the span belongs to; spans of one message share it across
    /// threads.
    pub msg: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Handle to an open span; `None` while recording is off.
pub type SpanId = Option<u32>;

/// A per-thread span buffer. Each load-generating thread owns one, so
/// recording takes no lock; [`merge`] joins them after the window.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off (the traced run alternates slices to
    /// price the tracing itself).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the run's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, msg: u64) -> SpanId {
        self.open_at(name, parent, msg, self.now_ns())
    }

    /// Opens a span that began at `start_ns` — for a call whose outcome
    /// decides whether there is anything to record (a blocking read that
    /// may report end of stream instead of a message).
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        msg: u64,
        start_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.unwrap_or(NO_PARENT),
            msg,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }
}

/// Joins per-thread buffers into one list, re-basing parent indices.
/// Returns the spans and how many were dropped at the cap.
pub fn merge(recorders: Vec<Recorder>) -> (Vec<Span>, u64) {
    let mut all = Vec::with_capacity(recorders.iter().map(|r| r.spans.len()).sum());
    let mut dropped = 0;
    for r in recorders {
        let base = all.len() as u32;
        dropped += r.dropped;
        all.extend(r.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    (all, dropped)
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_s: f64,
    /// Sum of self times: duration minus what child spans cover.
    pub self_s: f64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the durations of the spans that name it as parent (children of
/// one parent run one after another on the parent's thread, so they do
/// not overlap).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&covered) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.secs();
        t.self_s += (s.secs() - child).max(0.0);
    }
    out
}

/// Durations of every span called `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() * 1e3)
        .collect()
}

/// Writes spans as tab-separated lines: name, start ns, end ns, parent
/// line index (−1 for none), message id.
pub fn write_tsv(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\tmsg")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.msg
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            msg: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("msg", 0, 10_000_000_000, NO_PARENT),
            span("socket.write", 1_000_000_000, 4_000_000_000, 0),
            span("socket.read", 4_000_000_000, 9_000_000_000, 0),
            span("echo.read", 2_000_000_000, 3_000_000_000, NO_PARENT),
        ];
        let t = totals(&spans);
        assert_eq!(t["msg"].total_s, 10.0);
        assert_eq!(t["msg"].self_s, 2.0);
        assert_eq!(t["socket.write"].self_s, 3.0);
        assert_eq!(t["socket.read"].count, 1);
        assert_eq!(t["echo.read"].self_s, 1.0);
        assert_eq!(durations_ms(&spans, "socket.read"), vec![5000.0]);
    }

    #[test]
    fn recorder_off_records_nothing_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, true);
        let root = a.open("msg", None, 7);
        let child = a.open("socket.write", root, 7);
        a.close(child);
        a.close(root);
        a.set_enabled(false);
        assert_eq!(a.open("msg", None, 8), None);
        a.close(None);

        let mut b = Recorder::new(epoch, true);
        let root_b = b.open("msg", None, 9);
        let child_b = b.open("socket.read", root_b, 9);
        b.close(child_b);
        b.close(root_b);

        let (all, dropped) = merge(vec![a, b]);
        assert_eq!(dropped, 0);
        assert_eq!(all.len(), 4);
        assert_eq!(all[1].parent, 0);
        assert_eq!(all[2].parent, NO_PARENT);
        assert_eq!(all[3].parent, 2);
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(all[3].msg, 9);
    }
}
