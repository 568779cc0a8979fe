//! The load generator every workload shares: lanes (one client thread
//! each) that step through one slice schedule in lock-step, echoing a
//! payload through AdOC or through plain `write_all`/`read_exact` on the
//! same kind of transport, verifying every byte that comes back.

use crate::stats::Sample;
use crate::trace::Recorder;
use adoc::{AdocSocket, TransferStats};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// What the lanes do during one slice of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// AdOC echoes whose timings are discarded.
    Warm,
    /// AdOC echoes: the measured workload.
    Adoc,
    /// The POSIX control: plain echoes on the same kind of transport.
    Posix,
    /// AdOC echoes against a second daemon with instrumentation off
    /// (traced run of `daemon_rr_1k` only).
    Bare,
}

impl SliceKind {
    /// Lower-case name for listings and results files.
    pub fn name(self) -> &'static str {
        match self {
            SliceKind::Warm => "warm",
            SliceKind::Adoc => "adoc",
            SliceKind::Posix => "posix",
            SliceKind::Bare => "bare",
        }
    }
}

/// One step of the schedule. A slice runs at least one message and then
/// until `secs` have passed, so `secs == 0.0` means "exactly one".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub kind: SliceKind,
    pub secs: f64,
}

/// How a traced run cuts the POSIX control into its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Control {
    /// Seconds of the window each POSIX slice is charged.
    pub secs: f64,
    /// The slice runs exactly one message however long that takes.
    pub one: bool,
    /// A POSIX slice also leads, so the control brackets the run (start,
    /// middle, end).
    pub first: bool,
}

/// Warm-up, then `slices` AdOC slices filling `seconds`. An end-to-end
/// run is nothing else. A traced run follows every AdOC slice with a
/// POSIX control slice (ABAB…, so drift hits both alike) and, with
/// `bare`, gives the second half of every AdOC slice to the
/// uninstrumented daemon.
pub fn schedule(
    warmup_s: f64,
    seconds: f64,
    slices: usize,
    control: Option<Control>,
    bare: bool,
) -> Vec<Slice> {
    let slice = |kind, secs| Slice { kind, secs };
    let posix_slices = control.map_or(0, |c| slices + usize::from(c.first));
    let posix_total = control.map_or(0.0, |c| c.secs) * posix_slices as f64;
    let adoc_secs = ((seconds - posix_total) / slices as f64).max(0.0);
    let posix = control.map(|c| slice(SliceKind::Posix, if c.one { 0.0 } else { c.secs }));
    let mut out = vec![slice(SliceKind::Warm, warmup_s)];
    if control.is_some_and(|c| c.first) {
        out.extend(posix);
    }
    for _ in 0..slices {
        if bare {
            out.push(slice(SliceKind::Adoc, adoc_secs / 2.0));
            out.push(slice(SliceKind::Bare, adoc_secs / 2.0));
        } else {
            out.push(slice(SliceKind::Adoc, adoc_secs));
        }
        out.extend(posix);
    }
    out
}

/// One client: its AdOC connection, optionally a plain connection of the
/// same transport for the POSIX control and a second AdOC connection for
/// the bare-daemon comparison, and the bytes it echoes.
pub struct Lane<R: Read + Send, W: Write + Send> {
    pub adoc: AdocSocket<R, W>,
    pub posix: Option<(R, W)>,
    pub bare: Option<AdocSocket<R, W>>,
    pub payload: Arc<Vec<u8>>,
    /// The POSIX control echoes this many leading bytes of the payload.
    pub posix_len: usize,
}

/// State the lanes, the echo threads and the monitor share.
pub struct Shared {
    pub epoch: Instant,
    /// Lanes meet here at every slice boundary.
    pub barrier: Barrier,
    /// Traced run: record spans on alternating blocks of messages.
    pub trace: bool,
    /// Messages per traced/untraced block.
    pub trace_block: u64,
    /// Tells harness-owned echo threads whether the message in flight is
    /// a traced one.
    pub echo_traced: AtomicBool,
    /// Bumped after every message; the monitor turns a counter that has
    /// stopped into a counted failure instead of a stalled run.
    pub progress: AtomicU64,
    /// Run once by lane 0 when the first measured slice begins: the
    /// workload snapshots the counters it reports as window deltas.
    pub on_window_open: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Shared {
    pub fn new(lanes: usize, trace: bool, trace_block: u64) -> Arc<Shared> {
        Arc::new(Shared {
            epoch: Instant::now(),
            barrier: Barrier::new(lanes),
            trace,
            trace_block,
            echo_traced: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            on_window_open: Mutex::new(None),
        })
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// What one lane did during one slice. Kept small — four bytes a
/// message — so that the smallest-message workload's hundreds of
/// thousands of samples do not show up in the peak RSS it reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceOut {
    pub kind: SliceKind,
    /// Start of the slice's first message and end of its last, seconds
    /// on the run's clock.
    pub first_start: f64,
    pub last_end: f64,
    /// Round-trip time of every verified message, in order.
    pub lat_ms: Vec<f32>,
}

impl SliceOut {
    fn new(kind: SliceKind) -> SliceOut {
        SliceOut {
            kind,
            first_start: 0.0,
            last_end: 0.0,
            lat_ms: Vec::new(),
        }
    }

    fn push(&mut self, s: Sample) {
        if self.lat_ms.is_empty() {
            self.first_start = s.start;
        }
        self.last_end = s.end;
        self.lat_ms.push(s.ms() as f32);
    }

    /// Round trips per second over the span the slice really covered:
    /// first start to last end. A message in flight at the slice's
    /// deadline is neither dropped nor rounded up, and time spent waiting
    /// at a slice boundary is nobody's.
    pub fn rate(&self) -> f64 {
        let span = self.last_end - self.first_start;
        if span > 0.0 {
            self.lat_ms.len() as f64 / span
        } else {
            0.0
        }
    }
}

/// In a traced run, spans are recorded on alternating blocks of `block`
/// messages; message `index` of a slice is a traced one in odd blocks.
pub fn is_traced(index: u64, block: u64) -> bool {
    (index / block) % 2 == 1
}

/// Everything a lane hands back.
pub struct LaneOut {
    pub slices: Vec<SliceOut>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub recorder: Recorder,
    /// Sender statistics when the first measured slice began, and at the
    /// end: the difference is the window's.
    pub stats_start: TransferStats,
    pub stats_end: TransferStats,
    /// Probe results (bits/s) of measured messages that probed.
    pub probes_bps: Vec<f64>,
}

/// Failure of one echo; the lane stops using that connection.
fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// One AdOC echo with a span around each call into the socket.
pub fn adoc_echo<R: Read + Send, W: Write + Send>(
    sock: &mut AdocSocket<R, W>,
    payload: &[u8],
    back: &mut [u8],
    rec: &mut Recorder,
    epoch: Instant,
    msg: u64,
) -> Result<(Sample, Option<f64>), String> {
    let root = rec.open("msg", None, msg);
    let start = epoch.elapsed().as_secs_f64();
    let w = rec.open("socket.write", root, msg);
    let report = sock.write(payload).map_err(|e| fail("adoc write", e))?;
    rec.close(w);
    let r = rec.open("socket.read", root, msg);
    sock.read_exact(back).map_err(|e| fail("adoc read", e))?;
    rec.close(r);
    let end = epoch.elapsed().as_secs_f64();
    let v = rec.open("harness.verify", root, msg);
    if back != payload {
        return Err("echo differs from what was sent".into());
    }
    rec.close(v);
    rec.close(root);
    Ok((Sample { start, end }, report.probe_bps))
}

/// One plain echo: `write_all`, `read_exact`, compare.
pub fn posix_echo(
    conn: &mut (impl Read, impl Write),
    payload: &[u8],
    back: &mut [u8],
    epoch: Instant,
) -> Result<Sample, String> {
    let start = epoch.elapsed().as_secs_f64();
    conn.1
        .write_all(payload)
        .map_err(|e| fail("posix write", e))?;
    conn.1.flush().map_err(|e| fail("posix flush", e))?;
    conn.0.read_exact(back).map_err(|e| fail("posix read", e))?;
    let end = epoch.elapsed().as_secs_f64();
    if back != payload {
        return Err("posix echo differs from what was sent".into());
    }
    Ok(Sample { start, end })
}

/// Runs one lane through the schedule. A lane whose connection failed
/// keeps meeting the others at the barrier, so one failure is counted
/// rather than deadlocking the rest.
pub fn run_lane<R: Read + Send, W: Write + Send>(
    mut lane: Lane<R, W>,
    lane_index: u64,
    schedule: &[Slice],
    sh: &Shared,
) -> LaneOut {
    let mut out = LaneOut {
        slices: Vec::with_capacity(schedule.len()),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        recorder: Recorder::new(sh.epoch, false),
        stats_start: lane.adoc.stats().clone(),
        stats_end: lane.adoc.stats().clone(),
        probes_bps: Vec::new(),
    };
    let mut back = vec![0u8; lane.payload.len()];
    let mut next_msg = lane_index << 40;
    let mut dead = false;
    let mut window_open = false;
    for slice in schedule {
        sh.barrier.wait();
        let mut done = SliceOut::new(slice.kind);
        if !window_open && slice.kind != SliceKind::Warm {
            window_open = true;
            out.stats_start = lane.adoc.stats().clone();
            if lane_index == 0 {
                let hook = sh.on_window_open.lock().expect("hook mutex").take();
                if let Some(hook) = hook {
                    hook();
                }
            }
        }
        let end = Instant::now() + Duration::from_secs_f64(slice.secs);
        while !dead {
            let measured = slice.kind == SliceKind::Adoc;
            let traced =
                sh.trace && measured && is_traced(done.lat_ms.len() as u64, sh.trace_block);
            out.recorder.set_enabled(traced);
            sh.echo_traced.store(traced, Ordering::Relaxed);
            out.attempted += 1;
            let result = match slice.kind {
                SliceKind::Warm | SliceKind::Adoc => {
                    next_msg += 1;
                    adoc_echo(
                        &mut lane.adoc,
                        &lane.payload,
                        &mut back,
                        &mut out.recorder,
                        sh.epoch,
                        next_msg,
                    )
                }
                SliceKind::Bare => {
                    let sock = lane
                        .bare
                        .as_mut()
                        .expect("schedule has Bare, lane has none");
                    adoc_echo(
                        sock,
                        &lane.payload,
                        &mut back,
                        &mut out.recorder,
                        sh.epoch,
                        0,
                    )
                }
                SliceKind::Posix => {
                    let conn = lane
                        .posix
                        .as_mut()
                        .expect("schedule has Posix, lane has none");
                    let n = lane.posix_len;
                    posix_echo(conn, &lane.payload[..n], &mut back[..n], sh.epoch)
                        .map(|s| (s, None))
                }
            };
            sh.progress.fetch_add(1, Ordering::Relaxed);
            match result {
                Ok((sample, probe)) => {
                    if measured {
                        out.probes_bps.extend(probe);
                    }
                    done.push(sample);
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(format!("lane {lane_index}: {e}"));
                    dead = true;
                }
            }
            if Instant::now() >= end {
                break;
            }
        }
        // Hand back the doubling slack, or the smallest-message workload's
        // peak RSS jumps by megabytes whenever a slice's count crosses a
        // power of two.
        done.lat_ms.shrink_to_fit();
        out.slices.push(done);
    }
    out.recorder.set_enabled(false);
    out.stats_end = lane.adoc.stats().clone();
    out
}

/// What a harness-owned AdOC echo thread hands back.
pub struct EchoOut {
    pub recorder: Recorder,
    pub error: Option<String>,
}

/// The far end of a library workload: reads one `size`-byte message,
/// sends it back, until the peer closes at a message boundary.
pub fn adoc_echo_server<R: Read + Send, W: Write + Send>(
    mut sock: AdocSocket<R, W>,
    size: usize,
    sh: &Shared,
) -> EchoOut {
    let mut rec = Recorder::new(sh.epoch, false);
    let mut buf = vec![0u8; size];
    let mut msg = 0u64;
    let error = loop {
        // The first read of a message is where a clean close shows; it
        // is also where the whole message is received (AdOC decodes a
        // message before handing any of it out), so the span starts here.
        let began = rec.now_ns();
        let first = match sock.read(&mut buf) {
            Ok(0) => break None,
            Ok(n) => n,
            Err(e) => break Some(fail("echo read", e)),
        };
        msg += 1;
        rec.set_enabled(sh.echo_traced.load(Ordering::Relaxed));
        let r = rec.open_at("echo.read", None, msg, began);
        if let Err(e) = sock.read_exact(&mut buf[first..]) {
            break Some(fail("echo read", e));
        }
        rec.close(r);
        let w = rec.open("echo.write", None, msg);
        if let Err(e) = sock.write(&buf) {
            break Some(fail("echo write", e));
        }
        rec.close(w);
    };
    EchoOut {
        recorder: rec,
        error,
    }
}

/// The far end of the POSIX control: store-and-forward like the AdOC
/// echo (read the whole message, then write it back), so neither side
/// can fill both directions' buffers and deadlock.
pub fn posix_echo_server(mut r: impl Read, mut w: impl Write, size: usize) -> io::Result<()> {
    let mut buf = vec![0u8; size];
    loop {
        let first = r.read(&mut buf)?;
        if first == 0 {
            return Ok(());
        }
        r.read_exact(&mut buf[first..])?;
        w.write_all(&buf)?;
        w.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fills_the_window_and_interleaves_the_control() {
        use SliceKind::*;
        let kinds = |s: &[Slice]| s.iter().map(|x| x.kind).collect::<Vec<_>>();
        // End-to-end run: warm-up, then nothing but AdOC.
        let s = schedule(2.0, 12.0, 6, None, false);
        assert_eq!(kinds(&s), [Warm, Adoc, Adoc, Adoc, Adoc, Adoc, Adoc]);
        assert!(s[1..].iter().all(|x| x.secs == 2.0));

        // Traced run: ABAB, and with `first` the control brackets it.
        let c = Control {
            secs: 0.5,
            one: false,
            first: true,
        };
        let s = schedule(2.0, 12.0, 2, Some(c), false);
        assert_eq!(kinds(&s), [Warm, Posix, Adoc, Posix, Adoc, Posix]);
        let measured: f64 = s.iter().skip(1).map(|x| x.secs).sum();
        assert!((measured - 12.0).abs() < 1e-9);
        assert_eq!(s[2].secs, 5.25);
        // One-message control slices are charged their nominal length
        // but run on a count, not a clock.
        let one = schedule(2.0, 12.0, 2, Some(Control { one: true, ..c }), false);
        assert_eq!((one[1].secs, one[2].secs), (0.0, 5.25));

        // The bare daemon takes the second half of every AdOC slice.
        let c = Control {
            secs: 0.25,
            one: false,
            first: false,
        };
        let s = schedule(0.2, 3.0, 2, Some(c), true);
        assert_eq!(kinds(&s), [Warm, Adoc, Bare, Posix, Adoc, Bare, Posix]);
        assert_eq!((s[1].secs, s[2].secs), (0.625, 0.625));
        // A control longer than the window leaves AdOC slices of one
        // message each rather than a negative length.
        let c = Control {
            secs: 2.0,
            one: false,
            first: false,
        };
        assert_eq!(schedule(0.0, 1.0, 1, Some(c), false)[1].secs, 0.0);
    }

    #[test]
    fn slice_rate_covers_first_start_to_last_end() {
        let mut s = SliceOut::new(SliceKind::Adoc);
        assert_eq!(s.rate(), 0.0);
        s.push(Sample {
            start: 2.1,
            end: 3.0,
        });
        s.push(Sample {
            start: 3.0,
            end: 4.0,
        });
        assert!((s.rate() - 2.0 / 1.9).abs() < 1e-12);
        assert!((f64::from(s.lat_ms[0]) - 900.0).abs() < 1e-3);
        assert!(!is_traced(0, 4) && !is_traced(3, 4) && is_traced(4, 4) && !is_traced(8, 4));
    }
}
