//! Results files: one reproducibility header and a list of runs, and the
//! `compare` verdicts between two of them.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::summary::Outcome;
use crate::workloads::Plan;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

pub const SCHEMA: &str = "adoc-benchmark-results-v1";

/// Where results and span files go unless `--out` says otherwise: inside
/// the benchmark's own directory, ignored by git.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What a reader needs to judge whether two files are comparable.
pub fn header(plan: &Plan) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("quick", Json::from(plan.quick)),
        // A quick run exercises the code paths; its numbers mean nothing.
        ("comparable", Json::from(!plan.quick)),
        ("window_s", Json::from(plan.seconds)),
        ("warmup_s", Json::from(plan.warmup_s)),
        ("setup_min_reps", Json::from(plan.setup_min_reps as u64)),
    ])
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("")
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value)| {
        (
            name,
            Json::obj([
                ("value", Json::from(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }))
}

/// The last line of standard output: what the driver parses.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics = if trace { &o.per_layer } else { &o.end_to_end };
    Json::obj([
        ("correct", Json::from(o.correct)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

/// One run as it is stored in a results file.
pub fn run_json(o: &Outcome, plan: &Plan) -> Json {
    let mut metrics = o.end_to_end.clone();
    metrics.extend(&o.per_layer);
    Json::obj([
        ("workload", Json::str(o.workload)),
        ("seed", Json::from(plan.seed)),
        ("trace", Json::from(plan.trace)),
        ("correct", Json::from(o.correct)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        (
            "slices",
            Json::Arr(
                o.slices
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("kind", Json::str(s.kind.name())),
                            ("secs", Json::from(s.secs)),
                            ("messages", Json::from(s.lat_ms.len() as u64)),
                            ("per_s", Json::from(s.per_s)),
                            ("mean_ms", Json::from(s.mean_ms())),
                            ("quiet", Json::from(s.kept)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&metrics)),
        (
            "samples",
            Json::obj(o.samples.iter().map(|&(k, n)| (k, Json::from(n)))),
        ),
        (
            "percentiles",
            Json::obj(o.percentiles.iter().map(|(name, r)| {
                (
                    *name,
                    Json::obj([
                        ("value_ms", Json::from(r.value)),
                        ("reported", Json::str(r.used)),
                        ("samples", Json::from(r.n as u64)),
                        ("beyond", Json::from(r.beyond as u64)),
                        // False only for the mean, the last fallback.
                        ("ten_beyond", Json::from(r.beyond >= 10)),
                    ]),
                )
            })),
        ),
        (
            "checks",
            Json::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(o.errors.iter().map(|e| Json::str(e.clone())).collect()),
        ),
    ])
}

pub fn file_json(header: Json, runs: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("header", header),
        ("runs", Json::Arr(runs)),
    ])
}

/// What `compare` concluded about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound, and both sets of
    /// runs are steadier than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The runs' own spread exceeds the bound: the data cannot say
    /// "unchanged", and this is not the same as `Within`.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, positive = the number went up.
    pub delta: f64,
    pub bound: f64,
    /// Larger of the two sets' quartile distance ÷ median, if both sets
    /// have at least two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Decides one row. `a` and `b` are the metric's value in every run of
/// each set.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> (f64, f64, f64, Option<f64>, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = match better {
        Better::Higher => -delta,
        Better::Lower => delta,
    };
    let spread = spread(a).zip(spread(b)).map(|(x, y)| x.max(y));
    // Every run of one set beyond every run of the other settles the
    // direction whatever the spread.
    let (lo_a, hi_a) = a
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    let (lo_b, hi_b) = b
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    let b_all_better = match better {
        Better::Higher => lo_b > hi_a,
        Better::Lower => hi_b < lo_a,
    };
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if spread.is_some_and(|s| s > bound) && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Within
    };
    (ma, mb, delta, spread, verdict)
}

/// Per workload, every run's value of every metric.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// Per workload, messages failed and attempted over all runs.
type Failures = BTreeMap<String, (f64, f64)>;

/// The untraced runs of a results file, correct or not.
fn tabulate(file: &Json) -> Result<(Table, Failures), String> {
    if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let mut table = Table::new();
    let mut failures = Failures::new();
    for run in file.get("runs").map(Json::as_arr).unwrap_or_default() {
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let num = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let f = failures.entry(workload.into()).or_default();
        f.0 += num("failed");
        f.1 += num("attempted");
        let metrics = table.entry(workload.into()).or_default();
        for (name, m) in run.get("metrics").map(Json::as_obj).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok((table, failures))
}

/// Compares results file `b` against `a`. Returns the rows, and the
/// workloads whose share of failed messages rose.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    for (name, f) in [("A", a), ("B", b)] {
        if f.get("header").and_then(|h| h.get("comparable")) != Some(&Json::Bool(true)) {
            return Err(format!("{name} is marked non-comparable (a --quick run)"));
        }
    }
    let (ta, fa) = tabulate(a)?;
    let (tb, fb) = tabulate(b)?;
    let mut rows = Vec::new();
    for (workload, metrics_a) in &ta {
        let Some(metrics_b) = tb.get(workload) else {
            return Err(format!("B has no runs of {workload}"));
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                return Err(format!("{workload}: {} missing from one side", m.name));
            };
            let (ma, mb, delta, spread, verdict) = judge(va, vb, m.better, m.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                a: ma,
                b: mb,
                delta,
                bound: m.bound,
                spread,
                verdict,
            });
        }
    }
    let share = |f: Option<&(f64, f64)>| f.map_or(0.0, |&(failed, n)| failed / n.max(1.0));
    let rose = fa
        .keys()
        .filter(|w| share(fb.get(*w)) > share(fa.get(*w)))
        .cloned()
        .collect();
    Ok((rows, rose))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn judge_separates_regression_unresolved_and_within() {
        let steady_a = [100.0, 101.0, 99.0];
        // 20 % lower goodput with a 10 % bound: regression.
        let v = judge(&steady_a, &[80.0, 81.0, 79.0], Higher, 0.10);
        assert_eq!(v.4, Verdict::Regression);
        assert!((v.2 + 0.20).abs() < 1e-12);
        // The same numbers for a latency: it went down, which is better.
        assert_eq!(
            judge(&steady_a, &[80.0, 81.0, 79.0], Lower, 0.10).4,
            Verdict::Within
        );
        // 5 % lower with tight runs: inside the bound.
        assert_eq!(
            judge(&steady_a, &[95.0, 96.0, 94.0], Higher, 0.10).4,
            Verdict::Within
        );
        // Medians agree but B's runs scatter 40 %: not "unchanged".
        let v = judge(&steady_a, &[80.0, 100.0, 120.0], Higher, 0.10);
        assert_eq!(v.4, Verdict::Unresolved);
        assert!(v.3.unwrap() > 0.10);
        // Scattered, but every run of B beats every run of A: resolved.
        assert_eq!(
            judge(&steady_a, &[150.0, 200.0, 250.0], Higher, 0.10).4,
            Verdict::Within
        );
        // A single run a side has no spread to be unresolved about.
        assert_eq!(judge(&[100.0], &[99.0], Higher, 0.10).3, None);
    }

    fn file(comparable: bool, runs: &[(&str, f64, f64)]) -> Json {
        let runs = runs
            .iter()
            .map(|&(workload, goodput, failed)| {
                let metrics = END_TO_END.iter().map(|m| {
                    let v = if m.name == "goodput_mibps" {
                        goodput
                    } else {
                        1.0
                    };
                    (
                        m.name,
                        Json::obj([("value", Json::from(v)), ("unit", Json::str(m.unit))]),
                    )
                });
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("trace", Json::from(false)),
                    ("attempted", Json::from(100.0)),
                    ("failed", Json::from(failed)),
                    ("metrics", Json::obj(metrics)),
                ])
            })
            .collect();
        file_json(Json::obj([("comparable", Json::from(comparable))]), runs)
    }

    #[test]
    fn compare_flags_regressions_and_failure_rises() {
        let a = file(
            true,
            &[("w", 100.0, 0.0), ("w", 102.0, 0.0), ("w", 98.0, 0.0)],
        );
        let same = file(
            true,
            &[("w", 101.0, 0.0), ("w", 99.0, 0.0), ("w", 100.0, 0.0)],
        );
        let (rows, rose) = compare(&a, &same).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Within) && rose.is_empty());

        let slow = file(
            true,
            &[("w", 70.0, 0.0), ("w", 71.0, 1.0), ("w", 69.0, 0.0)],
        );
        let (rows, rose) = compare(&a, &slow).unwrap();
        let bad: Vec<_> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regression)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "goodput_mibps");
        assert_eq!(rose, ["w"]);

        assert!(compare(&a, &file(false, &[("w", 1.0, 0.0)])).is_err());
        assert!(compare(&a, &file(true, &[("other", 1.0, 0.0)])).is_err());
        assert!(compare(&Json::Null, &a).is_err());
    }
}
