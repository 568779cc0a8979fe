//! The repository's benchmark. See `benchmark/README.md` for the metric
//! dictionary and the reasons behind each workload.
//!
//! ```text
//! adoc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
//! adoc-benchmark all [--seed N] [--seconds S] [--trace 0|1] [--runs R] [--quick] [--out FILE]
//! adoc-benchmark compare A.json B.json
//! adoc-benchmark spec
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload
//! in this process, every metric printed by name, and the result object
//! as the last line of standard output.

mod json;
mod micro;
mod procfs;
mod results;
mod run;
mod spec;
mod stats;
mod summary;
mod trace;
mod workloads;

use json::Json;
use results::Verdict;
use spec::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use summary::Outcome;
use workloads::Plan;

/// `--seconds` of a `--quick` smoke run.
const QUICK_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  adoc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out FILE]
  adoc-benchmark all [--seed N] [--seconds S] [--trace 0|1] [--runs R] [--quick] [--out FILE]
  adoc-benchmark compare A.json B.json
  adoc-benchmark spec                      (prints BENCHMARK.json)";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--runs" => {
                a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(1..=100).contains(&a.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

impl Args {
    fn plan(&self) -> Plan {
        let seconds = self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            spec::RUN_SECONDS as f64
        });
        Plan::new(self.seed, seconds, self.trace, self.quick)
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(title: &str, metrics: &[(&'static str, f64)]) {
    println!("{title}");
    for (name, value) in metrics {
        println!("  {name:<36} {value:>16.6} {}", results::unit_of(name));
    }
}

fn print_outcome(w: &Workload, o: &Outcome, plan: &Plan) {
    println!("{}: {}", w.name, w.why);
    println!(
        "seed {}  window {} s  trace {}{}",
        plan.seed,
        plan.seconds,
        u8::from(plan.trace),
        if plan.quick {
            "  QUICK: numbers not comparable"
        } else {
            ""
        },
    );
    println!("slices (end-to-end numbers come from the ones marked quiet)");
    for s in &o.slices {
        println!(
            "  {:<6} {:>7.3} s {:>8} msgs {:>12.3} /s  mean {:>10.4} ms{}",
            s.kind.name(),
            s.secs,
            s.lat_ms.len(),
            s.per_s,
            s.mean_ms(),
            if s.kept { "  quiet" } else { "" },
        );
    }
    let tag = if plan.trace {
        "end to end (traced, for reference only)"
    } else {
        "end to end"
    };
    print_metrics(tag, &o.end_to_end);
    println!(
        "  {:<36} {:>16.6} share ({} failed of {} attempted)",
        "failed_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    println!("percentiles (the rule: ten samples beyond it, or the next lower one)");
    for (name, r) in &o.percentiles {
        let asked = &name[name.len() - 6..name.len() - 3];
        let fallback = if r.used == asked {
            String::new()
        } else {
            format!(
                "  (no {asked}: fewer than ten beyond it; this is the {})",
                r.used
            )
        };
        println!(
            "  {name:<36} {:>16.6} ms  {} samples, {} beyond{fallback}",
            r.value, r.n, r.beyond
        );
    }
    if plan.trace {
        print_metrics("per layer", &o.per_layer);
    }
    for c in &o.checks {
        println!(
            "  check {:<32} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for e in &o.errors {
        println!("  error: {e}");
    }
}

/// Runs one workload in this process. The last line printed is the
/// driver's result object.
fn run_one(w: &'static Workload, args: &Args) -> Result<bool, String> {
    let plan = args.plan();
    let raw = workloads::execute(w, &plan)?;
    let outcome = summary::summarize(raw, &plan);
    print_outcome(w, &outcome, &plan);

    let dir = results::results_dir();
    let default = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        plan.seed,
        u8::from(plan.trace)
    ));
    let path = args.out.clone().unwrap_or(default);
    let file = results::file_json(
        results::header(&plan),
        vec![results::run_json(&outcome, &plan)],
    );
    write_file(&path, &file.pretty())?;
    println!("results: {}", path.display());
    if plan.trace {
        let spans = dir.join(format!("spans-{}.tsv", w.name));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        trace::write_tsv(&spans, &outcome.spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("spans: {} ({} spans)", spans.display(), outcome.spans.len());
    }
    println!("{}", results::result_line(&outcome, plan.trace));
    Ok(outcome.correct)
}

/// Runs every workload, each in its own child process so that one
/// workload's allocator state, threads and peak RSS are not another's.
fn run_all(args: &Args) -> Result<bool, String> {
    let plan = args.plan();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = results::results_dir();
    let mut runs = Vec::new();
    let mut all_ok = true;
    for run in 0..args.runs {
        for w in &WORKLOADS {
            let part = dir.join(format!("part-{}-{run}.json", w.name));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &plan.seed.to_string()])
                .args(["--seconds", &plan.seconds.to_string()])
                .args(["--trace", if plan.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if plan.quick {
                cmd.arg("--quick");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            all_ok &= status.success();
            // A child that failed its checks still wrote its run; one
            // that died before that leaves nothing to merge.
            if let Ok(text) = std::fs::read_to_string(&part) {
                let file = json::parse(&text)?;
                runs.extend(
                    file.get("runs")
                        .map(Json::as_arr)
                        .unwrap_or_default()
                        .iter()
                        .cloned(),
                );
                let _ = std::fs::remove_file(&part);
            }
            println!();
        }
    }
    let name = format!("all-seed{}-trace{}.json", plan.seed, u8::from(plan.trace));
    let path = args.out.clone().unwrap_or(dir.join(name));
    write_file(
        &path,
        &results::file_json(results::header(&plan), runs).pretty(),
    )?;
    println!(
        "results of {} run(s) of {} workloads: {}",
        args.runs,
        WORKLOADS.len(),
        path.display()
    );
    Ok(all_ok)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (rows, rose) = results::compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<22} {:<14} {:>12} {:>12} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound", "spread"
    );
    let mut regressions = 0;
    let mut unresolved = 0;
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Within => "within bound",
            Verdict::Regression => {
                regressions += 1;
                "REGRESSION"
            }
            Verdict::Unresolved => {
                unresolved += 1;
                "UNRESOLVED (spread exceeds bound)"
            }
        };
        println!(
            "{:<22} {:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}% {:>8}  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.delta * 100.0,
            r.bound * 100.0,
            r.spread
                .map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0)),
        );
    }
    for w in &rose {
        println!("{w}: failed_share rose");
    }
    println!(
        "{} rows: {regressions} regression(s), {unresolved} unresolved, failed_share rose on {} workload(s)",
        rows.len(),
        rose.len()
    );
    Ok(regressions == 0 && rose.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare(a, b),
            _ => Err(USAGE.into()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some("all") => parse_args(&args[1..]).and_then(|a| run_all(&a)),
        Some(_) => parse_args(&args).and_then(|a| {
            let name = a.workload.clone().ok_or(USAGE)?;
            let w = spec::workload(&name).ok_or(format!(
                "unknown workload {name:?}; the workloads are: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            ))?;
            run_one(w, &a)
        }),
        None => Err(USAGE.into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("adoc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
