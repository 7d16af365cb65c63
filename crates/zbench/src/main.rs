//! Command line of the benchmark.
//!
//! ```text
//! zbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!        [--out <run.json>] [--spans <spans.json>] [--smoke]
//! zbench compare <parent_dir> <change_dir> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! A run prints each metric as `name value unit`, then, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`. It
//! exits 1 if any output check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use zbench::bench::Scale;
use zbench::compare;
use zbench::run::{self, Opts, Workload};

const USAGE: &str = "usage: zbench --workload <mixed|sssp|jobs-lo|jobs-hi|sharded> --seed <n> \
--seconds <s> --trace <0|1> [--out <file>] [--spans <file>] [--smoke]\n       \
zbench compare <parent_dir> <change_dir> [--benchmark <BENCHMARK.json>]";

struct Args {
    opts: Opts,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut spans, mut smoke) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.01..=600.0).contains(&s) {
                    return Err(format!("--seconds {value}: expected 0.01 to 600"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        opts: Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            scale: if smoke { Scale::smoke() } else { Scale::full() },
        },
        out,
        spans,
    })
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let report = run::run(&a.opts);
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &a.out {
        write(path, &report.run_json())?;
    }
    if let (Some(path), Some(spans)) = (&a.spans, &report.spans_json) {
        write(path, spans)?;
    }
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut dirs, mut benchmark) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a value")?.into();
        } else {
            dirs.push(a);
        }
    }
    let [parent, change] = dirs.as_slice() else {
        return Err("compare needs <parent_dir> <change_dir>".into());
    };
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let rules = compare::rules(&text)?;
    let p = compare::load_dir(parent.as_ref())?;
    let c = compare::load_dir(change.as_ref())?;
    for (side, runs) in [("parent", &p), ("change", &c)] {
        let bad = runs.iter().filter(|r| !r.correct).count();
        if bad > 0 {
            println!("warning: {bad} {side} runs failed their output checks");
        }
    }
    let rows = compare::compare(&p, &c, &rules)?;
    print!("{}", compare::table(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("--help" | "-h") | None => Err(USAGE.into()),
        _ => run_cmd(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("zbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
