//! The multi-pass commands: `run` (every workload, untraced then traced,
//! each pass in a child process), `calibrate` (repeated runs and their
//! spread) and `compare` (two result files against the bounds).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::stats::{iqr_spread, median, quartiles, range_spread, sorted};
use crate::{bench_dir, spec, sys, Flags};

/// Measured seconds of a `run --smoke` pass: 1/50 of a full run's.
const SMOKE_SECONDS: f64 = spec::RUN_SECONDS as f64 / 50.0;

/// What a child pass printed: its result line and its `schedule_hash`.
struct PassResult {
    result: Value,
    schedule_hash: String,
}

impl PassResult {
    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Runs one pass of this executable in a child process, echoing what it
/// prints. A pass per process keeps peak memory and CPU time per workload.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        command.arg("--smoke");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("starting a pass: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    let mut schedule_hash = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading a pass: {e}"))?;
        if let Some(hash) = line.strip_prefix("schedule_hash: ") {
            schedule_hash = hash.to_string();
        }
        if !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a pass: {e}"))?;
    if !status.success() {
        return Err(format!("the {workload} pass ended with {status}"));
    }
    let result =
        json::parse(&last).map_err(|e| format!("the {workload} pass printed no result: {e}"))?;
    Ok(PassResult {
        result,
        schedule_hash,
    })
}

fn selected(flags: &Flags) -> Result<Vec<&'static str>, String> {
    match flags.text("workload") {
        None => Ok(spec::WORKLOADS.iter().map(|w| w.0).collect()),
        Some(name) => spec::WORKLOADS
            .iter()
            .map(|w| w.0)
            .find(|w| *w == name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("--workload: `{name}` is not a workload")),
    }
}

fn write_file(path: &Path, document: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, document.pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn machine() -> [(&'static str, Value); 2] {
    [
        ("nproc", Value::Num(sys::nproc() as f64)),
        ("pool_threads", Value::Num(sys::nproc().min(2) as f64)),
    ]
}

/// `run`: every selected workload untraced, then traced; prints each metric
/// by name with its unit and writes one JSON result.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    let smoke = flags.has("smoke");
    let seed: u64 = flags.number("seed")?.unwrap_or(1);
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds: f64 = flags.number("seconds")?.unwrap_or(default_seconds);
    let out = flags.text("out").map_or_else(
        || bench_dir().join("out").join("result.json"),
        PathBuf::from,
    );

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in selected(&flags)? {
        println!("== {workload}: untraced pass");
        let untraced = child_pass(workload, seed, seconds, false, smoke)?;
        println!("== {workload}: traced pass");
        let traced = child_pass(workload, seed, seconds, true, smoke)?;
        if untraced.schedule_hash != traced.schedule_hash {
            return Err(format!(
                "{workload}: the two passes generated different schedules"
            ));
        }
        all_correct &= untraced.correct() && traced.correct();
        let verdict = |pass: &PassResult| {
            Value::obj([
                ("correct", Value::Bool(pass.correct())),
                ("attempted", Value::Num(pass.count("attempted"))),
                ("failed", Value::Num(pass.count("failed"))),
            ])
        };
        let metrics =
            |pass: &PassResult| pass.result.get("metrics").cloned().unwrap_or(Value::Null);
        workloads.push((
            workload,
            Value::obj([
                ("schedule_hash", Value::Str(untraced.schedule_hash.clone())),
                ("untraced", verdict(&untraced)),
                ("traced", verdict(&traced)),
                ("end_to_end", metrics(&untraced)),
                ("per_layer", metrics(&traced)),
            ]),
        ));
    }
    let mut document = vec![
        ("kind", Value::Str("run".into())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
    ];
    document.extend(machine());
    document.push(("workloads", Value::obj(workloads)));
    write_file(&out, &Value::obj(document))?;
    println!(
        "{}",
        if all_correct {
            "all passes correct"
        } else {
            "SOME PASS FAILED ITS CHECKS"
        }
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `calibrate --runs N`: N untraced runs per workload, each with another
/// seed, and per end-to-end metric the median, range and the two spreads.
/// The gate is the driver's: the distance between the first and third
/// quartile as a share of the median must stay within the metric's bound
/// (`setup_s` is reported but not gated, as the driver does).
pub fn calibrate(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    let runs: u64 = flags.require("runs")?;
    if !(2..=100).contains(&runs) {
        return Err("--runs must be between 2 and 100".into());
    }
    let base: u64 = flags.number("seed")?.unwrap_or(1);
    let seconds: f64 = flags.number("seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let out = flags.text("out").map_or_else(
        || bench_dir().join("out").join("calibration.json"),
        PathBuf::from,
    );
    let contract = load_contract()?;

    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in selected(&flags)? {
        let mut passes = Vec::new();
        for seed in base..base + runs {
            println!("== {workload}: seed {seed}");
            passes.push(child_pass(workload, seed, seconds, false, false)?);
        }
        let correct = passes.iter().all(PassResult::correct);
        ok &= correct;
        println!(
            "== {workload}: {runs} runs, {}",
            if correct {
                "all correct"
            } else {
                "SOME INCORRECT"
            }
        );
        println!(
            "  {:<14} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
            "metric", "median", "min", "max", "iqr", "range", "bound"
        );
        let mut metrics = Vec::new();
        for Bounded { name, bound, .. } in &contract {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.metric(name)).collect();
            if values.len() != passes.len() {
                return Err(format!("{workload}: a run did not report {name}"));
            }
            let s = sorted(values.clone());
            let [q1, _, q3] = quartiles(&values).expect("at least two runs");
            let (iqr, range) = (iqr_spread(&values), range_spread(&values));
            let gated = name != "setup_s";
            let within = !gated || iqr <= *bound;
            ok &= within;
            println!(
                "  {name:<14} {:>14.4} {:>14.4} {:>14.4} {iqr:>8.4} {range:>8.4} {bound:>6}{}",
                median(&values),
                s[0],
                s[s.len() - 1],
                if within {
                    ""
                } else {
                    "  <- spread exceeds the bound"
                }
            );
            metrics.push((
                name.clone(),
                Value::obj([
                    ("unit", Value::Str(spec::unit_of(name).into())),
                    ("bound", Value::Num(*bound)),
                    ("median", Value::Num(median(&values))),
                    ("min", Value::Num(s[0])),
                    ("max", Value::Num(s[s.len() - 1])),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("iqr_spread", Value::Num(iqr)),
                    ("range_spread", Value::Num(range)),
                    ("gated", Value::Bool(gated)),
                    (
                        "values",
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]),
            ));
        }
        let total = |key: &str| Value::Num(passes.iter().map(|p| p.count(key)).sum());
        workloads.push((
            workload,
            Value::obj([
                ("correct", Value::Bool(correct)),
                ("attempted", total("attempted")),
                ("failed", total("failed")),
                (
                    "schedule_hashes",
                    Value::Arr(
                        passes
                            .iter()
                            .map(|p| Value::Str(p.schedule_hash.clone()))
                            .collect(),
                    ),
                ),
                ("metrics", Value::obj(metrics)),
            ]),
        ));
    }
    let mut document = vec![
        ("kind", Value::Str("calibration".into())),
        ("runs", Value::Num(runs as f64)),
        ("first_seed", Value::Num(base as f64)),
        ("seconds", Value::Num(seconds)),
    ];
    document.extend(machine());
    document.push(("workloads", Value::obj(workloads)));
    write_file(&out, &Value::obj(document))?;
    println!(
        "{}",
        if ok {
            "every gated spread is within its bound"
        } else {
            "NOT STEADY: see the rows marked above"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One end-to-end metric as `BENCHMARK.json` at the repository root states it.
struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_contract() -> Result<Vec<Bounded>, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let contract = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    contract
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One workload of one side of a comparison.
struct Measured {
    workload: String,
    failure_share: f64,
    /// `(metric, median or single value, recorded quartile spread)`.
    metrics: Vec<(String, f64, f64)>,
}

impl Measured {
    fn metric(&self, name: &str) -> Option<(f64, f64)> {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| (m.1, m.2))
    }
}

/// Reads a `calibrate` or a `run` file; a `run` file holds one value per
/// metric and records no spread.
fn load_side(path: &str) -> Result<Vec<Measured>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let document = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = document
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{path}: no workloads"))?;
    let mut side = Vec::new();
    for (name, w) in workloads {
        let calibrated = w.get("metrics").is_some();
        let verdict = if calibrated {
            Some(w)
        } else {
            w.get("untraced")
        };
        let count = |key: &str| verdict.and_then(|v| v.get(key)).and_then(Value::as_f64);
        let failure_share = match (count("failed"), count("attempted")) {
            (Some(failed), Some(attempted)) if attempted > 0.0 => failed / attempted,
            _ => return Err(format!("{path}: {name} has no attempted/failed counts")),
        };
        let metrics = w
            .get(if calibrated { "metrics" } else { "end_to_end" })
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}: {name} has no metrics"))?
            .iter()
            .filter_map(|(metric, m)| {
                let centre = m
                    .get(if calibrated { "median" } else { "value" })?
                    .as_f64()?;
                let spread = m.get("iqr_spread").and_then(Value::as_f64).unwrap_or(0.0);
                Some((metric.clone(), centre, spread))
            })
            .collect();
        side.push(Measured {
            workload: name.clone(),
            failure_share,
            metrics,
        });
    }
    Ok(side)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric. B
/// regresses where its median is worse than A's by more than the bound; a
/// pair whose recorded spread exceeds the bound is `unresolved`, not `ok`.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".into());
    };
    let (a_side, b_side) = (load_side(a_path)?, load_side(b_path)?);
    let contract = load_contract()?;
    let mut regressions = 0;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for a in &a_side {
        let workload = &a.workload;
        let Some(b) = b_side.iter().find(|b| b.workload == *workload) else {
            println!("{workload:<16} missing from {b_path}");
            regressions += 1;
            continue;
        };
        for Bounded {
            name,
            lower_is_better,
            bound,
        } in &contract
        {
            let (Some((a_mid, a_spread)), Some((b_mid, b_spread))) =
                (a.metric(name), b.metric(name))
            else {
                println!("{workload:<16} {name:<16} missing from one side");
                regressions += 1;
                continue;
            };
            let worse_by = if *lower_is_better {
                b_mid - a_mid
            } else {
                a_mid - b_mid
            } / a_mid.abs();
            let verdict = if a_spread.max(b_spread) > *bound {
                "unresolved"
            } else if worse_by > *bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {name:<16} {a_mid:>14.4} {b_mid:>14.4} {:>8.2}% {bound:>6}  {verdict}",
                worse_by * 100.0
            );
        }
        let verdict = if b.failure_share > a.failure_share {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{workload:<16} {:<16} {:>14.6} {:>14.6} {:>9} {:>6}  {verdict}",
            "failed/attempted", a.failure_share, b.failure_share, "", ""
        );
    }
    println!("{regressions} regression(s)");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
