//! The repository's benchmark: four seeded workloads through the engine's
//! public API, an untraced pass for the end-to-end metrics and a traced
//! pass for the per-layer budget. See `README.md` beside this package.
//!
//! ```text
//! twoknn-benchmark --workload W --seed N --seconds S --trace 0|1   one pass; last line is the JSON result
//! twoknn-benchmark run [--smoke] [--workload W] [--seed N] [--seconds S] [--out FILE]
//! twoknn-benchmark calibrate --runs N [--seed N] [--seconds S] [--workload W] [--out FILE]
//! twoknn-benchmark compare A.json B.json
//! twoknn-benchmark contract                                       prints BENCHMARK.json
//! ```

mod harness;
mod json;
mod oracle;
mod reads;
mod report;
mod spans;
mod spec;
mod stats;
mod sys;
mod workloads;
mod writes;

use std::path::PathBuf;
use std::process::ExitCode;

use two_knn::core::WorkerPool;

use harness::{Env, Outcome, Workload};
use json::Value;

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// `--key value` pairs and bare `--flag`s, in any order.
pub(crate) struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    pub(crate) fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if bare.contains(&key) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{key} needs a value"))?
                        .clone(),
                )
            };
            out.push((key.to_string(), value));
        }
        Ok(Flags(out))
    }

    pub(crate) fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    pub(crate) fn text(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(crate) fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.text(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{key}: `{v}` is not a valid number"))
            })
            .transpose()
    }

    pub(crate) fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.number(key)?
            .ok_or_else(|| format!("--{key} is required"))
    }
}

/// The benchmark's own directory: where cargo says the manifest is, else
/// `benchmark/` under the current directory.
pub(crate) fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
}

/// Removes the run's scratch directory however the pass ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass of one workload: the driver's contract.
fn pass(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    let workload = flags
        .text("workload")
        .ok_or("--workload is required")?
        .to_string();
    let seed: u64 = flags.require("seed")?;
    let seconds: f64 = flags.require("seconds")?;
    let trace = match flags.require::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    if !spec::is_workload(&workload) {
        return Err(format!(
            "--workload: `{workload}` is not one of {:?}",
            spec::WORKLOADS.map(|w| w.0)
        ));
    }
    if !(seconds > 0.0 && seconds <= 3_600.0) {
        return Err(format!("--seconds: {seconds} is out of range"));
    }

    let out_dir = bench_dir().join("out");
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let _scratch = Scratch(work_dir.clone());
    let smoke = flags.has("smoke");
    let threads = sys::nproc().min(2);
    let env = Env {
        pool: WorkerPool::new(threads),
        work_dir,
        out_dir,
        smoke,
        setups: if smoke { 1 } else { SETUPS },
    };
    println!(
        "{workload}: seed {seed}, {seconds} s measured, {} pass, 1 closed-loop client, pool of {threads} on {} cores{}",
        if trace { "traced" } else { "untraced" },
        sys::nproc(),
        if smoke { ", smoke" } else { "" },
    );

    fn run<W: Workload>(trace: bool, seed: u64, seconds: f64, env: &Env) -> Outcome {
        if trace {
            harness::run_traced::<W>(seed, seconds, env)
        } else {
            harness::run_untraced::<W>(seed, seconds, env)
        }
    }
    let outcome = match workload.as_str() {
        "select_large" => run::<workloads::select_large::SelectLarge>(trace, seed, seconds, &env),
        "join_shapes" => run::<workloads::join_shapes::JoinShapes>(trace, seed, seconds, &env),
        "mixed_stream" => run::<workloads::mixed_stream::MixedStream>(trace, seed, seconds, &env),
        _ => run::<workloads::ingest_durable::IngestDurable>(trace, seed, seconds, &env),
    };

    for (name, value) in &outcome.metrics {
        println!("{name} = {value} {}", spec::unit_of(name));
    }
    let metrics = outcome.metrics.iter().map(|(name, value)| {
        let entry = Value::obj([
            ("value", Value::Num(*value)),
            ("unit", Value::Str(spec::unit_of(name).to_string())),
        ]);
        (*name, entry)
    });
    let result = Value::obj([
        (
            "correct",
            Value::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => report::run(&args[1..]),
        Some("calibrate") => report::calibrate(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("contract") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => pass(&args),
        _ => Err("usage: twoknn-benchmark (--workload W --seed N --seconds S --trace 0|1 | run | calibrate --runs N | compare A.json B.json | contract)".to_string()),
    };
    done.unwrap_or_else(|message| {
        eprintln!("twoknn-benchmark: {message}");
        ExitCode::from(2)
    })
}
