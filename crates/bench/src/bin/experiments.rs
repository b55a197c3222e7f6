//! The experiment driver: regenerates every figure of the paper's evaluation
//! section as a text table (wall-clock time + neighborhood computations per
//! algorithm and parameter value).
//!
//! Usage:
//!
//! ```text
//! cargo run -p twoknn-bench --release --bin experiments -- [--scale smoke|quick|paper] [--smoke] [--exp fig19,...] [--out FILE]
//! ```
//!
//! With no arguments every experiment runs at the quick scale and the report
//! is printed to stdout. `--smoke` (shorthand for `--scale smoke`) shrinks
//! every dataset so the full sweep finishes in seconds — the CI path: it
//! checks that every experiment runs and that the compared algorithms return
//! the same rows, not that the timings mean anything.
//!
//! Every experiment runs on a pool of one, so the timings are
//! single-threaded.

use std::io::Write;

use twoknn_bench::experiments::{run, ALL_IDS};
use twoknn_bench::Scale;
use twoknn_core::WorkerPool;

fn main() {
    WorkerPool::new(1).bind(run_experiments);
}

fn run_experiments() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut selected: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let value = args.get(i).map(String::as_str).unwrap_or("");
                scale = match Scale::parse(value) {
                    Some(s) => s,
                    None => {
                        eprintln!("unknown scale `{value}` (expected smoke|quick|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--smoke" => {
                scale = Scale::Smoke;
            }
            "--exp" => {
                i += 1;
                let value = args.get(i).cloned().unwrap_or_default();
                selected.extend(value.split(',').map(|s| s.trim().to_string()));
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned();
            }
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "experiments [--scale smoke|quick|paper] [--smoke] [--exp id[,id...]] [--out FILE] [--list]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let ids: Vec<String> = if selected.is_empty() {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        selected
    };

    let mut full_report = String::new();
    full_report.push_str(&format!(
        "# two-knn experiment run (scale: {scale:?})\n\n\
         Reproduction of the evaluation of \"Spatial Queries with Two kNN Predicates\"\n\
         (Aly, Aref, Ouzzani — VLDB 2012). Times are wall-clock milliseconds on this\n\
         machine; `knn-calls` counts neighborhood computations (the dominant cost).\n\
         The `speedup` column is first-series time divided by last-series time.\n\n"
    ));

    for id in &ids {
        eprintln!("running {id} ...");
        match run(id, scale) {
            Some(report) => {
                let text = report.render();
                print!("{text}");
                full_report.push_str(&text);
            }
            None => {
                eprintln!("unknown experiment id `{id}` (use --list)");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = out_path {
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        file.write_all(full_report.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("report written to {path}");
    }
}
