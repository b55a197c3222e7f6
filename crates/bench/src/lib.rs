//! # twoknn-bench
//!
//! The experiments driver reproducing the paper's evaluation (Section 6,
//! Figures 19–26) plus an index-family ablation.
//!
//! The `experiments` binary (`cargo run -p twoknn-bench --release --bin
//! experiments`) runs every figure's parameter sweep, measuring wall-clock
//! time *and* machine-independent work metrics, and prints one table per
//! figure in the same shape as the paper's plots. Every experiment asserts
//! that the algorithms it compares return identical rows, so `--smoke` is
//! an equivalence check CI runs. End-to-end performance is judged by the
//! separate `benchmark/` package, not here.
//!
//! Dataset sizes follow the paper but are scaled down by default
//! ([`Scale::Quick`]) so a full run finishes in minutes on a laptop;
//! [`Scale::Paper`] uses the paper's sizes (up to 2.56 M points).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod workloads;

use std::time::Instant;

/// How large the benchmark datasets are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for CI smoke runs: the full sweep finishes in seconds and
    /// only checks that every experiment still runs and that the compared
    /// algorithms still agree — the timings carry no signal at this scale.
    Smoke,
    /// Reduced sizes (default): every experiment finishes in seconds to a few
    /// minutes.
    Quick,
    /// The paper's sizes (32,000 – 2,560,000 points). Expect long runs for
    /// the conceptually correct baselines.
    Paper,
}

impl Scale {
    /// Parses a scale name (`smoke` / `quick` / `paper` / `full`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" | "ci" => Some(Scale::Smoke),
            "quick" | "small" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Runs a closure and returns its wall-clock time in milliseconds along with
/// its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// A single measured point of an experiment series.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The x-axis value (e.g. the outer-relation size).
    pub x: String,
    /// The series (algorithm) name.
    pub series: String,
    /// Wall-clock time in milliseconds.
    pub millis: f64,
    /// Neighborhood computations performed (the dominant work term).
    pub neighborhoods: u64,
    /// Result rows produced.
    pub rows: usize,
}

/// A complete experiment report: an id (figure number), a description and the
/// measurements of every (x, series) combination.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `fig19`.
    pub id: String,
    /// Human-readable description of the workload and parameters.
    pub description: String,
    /// Label of the x axis.
    pub x_label: String,
    /// The measurements, in sweep order.
    pub measurements: Vec<Measurement>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, description: &str, x_label: &str) -> Self {
        Self {
            id: id.to_string(),
            description: description.to_string(),
            x_label: x_label.to_string(),
            measurements: Vec::new(),
        }
    }

    /// Adds a measurement.
    pub fn push(&mut self, m: Measurement) {
        self.measurements.push(m);
    }

    /// Distinct series names, in first-appearance order.
    pub fn series(&self) -> Vec<String> {
        let mut names = Vec::new();
        for m in &self.measurements {
            if !names.contains(&m.series) {
                names.push(m.series.clone());
            }
        }
        names
    }

    /// Distinct x values, in first-appearance order.
    pub fn xs(&self) -> Vec<String> {
        let mut xs = Vec::new();
        for m in &self.measurements {
            if !xs.contains(&m.x) {
                xs.push(m.x.clone());
            }
        }
        xs
    }

    fn find(&self, x: &str, series: &str) -> Option<&Measurement> {
        self.measurements
            .iter()
            .find(|m| m.x == x && m.series == series)
    }

    /// Renders the report as an aligned text table: one row per x value, one
    /// time column (and one neighborhood-count column) per series, plus the
    /// speedup of the last series relative to the first.
    pub fn render(&self) -> String {
        let series = self.series();
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.description));
        out.push_str(&format!("x-axis: {}\n\n", self.x_label));

        // Header.
        out.push_str(&format!("{:>14}", self.x_label));
        for s in &series {
            out.push_str(&format!(" | {:>22}", format!("{s} ms")));
            out.push_str(&format!(" {:>12}", "knn-calls"));
        }
        if series.len() >= 2 {
            out.push_str(&format!(" | {:>9}", "speedup"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(14 + series.len() * 38 + if series.len() >= 2 { 12 } else { 0 }));
        out.push('\n');

        for x in self.xs() {
            out.push_str(&format!("{:>14}", x));
            let mut first_ms = None;
            let mut last_ms = None;
            for s in &series {
                if let Some(m) = self.find(&x, s) {
                    out.push_str(&format!(" | {:>22.2}", m.millis));
                    out.push_str(&format!(" {:>12}", m.neighborhoods));
                    if first_ms.is_none() {
                        first_ms = Some(m.millis);
                    }
                    last_ms = Some(m.millis);
                } else {
                    out.push_str(&format!(" | {:>22} {:>12}", "-", "-"));
                }
            }
            if let (Some(f), Some(l)) = (first_ms, last_ms) {
                if series.len() >= 2 && l > 0.0 {
                    out.push_str(&format!(" | {:>8.1}x", f / l));
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Paper));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("ci"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn time_ms_returns_result_and_nonnegative_time() {
        let (ms, v) = time_ms(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(ms >= 0.0);
    }

    #[test]
    fn report_rendering_includes_all_series_and_xs() {
        let mut r = Report::new("figX", "demo", "n");
        for (x, s, t) in [
            ("10", "slow", 100.0),
            ("10", "fast", 1.0),
            ("20", "slow", 200.0),
            ("20", "fast", 2.0),
        ] {
            r.push(Measurement {
                x: x.into(),
                series: s.into(),
                millis: t,
                neighborhoods: 42,
                rows: 7,
            });
        }
        assert_eq!(r.series(), vec!["slow".to_string(), "fast".to_string()]);
        assert_eq!(r.xs(), vec!["10".to_string(), "20".to_string()]);
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("slow"));
        assert!(text.contains("100.00"));
        assert!(text.contains("speedup"));
    }
}
