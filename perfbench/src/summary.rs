//! The summary command: runs workloads several times, each run a child
//! process with its own seed, and prints every metric with its unit as
//! the median and quartiles across runs.

use crate::stats::{beyond, quartiles, ratio};
use std::process::{Command, Stdio};

/// What one child run reported.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)` in result order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ChildRun {
    /// Whether the run was correct, by the rule of its result line.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Reads a run's `ops attempted <n> failed <n>` line and its
/// `metric <name> <value> <unit>` lines.
pub fn parse_result(stdout: &str) -> Result<ChildRun, String> {
    let mut ops = None;
    let mut metrics = Vec::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            ["ops", "attempted", a, "failed", f] => {
                let n = |s: &str| s.parse::<u64>().map_err(|_| format!("bad count in `{line}`"));
                ops = Some((n(a)?, n(f)?));
            }
            ["metric", name, value, unit] => {
                let v = value.parse().map_err(|_| format!("bad value in `{line}`"))?;
                metrics.push((name.to_string(), v, unit.to_string()));
            }
            _ => {}
        }
    }
    let (attempted, failed) = ops.ok_or("no `ops` line")?;
    Ok(ChildRun { attempted, failed, metrics })
}

/// Runs `workload` once in a child process.
pub fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exited with {}", out.status));
    }
    parse_result(&String::from_utf8_lossy(&out.stdout))
}

/// The summary table of `runs` of one workload.
pub fn table(workload: &str, tail_q: f64, runs: &[ChildRun]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut attempted: Vec<u64> = runs.iter().map(|r| r.attempted).collect();
    attempted.sort_unstable();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    lines.push(format!(
        "== {workload}: {} runs, {} incorrect, {failed} failed ops",
        runs.len(),
        runs.iter().filter(|r| !r.correct()).count()
    ));
    if let (Some(lo), Some(hi)) = (attempted.first(), attempted.last()) {
        lines.push(format!(
            "   ops per run {lo}..{hi}: p50 and the tail (p{}) of each run rest on that many \
             samples, {}..{} of them beyond the tail percentile",
            (tail_q * 100.0).round(),
            beyond(*lo as usize, tail_q),
            beyond(*hi as usize, tail_q)
        ));
    }
    lines.push(format!(
        "   {:<34} {:>8} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "q1", "median", "q3", "iqr/med"
    ));
    let Some(first) = runs.first() else { return lines };
    for (name, _, unit) in &first.metrics {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1))
            .collect();
        let [q1, med, q3] = quartiles(&values).unwrap_or([values[0]; 3]);
        lines.push(format!(
            "   {name:<34} {unit:>8} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.1}%",
            100.0 * ratio(q3 - q1, med.abs())
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_is_read_from_the_ops_and_metric_lines() {
        let run = parse_result(
            "notes\nmetric setup_s 0.5123456789 s\n  eval n=3 p50=1.0us\n\
             ops attempted 5 failed 1\n{\"correct\": false}\n",
        )
        .unwrap();
        assert!(!run.correct());
        assert_eq!((run.attempted, run.failed), (5, 1));
        assert_eq!(run.metrics, vec![("setup_s".to_string(), 0.5123456789, "s".to_string())]);
        assert!(parse_result("metric setup_s 0.5 s").is_err(), "no ops line");
        assert!(parse_result("ops attempted 1 failed 0\nmetric x y s").is_err(), "bad value");
    }

    #[test]
    fn table_reports_quartiles_per_metric() {
        let runs: Vec<ChildRun> = (1..=10)
            .map(|i| ChildRun {
                attempted: 1000,
                failed: 0,
                metrics: vec![("p50_us".into(), f64::from(i), "us".into())],
            })
            .collect();
        let t = table("w", 0.99, &runs);
        assert!(t[1].contains("10..10 of them beyond"), "{}", t[1]);
        let row = t.last().unwrap();
        for cell in ["p50_us", "us", "2.7500", "5.5000", "8.2500", "100.0%"] {
            assert!(row.contains(cell), "{row}");
        }
    }
}
