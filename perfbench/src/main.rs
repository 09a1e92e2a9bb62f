//! Command line of the benchmark.
//!
//! ```text
//! one run:   --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! summary:   --summary [--workloads a,b|all] [--runs N] [--seed n] [--seconds s] [--trace 0|1]
//!            (without --trace: both tables)
//! digests:   --record-digests
//! ```
//!
//! A run prints its notes, an `ops attempted <n> failed <n>` line and a
//! `metric <name> <value> <unit>` line per metric (the value at full
//! precision), then the result as one JSON object on the last line of
//! stdout.

use sraa_perfbench::{checks, inputs, layers, summary, tail_q, RunArgs, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: sraa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     sraa-perfbench --summary [--workloads a,b|all] [--runs N] [--seed n] \
                     [--seconds s] [--trace 0|1]\n       sraa-perfbench --record-digests";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sraa-perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parses `--flag value` pairs and bare `--switch`es.
fn flags(args: &[String]) -> Result<BTreeMap<&str, Option<&str>>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--").ok_or(format!("unexpected argument `{a}`"))?;
        let value = it.next_if(|v| !v.starts_with("--")).map(String::as_str);
        out.insert(key, value);
    }
    Ok(out)
}

fn value<T: std::str::FromStr>(
    f: &BTreeMap<&str, Option<&str>>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match f.get(key) {
        Some(Some(v)) => v.parse().map_err(|_| format!("bad value `{v}` for --{key}")),
        Some(None) => Err(format!("--{key} needs a value")),
        None => default.ok_or(format!("missing --{key}")),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let f = flags(args)?;
    if f.contains_key("record-digests") {
        return record_digests().map(|()| true);
    }
    let trace = match f.get("trace") {
        None => None,
        Some(_) => match value::<u8>(&f, "trace", None)? {
            0 => Some(false),
            1 => Some(true),
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if f.contains_key("summary") {
        let list = value::<String>(&f, "workloads", Some("all".into()))?;
        let workloads: Vec<String> = if list == "all" {
            WORKLOADS.iter().map(|w| w.to_string()).collect()
        } else {
            list.split(',').map(str::to_string).collect()
        };
        let runs = value(&f, "runs", Some(5usize))?;
        let seed = value(&f, "seed", Some(1u64))?;
        let seconds = value(&f, "seconds", Some(RUN_SECONDS))?;
        // Without --trace, both: the end-to-end and the per-layer table.
        let modes = trace.map_or(vec![false, true], |t| vec![t]);
        let mut all_correct = true;
        for w in &workloads {
            for &traced in &modes {
                let mut results = Vec::new();
                for i in 0..runs as u64 {
                    results.push(summary::run_child(w, seed + i, seconds, traced)?);
                }
                all_correct &= results.iter().all(summary::ChildRun::correct);
                let title = format!("{w} --trace {}", u8::from(traced));
                for line in summary::table(&title, tail_q(w), &results) {
                    println!("{line}");
                }
            }
        }
        return Ok(all_correct);
    }
    let run = RunArgs {
        workload: value(&f, "workload", None)?,
        seed: value(&f, "seed", None)?,
        seconds: Duration::from_secs_f64(value(&f, "seconds", None)?),
        trace: trace.unwrap_or(false),
    };
    let out = sraa_perfbench::run(&run)?;
    for note in &out.notes {
        println!("{note}");
    }
    println!("ops attempted {} failed {}", out.attempted, out.failed);
    for m in &out.metrics {
        println!("metric {:<34} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.json());
    Ok(true)
}

/// Rewrites the expected `eval` digests from the current reports of
/// every module any seed can draw.
fn record_digests() -> Result<(), String> {
    let mut reports = Vec::new();
    for w in inputs::synth_corpus().into_iter().chain(inputs::csmith_pool()) {
        let text = layers::eval_report(&w.source).map_err(|e| format!("{}: {e}", w.name))?;
        reports.push((w.name, text));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/eval_digests.txt");
    std::fs::write(path, checks::render_digests(&reports)).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {} digests to {path}", reports.len());
    Ok(())
}
