//! `sraa-perfbench` — the end-to-end and per-layer benchmark of `sraa`.
//!
//! Three closed-loop workloads, each driven by one caller: the one-shot
//! `sraa eval --interproc` path (`eval_oneshot`), a daemon edit loop
//! (`daemon_edit`) and a daemon query mix (`daemon_query`). An untraced
//! run reports the end-to-end metrics; a traced run records a span
//! around every layer call and reports the per-layer metrics. See
//! `README.md` next to this crate for what each workload loads.

pub mod checks;
pub mod daemon;
pub mod daemon_edit;
pub mod daemon_query;
pub mod eval_oneshot;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod summary;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["eval_oneshot", "daemon_edit", "daemon_query"];

/// The length of one run, s: `run_seconds` of `BENCHMARK.json`, and the
/// summary's default. The tail percentiles are chosen for this length.
pub const RUN_SECONDS: u64 = 30;

/// The quantile a workload reports as `tail_us`: the highest of p90,
/// p95 and p99 with at least ten samples beyond it in a run of the
/// benchmark's length, even on a slow host.
pub fn tail_q(workload: &str) -> f64 {
    match workload {
        "daemon_edit" => daemon_edit::TAIL_Q,
        "daemon_query" => daemon_query::TAIL_Q,
        _ => eval_oneshot::TAIL_Q,
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> Result<metrics::RunOutput, String> {
    match args.workload.as_str() {
        "eval_oneshot" => eval_oneshot::run(args),
        "daemon_edit" => daemon_edit::run(args),
        "daemon_query" => daemon_query::run(args),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

/// A scratch directory for one run, inside the working directory (the
/// benchmark writes nowhere else). Removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `.bench_tmp/<tag>-<pid>-<n>` under the working directory.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// The directory (relative, so Unix socket paths stay short).
    pub fn path(&self) -> &std::path::Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
        // Only succeeds once no other run's directory is left.
        std::fs::remove_dir(".bench_tmp").ok();
    }
}
