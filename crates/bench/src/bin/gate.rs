//! The CI perf-regression gate.
//!
//! Compares a freshly generated `BENCH_scalability.json` (produced by the
//! `scalability` binary) against the committed `BENCH_baseline.json` and
//! exits non-zero when any tracked metric regresses by more than the
//! tolerance (default 25%, override with `SRAA_GATE_TOLERANCE_PCT`).
//!
//! ```sh
//! cargo run --release -p sraa-bench --bin scalability   # writes the fresh JSON
//! cargo run --release -p sraa-bench --bin gate          # compares vs baseline
//! ```
//!
//! Tracked metrics, by class:
//!
//! * **corpus identity** (exact) — workload counts and total constraints
//!   must match the baseline. A mismatch means the benchmark corpus
//!   itself changed; regenerate the baseline in the same PR (run
//!   `scalability` with CI's `SRAA_SUITE_N` and copy
//!   `BENCH_scalability.json` over `BENCH_baseline.json`).
//! * **precision** (must not drop) — intra and summaries no-alias counts
//!   over the call-heavy suite, and the summaries-over-intra gain must
//!   stay strictly positive. These are deterministic, so any drop is a
//!   real precision regression.
//! * **cache effectiveness** (must not drop) — the incremental engine's
//!   warm-run hit rate over unchanged modules. Deterministic; anything
//!   under the baseline's 1.0 means summary keys churn without an edit,
//!   i.e. the cache stopped caching.
//! * **work** (≤ baseline × tolerance) — constraint evaluations per
//!   constraint for both solver strategies, total summary solves, and
//!   heap allocation counts per solver.
//!   Deterministic counters: immune to machine noise.
//! * **time** (≤ baseline × time tolerance, calibration-normalised) —
//!   wall-clock totals divided by the run's own `calibration_us` (the
//!   solve time of one fixed reference system), so a fast laptop
//!   baseline and a slow CI runner compare like for like. Time metrics
//!   use a looser default bar (75%, `SRAA_GATE_TIME_TOLERANCE_PCT`):
//!   normalisation cancels machine speed but not run-to-run noise on a
//!   shared runner, and the deterministic counters already catch any
//!   algorithmic regression tightly. Peak RSS rides under the same bar.
//! * **hard floors** (fresh run only) — the SCC strategy must beat the
//!   worklist (`scc_speedup_over_worklist ≥ 1.0`: it is the engine
//!   default on that argument). The resident daemon must likewise beat the
//!   one-shot path it replaces (`serve.resident_query_us ≤
//!   serve.oneshot_warm_us`), and the shared summary store must pay for
//!   itself on the fresh run: an upload answered from a populated store
//!   may not cost more than the cold upload that populated it
//!   (`store.warm_upload_us ≤ store.cold_upload_us`). The store's
//!   warm-run hit rate over an unchanged module rides with the cache
//!   hit rate under the must-not-drop bar (baseline pins 1.0).

use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = args.first().map(String::as_str).unwrap_or("BENCH_baseline.json");
    let fresh_path = args.get(1).map(String::as_str).unwrap_or("BENCH_scalability.json");
    let tolerance_pct: f64 =
        std::env::var("SRAA_GATE_TOLERANCE_PCT").ok().and_then(|v| v.parse().ok()).unwrap_or(25.0);
    // Wall-clock metrics get a looser bar: calibration normalisation
    // absorbs machine *speed*, but not noise asymmetry between the tiny
    // calibration probe and the long suite run on a contended CI runner.
    // 75% still catches real (≥2x-ish) slowdowns without flaking; the
    // deterministic counters above carry the tight 25% bar.
    let time_tolerance_pct: f64 = std::env::var("SRAA_GATE_TIME_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(75.0);

    let baseline = read_doc(baseline_path);
    let fresh = read_doc(fresh_path);
    let (binter, finter) = (baseline.section("interproc"), fresh.section("interproc"));
    let (binc, finc) = (baseline.section("incremental"), fresh.section("incremental"));
    let mut gate = Gate { failures: 0, tolerance: 1.0 + tolerance_pct / 100.0 };

    println!(
        "perf gate: {fresh_path} vs {baseline_path} \
         (tolerance +{tolerance_pct:.0}%, time +{time_tolerance_pct:.0}%)"
    );
    println!("{:<34} {:>12} {:>12} {:>8}  verdict", "metric", "baseline", "fresh", "ratio");

    // Corpus identity: apples to apples, or tell the developer how to
    // regenerate the baseline.
    let mut corpus_ok = true;
    corpus_ok &= gate.exact("workloads", baseline.num("workloads"), fresh.num("workloads"));
    corpus_ok &=
        gate.exact("interproc.workloads", binter.num("workloads"), finter.num("workloads"));
    corpus_ok &= gate.exact(
        "total_constraints",
        baseline.num("total_constraints"),
        fresh.num("total_constraints"),
    );
    corpus_ok &= gate.exact("incremental.workloads", binc.num("workloads"), finc.num("workloads"));
    corpus_ok &= gate.exact("incremental.functions", binc.num("functions"), finc.num("functions"));
    if !corpus_ok {
        eprintln!(
            "\nthe benchmark corpus differs from the baseline's — if intentional, regenerate \
             it in this PR:\n  SRAA_SUITE_N=<CI value> cargo run --release -p sraa-bench --bin \
             scalability\n  cp BENCH_scalability.json BENCH_baseline.json"
        );
        exit(1);
    }

    // Precision: deterministic no-alias counts must not drop.
    gate.at_least(
        "interproc.intra_no_alias",
        binter.num("intra_no_alias"),
        finter.num("intra_no_alias"),
    );
    gate.at_least(
        "interproc.summaries_no_alias",
        binter.num("summaries_no_alias"),
        finter.num("summaries_no_alias"),
    );
    if finter.num("summaries_no_alias") <= finter.num("intra_no_alias") {
        println!(
            "{:<34} summaries must beat intra on the call-heavy suite  FAIL",
            "interproc gain"
        );
        gate.failures += 1;
    }

    // Cache effectiveness: warm runs on unchanged modules must keep
    // hitting (deterministic; the baseline pins 1.0). The shared store's
    // content-addressed keys carry the same contract.
    gate.at_least("incremental.hit_rate", binc.num("hit_rate"), finc.num("hit_rate"));
    let (bstore, fstore) = (baseline.section("store"), fresh.section("store"));
    gate.at_least("store.hit_rate", bstore.num("hit_rate"), fstore.num("hit_rate"));

    // Work: deterministic counters, at most baseline × tolerance.
    for (i, solver) in ["worklist", "scc"].iter().enumerate() {
        gate.at_most(
            &format!("{solver}.evals_per_constraint"),
            baseline.occurrence("evals_per_constraint", i),
            fresh.occurrence("evals_per_constraint", i),
        );
    }
    gate.at_most("interproc.solves", binter.num("solves"), finter.num("solves"));
    // Allocator pressure: like the eval counts, allocation counts are
    // deterministic for a given input, so they carry the tight bar and
    // catch "accidentally quadratic allocation" long before wall clock.
    for (i, solver) in ["worklist", "scc"].iter().enumerate() {
        gate.at_most(
            &format!("{solver}.total_allocs"),
            baseline.occurrence("total_allocs", i),
            fresh.occurrence("total_allocs", i),
        );
    }

    // Time: wall clock normalised by each run's own calibration solve,
    // under the looser time tolerance.
    gate.tolerance = 1.0 + time_tolerance_pct / 100.0;
    let (bc, fc) = (baseline.num("calibration_us"), fresh.num("calibration_us"));
    for (i, solver) in ["worklist", "scc"].iter().enumerate() {
        gate.at_most(
            &format!("{solver}.total_us/calibration"),
            baseline.occurrence("total_us", i) / bc,
            fresh.occurrence("total_us", i) / fc,
        );
    }
    gate.at_most(
        "interproc.summaries_build/calib",
        binter.num("summaries_build_us") / bc,
        finter.num("summaries_build_us") / fc,
    );
    // Warm runs only hash and look up; a slowdown here is the cache
    // itself regressing (key computation, lookup path, serialization).
    gate.at_most(
        "incremental.warm_us/calibration",
        binc.num("warm_us") / bc,
        finc.num("warm_us") / fc,
    );
    // The resident daemon: a warm re-upload round trip and one resident
    // query over the loopback socket, normalised like every other
    // wall-clock metric.
    let (bserve, fserve) = (baseline.section("serve"), fresh.section("serve"));
    gate.at_most(
        "serve.upload_us/calibration",
        bserve.num("upload_us") / bc,
        fserve.num("upload_us") / fc,
    );
    gate.at_most(
        "serve.resident_query/calib",
        bserve.num("resident_query_us") / bc,
        fserve.num("resident_query_us") / fc,
    );
    // The shared store's warm upload: key computation + store lookups,
    // no solves, no segment writes — the cross-process analogue of the
    // incremental warm run.
    gate.at_most(
        "store.warm_upload_us/calib",
        bstore.num("warm_upload_us") / bc,
        fstore.num("warm_upload_us") / fc,
    );
    // The intersection-heavy dense microbenchmark guards the vectorised
    // set kernels specifically.
    gate.at_most(
        "dense_inter_us/calibration",
        baseline.num("dense_inter_us") / bc,
        fresh.num("dense_inter_us") / fc,
    );
    // Peak RSS is machine-dependent (allocator, page size), so it rides
    // under the looser time bar too.
    gate.at_most("peak_rss_kb", baseline.num("peak_rss_kb"), fresh.num("peak_rss_kb"));
    // The condensation strategy is the engine default *because* it beats
    // the FIFO worklist on the corpus; a fresh run that loses that edge
    // fails outright, whatever the baseline says.
    let speedup = fresh.num("scc_speedup_over_worklist");
    gate.row("scc_speedup_over_worklist", 1.0, speedup, speedup >= 1.0);
    // The daemon's whole point, enforced on the fresh run: answering from
    // the resident engine — loopback round trip included — must beat a
    // one-shot process paying compile + warm engine build for the same
    // answer.
    let resident = fserve.num("resident_query_us");
    let oneshot = fserve.num("oneshot_warm_us");
    gate.row("serve.resident_vs_oneshot_warm", oneshot, resident, resident <= oneshot);
    // The store's whole point, enforced on the fresh run: an upload that
    // answers from a populated store (lookups, no solves, nothing
    // published) may not cost more than the cold upload it replaces.
    let store_cold = fstore.num("cold_upload_us");
    let store_warm = fstore.num("warm_upload_us");
    gate.row("store.warm_vs_cold_upload", store_cold, store_warm, store_warm <= store_cold);

    if gate.failures > 0 {
        eprintln!("\nperf gate FAILED: {} metric(s) regressed", gate.failures);
        exit(1);
    }
    println!("\nperf gate passed");
}

struct Gate {
    failures: u32,
    tolerance: f64,
}

impl Gate {
    fn row(&mut self, name: &str, b: f64, f: f64, ok: bool) -> bool {
        let ratio = if b.abs() > 1e-12 { f / b } else { 1.0 };
        println!(
            "{name:<34} {b:>12.3} {f:>12.3} {ratio:>7.2}x  {}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            self.failures += 1;
        }
        ok
    }

    /// Deterministic value that must match the baseline exactly.
    fn exact(&mut self, name: &str, b: f64, f: f64) -> bool {
        self.row(name, b, f, (b - f).abs() < 1e-9)
    }

    /// Higher is better; must not drop below the baseline.
    fn at_least(&mut self, name: &str, b: f64, f: f64) -> bool {
        self.row(name, b, f, f >= b)
    }

    /// Lower is better; must stay within baseline × tolerance.
    fn at_most(&mut self, name: &str, b: f64, f: f64) -> bool {
        let ok = f <= b * self.tolerance;
        self.row(name, b, f, ok)
    }
}

/// A loaded JSON document plus the dumb-but-sufficient number extractor
/// for the flat format `scalability` writes (offline workspace: no serde).
struct Doc {
    path: String,
    text: String,
}

fn read_doc(path: &str) -> Doc {
    match std::fs::read_to_string(path) {
        Ok(text) => Doc { path: path.to_string(), text },
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            eprintln!("run `cargo run --release -p sraa-bench --bin scalability` first");
            exit(2);
        }
    }
}

impl Doc {
    /// The `idx`-th occurrence of `"key": <number>` in document order.
    /// Occurrence order is fixed by the writer: e.g. `total_us` appears
    /// once per solver in `SolverKind::ALL` order.
    fn occurrence(&self, key: &str, idx: usize) -> f64 {
        let needle = format!("\"{key}\":");
        let mut from = 0;
        for n in 0.. {
            let Some(at) = self.text[from..].find(&needle) else {
                eprintln!("{}: missing occurrence {idx} of \"{key}\"", self.path);
                exit(2);
            };
            let start = from + at + needle.len();
            if n == idx {
                let rest = self.text[start..].trim_start();
                let end = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                    .unwrap_or(rest.len());
                return rest[..end].parse().unwrap_or_else(|_| {
                    eprintln!("{}: \"{key}\" is not a number", self.path);
                    exit(2);
                });
            }
            from = start;
        }
        unreachable!()
    }

    /// The unique occurrence of `"key": <number>`.
    fn num(&self, key: &str) -> f64 {
        self.occurrence(key, 0)
    }

    /// A sub-document scoped to the flat object under `"name": {`, so
    /// keys that also exist elsewhere (e.g. `workloads`) resolve to the
    /// object's own fields rather than by document-wide occurrence
    /// counting.
    fn section(&self, name: &str) -> Doc {
        let open = format!("\"{name}\": {{");
        let Some(at) = self.text.find(&open) else {
            eprintln!("{}: missing \"{name}\" object", self.path);
            exit(2);
        };
        let body = &self.text[at + open.len()..];
        let end = body.find('}').unwrap_or(body.len());
        Doc { path: format!("{}#{name}", self.path), text: body[..end].to_string() }
    }
}
