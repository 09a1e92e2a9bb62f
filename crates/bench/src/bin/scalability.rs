//! §4.2 scalability statistics, per solver strategy:
//!
//! * constraint evaluations per constraint (paper: ≈ 2.12 worklist pops
//!   over SPEC + test-suite; the SCC strategy's analogue is ≤ that);
//! * solve time vs number of constraints (paper: R² = 0.988);
//! * the LT-set size distribution (paper: > 95% of sets have ≤ 2
//!   elements);
//! * worklist vs SCC wall-clock totals — the check that the engine's
//!   default path ([`SolverKind::Scc`]) is no slower than the baseline;
//! * the interprocedural summary layer over the call-heavy family —
//!   precision gained (`Contextuality::Summaries` vs `Intra` no-alias
//!   counts), summary facts/solves, and build-time overhead;
//! * the incremental engine over the same family — cold summary build vs
//!   a warm run against a just-serialized cache (`warm_us`, `hit_rate`);
//! * the lattice store's `Inter` hot path on a deterministic
//!   intersection-heavy system (`dense_inter_us`);
//! * the resident daemon (`sraa serve`) — a warm re-upload round trip
//!   (`serve.upload_us`), one resident `no-alias` query over the socket
//!   (`serve.resident_query_us`), and what the same answer costs a fresh
//!   one-shot process even with a warm summary cache in hand
//!   (`serve.oneshot_warm_us`; the gate enforces resident ≤ one-shot).
//!
//! Besides the human-readable table, the run emits machine-readable
//! `BENCH_scalability.json` in the working directory so CI can track the
//! performance trajectory across commits: the `gate` binary compares it
//! against the committed `BENCH_baseline.json` and fails on regressions.
//! The JSON includes `calibration_us` — the solve time of one fixed
//! reference system — so the gate can compare times across machines of
//! different speeds (tracked metric = time / calibration).

use sraa_bench::{alloc_count, peak_rss_kb, r_squared, suite_n, Prepared};
use sraa_core::{
    persist, Constraint, EngineConfig, GenConfig, ModuleSummaries, SolverKind, SummaryKeys, VarId,
    VarIndex,
};
use std::fmt::Write as _;
use std::time::Instant;

struct SolverTotals {
    kind: SolverKind,
    total_us: f64,
    total_evals: u64,
    total_allocs: u64,
    xs: Vec<f64>, // constraints
    ys: Vec<f64>, // best-of-three solve time (µs)
}

fn main() {
    let mut ws = sraa_synth::test_suite(suite_n());
    ws.extend(sraa_synth::spec_all());

    let mut total_constraints = 0u64;
    let mut size_hist: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut totals: Vec<SolverTotals> = SolverKind::ALL
        .into_iter()
        .map(|kind| SolverTotals {
            kind,
            total_us: 0.0,
            total_evals: 0,
            total_allocs: 0,
            xs: Vec::new(),
            ys: Vec::new(),
        })
        .collect();

    for w in &ws {
        // The paper's §4.2 question is specifically about *constraint
        // solving*: prepare the system outside the timer, then time each
        // strategy alone, through `SolverKind::solve`.
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let sys = sraa_core::generate(&m, &ranges, Default::default());
        total_constraints += sys.constraints.len() as u64;

        for t in &mut totals {
            // Best of three runs to suppress timer noise on tiny systems.
            let mut dt = f64::INFINITY;
            let mut solution = None;
            // Allocation counts are deterministic per run: any run's count
            // is the count.
            let mut allocs = 0;
            for _ in 0..3 {
                let a0 = alloc_count();
                let t0 = Instant::now();
                let sol = t.kind.solve(&sys.constraints, sys.num_vars);
                dt = dt.min(t0.elapsed().as_secs_f64() * 1e6);
                allocs = alloc_count() - a0;
                solution = Some(sol);
            }
            let solution = solution.expect("ran at least once");
            t.total_us += dt;
            t.total_evals += solution.stats.pops;
            t.total_allocs += allocs;
            t.xs.push(solution.stats.constraints as f64);
            t.ys.push(dt);
            if t.kind == SolverKind::Scc {
                for (sz, n) in solution.size_histogram() {
                    *size_hist.entry(sz).or_default() += n;
                }
            }
        }
    }

    println!("benchmarks analysed      : {}", ws.len());
    println!("total constraints        : {total_constraints}");
    for t in &totals {
        println!(
            "{:<9} evals/constraint : {:.2}   total {:.0}µs   R²(time, #constraints) {:.4}",
            t.kind.as_str(),
            t.total_evals as f64 / total_constraints.max(1) as f64,
            t.total_us,
            r_squared(&t.xs, &t.ys),
        );
    }
    println!("(paper: 2.12 pops/constraint, R² = 0.988 for the worklist)");

    let worklist = &totals[0];
    let scc = &totals[1];
    assert_eq!((worklist.kind, scc.kind), (SolverKind::Worklist, SolverKind::Scc));
    println!(
        "scc vs worklist          : {:.2}x wall-clock, {:.2}x evals (engine default: scc)",
        worklist.total_us / scc.total_us.max(1e-9),
        worklist.total_evals as f64 / scc.total_evals.max(1) as f64
    );
    for t in &totals {
        println!("{:<9} allocations    : {}", t.kind.as_str(), t.total_allocs);
    }

    let total_vars: usize = size_hist.values().sum();
    let small: usize = size_hist.iter().filter(|(s, _)| **s <= 2).map(|(_, n)| n).sum();
    let small_pct = small as f64 / total_vars.max(1) as f64 * 100.0;
    println!("LT sets with ≤ 2 elements: {small_pct:.1}%  (paper: >95%)");
    println!();
    println!("LT set size histogram (size: count):");
    for (sz, n) in size_hist.iter().take(12) {
        println!("  {sz:>3}: {n}");
    }

    let inter = interproc_stats();
    println!();
    println!("interprocedural summaries (call-heavy suite, {} workloads):", inter.workloads);
    println!(
        "  LT no-alias intra → summaries: {} → {}  ({:+})",
        inter.intra_no_alias,
        inter.summaries_no_alias,
        inter.summaries_no_alias as i64 - inter.intra_no_alias as i64
    );
    println!(
        "  {} summary fact(s), {} SCC(s) ({} recursive), {} solve(s)",
        inter.facts, inter.sccs, inter.recursive_sccs, inter.solves
    );
    println!(
        "  engine build intra {:.0}µs, summaries {:.0}µs ({:.2}x)",
        inter.intra_build_us,
        inter.summaries_build_us,
        inter.summaries_build_us / inter.intra_build_us.max(1e-9)
    );

    let inc = incremental_stats();
    println!();
    println!("incremental summary cache (call-heavy suite, {} workloads):", inc.workloads);
    println!(
        "  cold build {:.0}µs → warm {:.0}µs ({:.2}x)",
        inc.cold_us,
        inc.warm_us,
        inc.cold_us / inc.warm_us.max(1e-9)
    );
    println!(
        "  {} function(s) warmed, hit rate {:.1}% (unchanged modules must be 100%)",
        inc.functions,
        inc.hit_rate * 100.0
    );

    let inter_us = dense_inter_us();
    println!("dense Inter hot path     : {inter_us:.0}µs (chain ∪ / nested ∩ system)");

    let serve = serve_stats();
    println!();
    println!(
        "resident daemon (serve)  : warm upload {:.0}µs, resident query {:.1}µs, \
         one-shot warm {:.0}µs ({:.1}x)",
        serve.upload_us,
        serve.resident_query_us,
        serve.oneshot_warm_us,
        serve.oneshot_warm_us / serve.resident_query_us.max(1e-9)
    );

    let store = store_bench_stats();
    println!(
        "shared summary store     : cold upload {:.0}µs → store-warm {:.0}µs ({:.2}x), \
         hit rate {:.1}%",
        store.cold_upload_us,
        store.warm_upload_us,
        store.cold_upload_us / store.warm_upload_us.max(1e-9),
        store.hit_rate * 100.0
    );

    let calibration_us = calibrate();
    let json = render_json(
        &ws.len(),
        total_constraints,
        &totals,
        small_pct,
        &size_hist,
        &inter,
        &inc,
        &serve,
        &store,
        inter_us,
        calibration_us,
        peak_rss_kb(),
    );
    let path = "BENCH_scalability.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncannot write {path}: {e}"),
    }
}

/// Interprocedural metrics over the call-heavy family: the precision the
/// summary layer adds (deterministic) and what it costs (wall clock).
struct InterprocStats {
    workloads: usize,
    intra_no_alias: u64,
    summaries_no_alias: u64,
    facts: usize,
    sccs: usize,
    recursive_sccs: usize,
    solves: u64,
    intra_build_us: f64,
    summaries_build_us: f64,
}

fn interproc_stats() -> InterprocStats {
    let calls = sraa_synth::call_suite(suite_n().min(24));
    let mut out = InterprocStats {
        workloads: calls.len(),
        intra_no_alias: 0,
        summaries_no_alias: 0,
        facts: 0,
        sccs: 0,
        recursive_sccs: 0,
        solves: 0,
        intra_build_us: 0.0,
        summaries_build_us: 0.0,
    };
    for w in &calls {
        let t0 = Instant::now();
        let intra = Prepared::new(w);
        out.intra_build_us += t0.elapsed().as_secs_f64() * 1e6;
        let t0 = Instant::now();
        let inter = Prepared::with_engine_config(w, EngineConfig::default().with_summaries());
        out.summaries_build_us += t0.elapsed().as_secs_f64() * 1e6;

        out.intra_no_alias += intra.eval(&[&intra.lt])[0].no_alias;
        out.summaries_no_alias += inter.eval(&[&inter.lt])[0].no_alias;
        let sums = inter.lt.engine().summaries().expect("summaries mode");
        out.facts += sums.facts();
        out.sccs += sums.stats.sccs;
        out.recursive_sccs += sums.stats.recursive_sccs;
        out.solves += sums.stats.solves;
    }
    out
}

/// Incremental-engine metrics over the call-heavy family: the cost of a
/// cold summary build (keys + per-SCC solves), a warm run against a
/// just-serialized cache (keys + lookups, no solves). `hit_rate` over
/// unchanged modules is the cache-correctness canary the perf gate tracks — anything under 1.0
/// means keys churn without an edit.
struct IncrementalStats {
    workloads: usize,
    functions: usize,
    cold_us: f64,
    warm_us: f64,
    hit_rate: f64,
}

fn incremental_stats() -> IncrementalStats {
    let calls = sraa_synth::call_suite(suite_n().min(24));
    let mut out = IncrementalStats {
        workloads: calls.len(),
        functions: 0,
        cold_us: 0.0,
        warm_us: 0.0,
        hit_rate: 0.0,
    };
    let mut hits = 0u64;
    let solver = SolverKind::Scc;
    for w in &calls {
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);

        // Best of three per phase, like the solver timings: the totals
        // are small, and the perf gate tracks them against a baseline.
        let best_of_3 = |f: &mut dyn FnMut()| {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                f();
                best = best.min(t.elapsed().as_secs_f64() * 1e6);
            }
            best
        };

        // Cold: everything a `--summary-cache` first run pays beyond IO.
        let mut keys = None;
        let mut cold = None;
        out.cold_us += best_of_3(&mut || {
            keys = Some(SummaryKeys::compute(&m));
            cold =
                Some(ModuleSummaries::compute(&m, &ranges, GenConfig::default(), &index, solver));
        });
        let (keys, cold) = (keys.expect("ran"), cold.expect("ran"));

        // The exact byte round trip a warm run would read from disk.
        let bytes = persist::to_bytes(&m, &cold, &keys, GenConfig::default());
        let cache = persist::from_bytes(&bytes, GenConfig::default()).expect("cache round-trips");

        // Warm: recompute keys, classify, reuse — zero per-SCC solves.
        let mut warmed = None;
        out.warm_us += best_of_3(&mut || {
            warmed = Some(ModuleSummaries::compute_incremental(
                &m,
                &ranges,
                GenConfig::default(),
                &index,
                solver,
                Some(&cache),
                None,
            ));
        });
        let (warm, _warm_keys, outcome, _) = warmed.expect("ran");
        assert_eq!((outcome.misses, outcome.invalidated), (0, 0), "{}: keys churned", w.name);
        assert_eq!(warm.stats.solves, 0, "{}: warm run must skip all solves", w.name);
        for (f, s) in cold.iter() {
            assert_eq!(warm.of(f), s, "{}: warm summary differs", w.name);
        }
        hits += u64::from(outcome.hits);
        out.functions += m.num_functions();
    }
    out.hit_rate = hits as f64 / (out.functions.max(1)) as f64;
    out
}

/// Wall clock of the lattice store on a deterministic `Inter`-heavy
/// system: a ground chain `x_{i+1} ⊇ {x_i} ∪ LT(x_i)` grows nested sets
/// up to `chain` elements, then every `y_k` intersects three chain
/// prefixes. Nested sets make the intersections match-heavy — exactly
/// the sorted-merge hot loop the word-level kernels accelerate. Acyclic
/// on purpose: cyclic components take the bitset path instead.
fn dense_inter_us() -> f64 {
    let chain = 1200usize;
    let inters = 600usize;
    let mut cs: Vec<Constraint> = Vec::with_capacity(chain + inters);
    cs.push(Constraint::Init { x: VarId::from_index(0) });
    for i in 1..chain {
        cs.push(Constraint::Union {
            x: VarId::from_index(i),
            elems: vec![VarId::from_index(i - 1)],
            sources: vec![VarId::from_index(i - 1)],
        });
    }
    for k in 0..inters {
        cs.push(Constraint::Inter {
            x: VarId::from_index(chain + k),
            sources: vec![
                VarId::from_index(chain / 2 + k % (chain / 4)),
                VarId::from_index(chain * 3 / 4 + k % (chain / 8)),
                VarId::from_index(chain - 1 - k % (chain / 8)),
            ],
        });
    }
    let num_vars = chain + inters;
    let solver = SolverKind::Scc;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let sol = solver.solve(&cs, num_vars);
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(sol);
    }
    best
}

/// The resident daemon vs the one-shot path: what `sraa serve` saves.
/// `upload_us` is a warm re-upload round trip (compile on the daemon +
/// incremental classify with zero solves + re-render); `resident_query_us`
/// is one `no-alias` query against the resident engine — a loopback
/// socket round trip plus a direct criteria check; `oneshot_warm_us` is what
/// the same answer costs without the daemon: compile + e-SSA + a warm
/// engine build against an in-memory summary cache + the query. The gate
/// enforces resident ≤ one-shot warm on every fresh run — the daemon's
/// reason to exist.
struct ServeBenchStats {
    upload_us: f64,
    resident_query_us: f64,
    oneshot_warm_us: f64,
}

fn serve_stats() -> ServeBenchStats {
    use sraa_serve::{obj, Client, Json, Server, ServerConfig};
    let w = sraa_synth::call_suite(suite_n().min(24)).pop().expect("call suite is non-empty");

    // Cold local build: produces the warm in-memory cache and picks the
    // question both paths answer (the first function with two pointers).
    let mut m0 = sraa_minic::compile(&w.source).expect("workload compiles");
    let engine0 = sraa_core::DisambiguationEngine::build_with_cache_and_store(
        &mut m0,
        EngineConfig::default(),
        None,
        None,
    );
    let cache = engine0.export_summary_cache(&m0).expect("summaries mode");
    let (fname, _, v1, v2) = m0
        .functions()
        .find_map(|(fid, f)| {
            let ptrs = sraa_alias::AaEval::pointer_values(&m0, fid);
            (ptrs.len() >= 2).then(|| (f.name.clone(), fid, ptrs[0], ptrs[1]))
        })
        .expect("call-heavy workload has pointer pairs");

    // One-shot warm: everything a fresh `sraa` process pays for one
    // answer, even with a fully warm summary cache already in hand.
    let mut oneshot = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut m = sraa_minic::compile(&w.source).expect("workload compiles");
        let engine = sraa_core::DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            EngineConfig::default(),
            Some(&cache),
            None,
        );
        let fid = m.function_by_name(&fname).expect("function survives recompilation");
        std::hint::black_box(engine.no_alias(m.function(fid), fid, v1, v2));
        oneshot = oneshot.min(t0.elapsed().as_secs_f64() * 1e6);
    }

    // The daemon on loopback TCP: prime with a cold upload, then time
    // warm re-uploads and resident queries as whole round trips.
    let server =
        Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind loopback daemon");
    let mut upload = f64::INFINITY;
    let mut resident = f64::INFINITY;
    std::thread::scope(|scope| {
        let addr = server.tcp_addr().expect("tcp daemon has an address");
        scope.spawn(|| server.run().expect("serve loop"));
        let mut client = Client::connect_tcp(addr).expect("connect to daemon");
        let up_req = obj([
            ("cmd", Json::Str("upload".into())),
            ("name", Json::Str("bench".into())),
            ("source", Json::Str(w.source.clone())),
        ]);
        let r = client.request(&up_req).expect("cold upload");
        assert!(r.is_ok(), "upload failed: {r:?}");
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = client.request(&up_req).expect("warm re-upload");
            upload = upload.min(t0.elapsed().as_secs_f64() * 1e6);
            assert!(r.is_ok(), "re-upload failed: {r:?}");
        }
        let q = obj([
            ("cmd", Json::Str("no-alias".into())),
            ("module", Json::Str("bench".into())),
            ("func", Json::Str(fname.clone())),
            ("p1", Json::Str(format!("{v1}"))),
            ("p2", Json::Str(format!("{v2}"))),
        ]);
        let r = client.request(&q).expect("warmup query");
        assert!(r.is_ok(), "query failed: {r:?}");
        for _ in 0..30 {
            let t0 = Instant::now();
            let r = client.request(&q).expect("resident query");
            resident = resident.min(t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(r);
        }
        client.request(&obj([("cmd", Json::Str("shutdown".into()))])).expect("graceful shutdown");
    });
    ServeBenchStats { upload_us: upload, resident_query_us: resident, oneshot_warm_us: oneshot }
}

/// The content-addressed shared store: a cold engine build that solves
/// every summary and publishes it (fresh directory per iteration — the
/// first process ever to see the module family), vs the same build
/// against a populated directory (every component answered by key
/// lookup, nothing published, no segment written). The gate enforces
/// store-warm ≤ cold — the store's reason to exist — and tracks
/// `hit_rate`, which must be 1.0 for an unchanged module: anything less
/// means content keys churn without an edit.
struct StoreBenchStats {
    cold_upload_us: f64,
    warm_upload_us: f64,
    hit_rate: f64,
}

fn store_bench_stats() -> StoreBenchStats {
    use sraa_core::SharedSummaryStore;
    let w = sraa_synth::call_suite(suite_n().min(24)).pop().expect("call suite is non-empty");
    let base = std::env::temp_dir().join(format!("sraa_bench_store_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    // Cold: a fresh directory each run — keys are computed, every SCC is
    // solved, and every summary is published as a new segment.
    let mut cold = f64::INFINITY;
    for i in 0..3 {
        let dir = base.join(format!("cold{i}"));
        let store = SharedSummaryStore::open(&dir, GenConfig::default()).expect("store opens");
        let mut m = sraa_minic::compile(&w.source).expect("workload compiles");
        let t0 = Instant::now();
        let engine = sraa_core::DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            EngineConfig::default(),
            None,
            Some(&store),
        );
        cold = cold.min(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(engine.stats().store_hits, 0, "a fresh directory cannot hit");
        assert!(engine.stats().store_published > 0, "the cold run must publish");
    }

    // Populate one directory, then time warm builds against it through
    // fresh handles — the second daemon / next one-shot process.
    let dir = base.join("warm");
    {
        let store = SharedSummaryStore::open(&dir, GenConfig::default()).expect("store opens");
        let mut m = sraa_minic::compile(&w.source).expect("workload compiles");
        let engine = sraa_core::DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            EngineConfig::default(),
            None,
            Some(&store),
        );
        std::hint::black_box(engine);
    }
    let mut warm = f64::INFINITY;
    let mut hit_rate = 0.0;
    for _ in 0..3 {
        let store = SharedSummaryStore::open(&dir, GenConfig::default()).expect("store reopens");
        let mut m = sraa_minic::compile(&w.source).expect("workload compiles");
        let t0 = Instant::now();
        let engine = sraa_core::DisambiguationEngine::build_with_cache_and_store(
            &mut m,
            EngineConfig::default(),
            None,
            Some(&store),
        );
        warm = warm.min(t0.elapsed().as_secs_f64() * 1e6);
        let s = engine.stats();
        assert_eq!(s.store_misses, 0, "an unchanged module must hit the store completely");
        assert_eq!(s.store_published, 0, "a warm run must not publish");
        hit_rate = f64::from(s.store_hits) / f64::from(s.store_hits + s.store_misses).max(1.0);
    }
    std::fs::remove_dir_all(&base).ok();
    StoreBenchStats { cold_upload_us: cold, warm_upload_us: warm, hit_rate }
}

/// Solve time of one fixed reference system (best of five) — a proxy for
/// machine speed that lets the gate normalise wall-clock metrics across
/// hosts: `total_us / calibration_us` is comparable between a laptop
/// baseline and a CI runner.
fn calibrate() -> f64 {
    let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
        seed: 42,
        max_ptr_depth: 3,
        num_stmts: 400,
        helpers: 0,
    });
    let mut m = sraa_minic::compile(&w.source).expect("calibration workload compiles");
    let (ranges, _) = sraa_essa::transform_module(&mut m);
    let sys = sraa_core::generate(&m, &ranges, Default::default());
    let solver = SolverKind::Scc;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let sol = solver.solve(&sys.constraints, sys.num_vars);
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(sol);
    }
    best
}

/// Hand-rolled JSON — the workspace is offline and the numbers are flat.
#[allow(clippy::too_many_arguments)] // flat report, one writer
fn render_json(
    workloads: &usize,
    total_constraints: u64,
    totals: &[SolverTotals],
    small_pct: f64,
    size_hist: &std::collections::BTreeMap<usize, usize>,
    inter: &InterprocStats,
    inc: &IncrementalStats,
    serve: &ServeBenchStats,
    store: &StoreBenchStats,
    dense_inter_us: f64,
    calibration_us: f64,
    peak_rss_kb: u64,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workloads\": {workloads},");
    let _ = writeln!(s, "  \"total_constraints\": {total_constraints},");
    let _ = writeln!(s, "  \"calibration_us\": {calibration_us:.1},");
    let _ = writeln!(s, "  \"dense_inter_us\": {dense_inter_us:.1},");
    let _ = writeln!(s, "  \"peak_rss_kb\": {peak_rss_kb},");
    s.push_str("  \"interproc\": {\n");
    let _ = writeln!(s, "    \"workloads\": {},", inter.workloads);
    let _ = writeln!(s, "    \"intra_no_alias\": {},", inter.intra_no_alias);
    let _ = writeln!(s, "    \"summaries_no_alias\": {},", inter.summaries_no_alias);
    let _ = writeln!(s, "    \"facts\": {},", inter.facts);
    let _ = writeln!(s, "    \"sccs\": {},", inter.sccs);
    let _ = writeln!(s, "    \"recursive_sccs\": {},", inter.recursive_sccs);
    let _ = writeln!(s, "    \"solves\": {},", inter.solves);
    let _ = writeln!(s, "    \"intra_build_us\": {:.1},", inter.intra_build_us);
    let _ = writeln!(s, "    \"summaries_build_us\": {:.1}", inter.summaries_build_us);
    s.push_str("  },\n");
    s.push_str("  \"incremental\": {\n");
    let _ = writeln!(s, "    \"workloads\": {},", inc.workloads);
    let _ = writeln!(s, "    \"functions\": {},", inc.functions);
    let _ = writeln!(s, "    \"cold_us\": {:.1},", inc.cold_us);
    let _ = writeln!(s, "    \"warm_us\": {:.1},", inc.warm_us);
    let _ = writeln!(s, "    \"hit_rate\": {:.4}", inc.hit_rate);
    s.push_str("  },\n");
    s.push_str("  \"serve\": {\n");
    let _ = writeln!(s, "    \"upload_us\": {:.1},", serve.upload_us);
    let _ = writeln!(s, "    \"resident_query_us\": {:.1},", serve.resident_query_us);
    let _ = writeln!(s, "    \"oneshot_warm_us\": {:.1}", serve.oneshot_warm_us);
    s.push_str("  },\n");
    s.push_str("  \"store\": {\n");
    let _ = writeln!(s, "    \"cold_upload_us\": {:.1},", store.cold_upload_us);
    let _ = writeln!(s, "    \"warm_upload_us\": {:.1},", store.warm_upload_us);
    let _ = writeln!(s, "    \"hit_rate\": {:.4}", store.hit_rate);
    s.push_str("  },\n");
    s.push_str("  \"solvers\": [\n");
    for (i, t) in totals.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"total_us\": {:.1}, \"total_evals\": {}, \
             \"total_allocs\": {}, \"evals_per_constraint\": {:.4}, \
             \"r2_time_vs_constraints\": {:.4}}}{}",
            t.kind.as_str(),
            t.total_us,
            t.total_evals,
            t.total_allocs,
            t.total_evals as f64 / total_constraints.max(1) as f64,
            r_squared(&t.xs, &t.ys),
            if i + 1 < totals.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"scc_speedup_over_worklist\": {:.4},",
        totals[0].total_us / totals[1].total_us.max(1e-9)
    );
    let _ = writeln!(s, "  \"default_solver\": \"{}\",", SolverKind::default().as_str());
    let _ = writeln!(s, "  \"lt_sets_le2_pct\": {small_pct:.2},");
    s.push_str("  \"size_histogram\": {");
    let mut first = true;
    for (sz, n) in size_hist {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "\"{sz}\": {n}");
    }
    s.push_str("}\n}\n");
    s
}
