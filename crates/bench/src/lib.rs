//! `sraa-bench` — the experiment harness.
//!
//! One binary per figure of the paper's evaluation section:
//!
//! | binary        | paper artefact | what it prints                             |
//! |---------------|----------------|--------------------------------------------|
//! | `fig8`        | Figure 8       | per-benchmark Total/LT/BA/BA+LT no-alias   |
//! | `fig9`        | Figure 9       | SPEC table: #queries + %BA/%LT/%(BA+LT)    |
//! | `fig10`       | Figure 10      | %BA vs %(BA+LT) vs %(BA+CF) bars           |
//! | `fig11`       | Figure 11      | #instructions vs #constraints + R²         |
//! | `fig12`       | Figure 12      | PDG memory nodes: static/BA/BA+LT          |
//! | `scalability` | §4.2           | evals/constraint, time-vs-size R², set sizes|
//! | `ablation`    | design choices | param pairs, range criterion               |
//! | `pentagon_vs_lt` | §5 prose    | LT vs dense Pentagons: divergence + cost   |
//! | `applicability_opt` | §2 prose | loads/stores removed per alias oracle      |
//! | `calibrate`   | synth tuning   | alias-query profile per archetype          |
//!
//! `fig8`, `fig11` and `scalability` honour `SRAA_SUITE_N` (suite size,
//! default 100). All binaries print CSV-ish aligned tables to stdout so
//! runs can be diffed against each other; `tests/spec_shapes.rs` asserts the shape of each headline result
//! and `tests/work_counters.rs` pins `scalability`'s deterministic work
//! counters. Timings of the system a user runs come from the benchmark
//! in `perfbench/`, which also uses this crate's allocation counter.

use sraa_alias::{
    AaEval, AliasAnalysis, AndersenAnalysis, BasicAliasAnalysis, Combined, EvalSummary,
    StrictInequalityAa,
};
use sraa_core::{EngineConfig, GenConfig};
use sraa_ir::{Module, ModuleStats};
use sraa_synth::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed global allocator that counts allocations, so the
/// benchmark can report allocator pressure alongside wall clock:
/// allocation counts are deterministic where timings are noisy, which
/// makes them a regression signal a test can pin.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`; the counter has no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (including reallocs) since process start. Subtract
/// two readings to count the allocations of a region of code.
pub fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A compiled workload with every analysis constructed, ready to query.
pub struct Prepared {
    /// Benchmark name.
    pub name: String,
    /// The module, already in e-SSA form.
    pub module: Module,
    /// The paper's analysis (LT).
    pub lt: StrictInequalityAa,
    /// LLVM-basic-aa-style heuristics (BA).
    pub ba: BasicAliasAnalysis,
    /// Size statistics of the e-SSA module.
    pub stats: ModuleStats,
}

impl Prepared {
    /// Compiles and analyses one workload.
    ///
    /// # Panics
    ///
    /// Panics if the generated source fails to compile — that is a bug in
    /// the generators, not an experiment outcome.
    pub fn new(w: &Workload) -> Prepared {
        Self::with_config(w, GenConfig::default())
    }

    /// [`Prepared::new`] with an explicit LT configuration.
    pub fn with_config(w: &Workload, cfg: GenConfig) -> Prepared {
        Self::with_engine_config(w, EngineConfig::from(cfg))
    }

    /// [`Prepared::new`] with a full engine configuration (constraint
    /// options + interprocedural mode).
    pub fn with_engine_config(w: &Workload, cfg: EngineConfig) -> Prepared {
        let mut module = sraa_minic::compile(&w.source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
        let lt = StrictInequalityAa::with_engine_config(&mut module, cfg);
        let ba = BasicAliasAnalysis::new(&module);
        let stats = ModuleStats::compute(&module);
        Prepared { name: w.name.clone(), module, lt, ba, stats }
    }

    /// The BA+LT combination. The LT handle shares the prepared engine —
    /// its solved relation — instead of re-running the pipeline.
    pub fn ba_plus_lt(&self) -> Combined {
        Combined::new(vec![Box::new(self.ba.clone()), Box::new(self.lt.clone())])
    }

    /// The BA+CF combination (builds the Andersen analysis on demand).
    pub fn ba_plus_cf(&self) -> Combined {
        Combined::new(vec![
            Box::new(self.ba.clone()),
            Box::new(AndersenAnalysis::new(&self.module)),
        ])
    }

    /// Runs `aa-eval` for the given analyses.
    pub fn eval(&self, analyses: &[&dyn AliasAnalysis]) -> Vec<EvalSummary> {
        AaEval::run(&self.module, analyses)
    }
}

/// Suite size from `SRAA_SUITE_N` (default 100 when unset). A value that
/// is not a whole number ends the process with exit code 2, rather than
/// silently running the default-sized suite.
pub fn suite_n() -> usize {
    let Some(raw) = std::env::var_os("SRAA_SUITE_N") else { return 100 };
    match raw.to_str().map(str::parse) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("SRAA_SUITE_N must be a whole number, got {raw:?}");
            std::process::exit(2);
        }
    }
}

/// Ordinary-least-squares R² of `y` against `x` — the statistic the paper
/// reports for Figure 11 (0.992) and the solve-time fit (0.988).
pub fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 1.0;
    }
    (sxy * sxy) / (sxx * syy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_counter_observes_heap_traffic() {
        let before = alloc_count();
        let v: Vec<u64> = (0..1024).collect();
        std::hint::black_box(&v);
        assert!(alloc_count() > before, "a fresh Vec must register at least one allocation");
    }

    #[test]
    fn alloc_counter_aggregates_across_threads() {
        // The resident daemon serves every connection on a thread of its
        // own; allocation counts taken around a daemon round trip are only
        // meaningful if heap traffic from every thread lands in the one
        // global counter.
        let before = alloc_count();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v: Vec<u64> = (0..1024).collect();
                    std::hint::black_box(&v);
                });
            }
        });
        assert!(
            alloc_count() >= before + 4,
            "other threads' allocations must register in the global counter"
        );
    }

    #[test]
    fn peak_rss_is_reported_where_procfs_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0, "a running process has a nonzero high-water mark");
        } else {
            assert_eq!(peak_rss_kb(), 0, "no procfs: the helper must degrade to 0, not panic");
        }
    }

    #[test]
    fn r_squared_of_perfect_line_is_one() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((r_squared(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_of_noise_is_low() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..100).map(|i| (i * 2654435761u64 % 97) as f64).collect();
        assert!(r_squared(&xs, &ys) < 0.3);
    }

    #[test]
    fn prepared_builds_all_analyses() {
        let w = Workload {
            name: "t".into(),
            source: "int f(int* v, int n) { for (int i = 0; i + 1 < n; i++) v[i] = v[i+1]; return 0; } int main() { int a[8]; return f(a, 8); }".into(),
        };
        let p = Prepared::new(&w);
        let out = p.eval(&[&p.ba, &p.lt, &p.ba_plus_lt(), &p.ba_plus_cf()]);
        assert_eq!(out.len(), 4);
        let total = out[0].total();
        assert!(out.iter().all(|s| s.total() == total));
        // BA+LT dominates each part.
        assert!(out[2].no_alias >= out[0].no_alias);
        assert!(out[2].no_alias >= out[1].no_alias);
    }
}
