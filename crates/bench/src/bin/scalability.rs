//! §4.2 scalability statistics for the engine's SCC solve
//! ([`sraa_core::solve`]) and the paper's worklist, which is kept as its
//! reference ([`sraa_core::solve_worklist`]) to draw this figure:
//!
//! * constraint evaluations per constraint (paper: ≈ 2.12 worklist pops
//!   over SPEC + test-suite; the SCC schedule's analogue is ≤ that);
//! * solve time vs number of constraints (paper: R² = 0.988);
//! * the worklist vs SCC wall-clock ratio (printed, not checked: the
//!   deterministic eval counts behind it are pinned in
//!   `tests/work_counters.rs`);
//! * the LT-set size distribution (paper: > 95% of sets have ≤ 2
//!   elements).
//!
//! End-to-end and per-layer timings live in the benchmark under
//! `perfbench/`, not here.

use sraa_bench::{r_squared, suite_n};
use sraa_core::{Constraint, ConstraintSystem, Solution};
use std::time::Instant;

/// A fixpoint schedule: [`sraa_core::solve`] or its worklist reference.
type Solve = fn(&[Constraint], usize) -> Solution;

struct SolverTotals {
    name: &'static str,
    solve: Solve,
    total_us: f64,
    total_evals: u64,
    xs: Vec<f64>, // constraints
    ys: Vec<f64>, // best-of-three solve time (µs)
}

impl SolverTotals {
    fn new(name: &'static str, solve: Solve) -> Self {
        SolverTotals { name, solve, total_us: 0.0, total_evals: 0, xs: Vec::new(), ys: Vec::new() }
    }

    /// Solves `sys` best-of-three (to suppress timer noise on tiny
    /// systems), adds the time and evaluations to the totals, and returns
    /// the solution.
    fn run(&mut self, sys: &ConstraintSystem) -> Solution {
        let mut dt = f64::INFINITY;
        let mut solution = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let sol = (self.solve)(&sys.constraints, sys.num_vars);
            dt = dt.min(t0.elapsed().as_secs_f64() * 1e6);
            solution = Some(sol);
        }
        let solution = solution.expect("ran at least once");
        self.total_us += dt;
        self.total_evals += solution.stats.pops;
        self.xs.push(solution.stats.constraints as f64);
        self.ys.push(dt);
        solution
    }
}

fn main() {
    let mut ws = sraa_synth::test_suite(suite_n());
    ws.extend(sraa_synth::spec_all());

    let mut total_constraints = 0u64;
    let mut size_hist: std::collections::BTreeMap<usize, usize> = Default::default();
    let mut worklist = SolverTotals::new("worklist", sraa_core::solve_worklist);
    let mut scc = SolverTotals::new("scc", sraa_core::solve);

    for w in &ws {
        // The paper's §4.2 question is specifically about *constraint
        // solving*: prepare the system outside the timer, then time each
        // schedule alone.
        let mut m = sraa_minic::compile(&w.source).expect("workloads compile");
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let sys = sraa_core::generate(&m, &ranges);
        total_constraints += sys.constraints.len() as u64;

        worklist.run(&sys);
        for (sz, n) in scc.run(&sys).size_histogram() {
            *size_hist.entry(sz).or_default() += n;
        }
    }

    println!("benchmarks analysed      : {}", ws.len());
    println!("total constraints        : {total_constraints}");
    for t in [&worklist, &scc] {
        println!(
            "{:<9} evals/constraint : {:.2}   total {:.0}µs   R²(time, #constraints) {:.4}",
            t.name,
            t.total_evals as f64 / total_constraints.max(1) as f64,
            t.total_us,
            r_squared(&t.xs, &t.ys),
        );
    }
    println!("(paper: 2.12 pops/constraint, R² = 0.988 for the worklist)");

    println!(
        "scc vs worklist          : {:.2}x wall-clock, {:.2}x evals (the engine runs scc)",
        worklist.total_us / scc.total_us.max(1e-9),
        worklist.total_evals as f64 / scc.total_evals.max(1) as f64
    );

    let total_vars: usize = size_hist.values().sum();
    let small: usize = size_hist.iter().filter(|(s, _)| **s <= 2).map(|(_, n)| n).sum();
    let small_pct = small as f64 / total_vars.max(1) as f64 * 100.0;
    println!("LT sets with ≤ 2 elements: {small_pct:.1}%  (paper: >95%)");
    println!();
    println!("LT set size histogram (size: count):");
    for (sz, n) in size_hist.iter().take(12) {
        println!("  {sz:>3}: {n}");
    }
}
