//! Applicability through optimisation clients — the experiment the
//! paper's §2 motivates in prose ("the extra precision gives compilers
//! information to carry out more extensive transformations").
//!
//! The same two passes — redundant-load elimination and dead-store
//! elimination (`sraa-opt`) — run over every SPEC workload four times,
//! driven by increasingly strong oracles:
//!
//! * `none`  — the pessimistic baseline (everything may alias);
//! * `BA`    — LLVM-basic-aa-style heuristics;
//! * `BA+LT` — BA chained with the paper's strict-inequality analysis;
//! * `BA+PT` — BA chained with the dense Pentagon adapter.
//!
//! Reported: loads + stores eliminated per oracle. The claim under test
//! is monotone growth from `none` through `BA` to the combinations, with
//! the LT/PT columns quantifying what ordering facts add on top of
//! allocation-site reasoning. Run with
//! `cargo run --release -p sraa-bench --bin applicability_opt`.

use sraa_alias::{
    AliasAnalysis, BasicAliasAnalysis, Combined, NoAa, PentagonAa, StrictInequalityAa,
};
use sraa_opt::{eliminate_dead_stores, eliminate_redundant_loads, hoist_invariant_loads, OptStats};
use std::io::{self, Write};

#[derive(Clone, Copy)]
enum Oracle {
    None,
    Ba,
    BaLt,
    BaPt,
}

fn run_oracle(source: &str, name: &str, oracle: Oracle) -> OptStats {
    let mut module = sraa_minic::compile(source)
        .unwrap_or_else(|e| panic!("workload {name} failed to compile: {e}"));
    // All configurations run on e-SSA so the optimised programs are
    // identical modulo the oracle.
    let lt = StrictInequalityAa::new(&mut module);
    let aa: Box<dyn AliasAnalysis> = match oracle {
        Oracle::None => Box::new(NoAa),
        Oracle::Ba => Box::new(BasicAliasAnalysis::new(&module)),
        Oracle::BaLt => {
            Box::new(Combined::new(vec![Box::new(BasicAliasAnalysis::new(&module)), Box::new(lt)]))
        }
        Oracle::BaPt => Box::new(Combined::new(vec![
            Box::new(BasicAliasAnalysis::new(&module)),
            Box::new(PentagonAa::on_prepared(&module)),
        ])),
    };
    let mut stats = eliminate_redundant_loads(&mut module, aa.as_ref());
    stats += eliminate_dead_stores(&mut module, aa.as_ref());
    stats += hoist_invariant_loads(&mut module, aa.as_ref());
    stats
}

fn report(out: &mut dyn Write, title: &str, workloads: &[sraa_synth::Workload]) -> io::Result<()> {
    writeln!(out, "== {title} ==")?;
    writeln!(
        out,
        "{:<14} {:>11} {:>11} {:>11} {:>11}   (loads forwarded + stores killed + loads hoisted)",
        "benchmark", "none", "BA", "BA+LT", "BA+PT"
    )?;
    let mut totals = [OptStats::default(); 4];
    for w in workloads {
        let mut row = [OptStats::default(); 4];
        for (i, oracle) in
            [Oracle::None, Oracle::Ba, Oracle::BaLt, Oracle::BaPt].into_iter().enumerate()
        {
            row[i] = run_oracle(&w.source, &w.name, oracle);
            totals[i] += row[i];
        }
        let cell = |s: OptStats| {
            format!("{}+{}+{}", s.loads_eliminated, s.stores_eliminated, s.loads_hoisted)
        };
        writeln!(
            out,
            "{:<14} {:>11} {:>11} {:>11} {:>11}",
            w.name,
            cell(row[0]),
            cell(row[1]),
            cell(row[2]),
            cell(row[3])
        )?;
    }
    let grand = |s: OptStats| s.loads_eliminated + s.stores_eliminated + s.loads_hoisted;
    writeln!(
        out,
        "totals: none={} BA={} BA+LT={} BA+PT={}",
        grand(totals[0]),
        grand(totals[1]),
        grand(totals[2]),
        grand(totals[3])
    )?;
    let rel = |a: OptStats, b: OptStats| {
        (grand(b) as f64 - grand(a) as f64) / grand(a).max(1) as f64 * 100.0
    };
    writeln!(
        out,
        "gains: BA over none {:+.1}%; LT on top of BA {:+.1}%; PT on top of BA {:+.1}%",
        rel(totals[0], totals[1]),
        rel(totals[1], totals[2]),
        rel(totals[1], totals[3])
    )?;
    writeln!(out)
}

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    // The oracle-sensitive shapes, isolated per kernel family.
    report(out, "optimisation kernels (scale 8)", &sraa_synth::optk_all(8))?;
    // The honest negative: the aa-eval-calibrated SPEC stand-ins contain
    // almost no oracle-gated memory traffic.
    report(out, "SPEC workloads", &sraa_synth::spec_all())
}
