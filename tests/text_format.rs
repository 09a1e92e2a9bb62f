//! The textual IR format round-trips: `print → parse → print` is a fixed
//! point over the synthetic corpora, in SSA and in e-SSA form.
//!
//! Parsing renumbers values, so the first print of a compiled module need
//! not equal the print of its parse. Once a module has been through the
//! parser, though, printing and re-parsing it must change nothing: for
//! `p = print(parse(print(m)))`, `print(parse(p)) == p`.

use sraa_ir::parse_module;
use sraa_ir::printer::print_module;
use sraa_synth::{call_suite, csmith_generate, test_suite, CsmithConfig, Workload};

fn corpus() -> Vec<Workload> {
    let mut ws = test_suite(26);
    ws.extend(call_suite(12));
    for seed in 1..=16 {
        for depth in 2..=7 {
            ws.push(csmith_generate(CsmithConfig {
                seed,
                max_ptr_depth: depth,
                num_stmts: 80,
                helpers: 3,
            }));
        }
    }
    ws
}

/// Asserts the fixed point on `m`, labelled `what` in failures.
fn assert_round_trip(m: &sraa_ir::Module, what: &str) {
    let first = parse_module(&print_module(m))
        .unwrap_or_else(|e| panic!("{what}: printer output does not parse: {e}"));
    let p = print_module(&first);
    let again = parse_module(&p).unwrap_or_else(|e| panic!("{what}: reprint does not parse: {e}"));
    assert_eq!(print_module(&again), p, "{what}: print∘parse is not a fixed point");
}

#[test]
fn print_parse_print_is_a_fixed_point_in_ssa_and_essa() {
    let ws = corpus();
    for w in &ws {
        let mut m = sraa_minic::compile(&w.source).expect("corpus program compiles");
        assert_round_trip(&m, &format!("{} (SSA)", w.name));
        sraa_essa::transform_module(&mut m);
        assert_round_trip(&m, &format!("{} (e-SSA)", w.name));
    }
    assert_eq!(ws.len(), 26 + 12 + 16 * 6);
}
