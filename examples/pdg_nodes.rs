//! The paper's applicability experiment in miniature (its §4.3): build
//! the Program Dependence Graph of one Csmith-like random program under
//! BA alone and under BA+LT, and report the memory-node counts. More
//! memory nodes = finer dependence information = more freedom for
//! instruction scheduling, value numbering and friends.
//!
//! Run with `cargo run --example pdg_nodes -- [seed] [ptr-depth]`.

use sraa::alias::{BasicAliasAnalysis, Combined, StrictInequalityAa};
use sraa::lt::GenConfig;
use sraa::pdg::DepGraph;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let depth: u8 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    let w = sraa::synth::csmith_generate(sraa::synth::CsmithConfig {
        seed,
        max_ptr_depth: depth,
        num_stmts: 80,
        helpers: 0,
    });
    println!("generated {} ({} bytes of MiniC)\n", w.name, w.source.len());

    let mut module = sraa::minic::compile(&w.source).expect("generated programs compile");
    // The PDG experiment enables the §3.6 range-offset criterion
    // (`GenConfig::range_offsets`): Csmith indexing is constant-valued,
    // which is exactly what that criterion resolves.
    let lt = StrictInequalityAa::with_engine_config(
        &mut module,
        GenConfig { range_offsets: true, ..Default::default() }.into(),
    );
    let ba = BasicAliasAnalysis::new(&module);
    let both = Combined::new(vec![Box::new(ba.clone()), Box::new(lt.clone())]);

    let g_ba = DepGraph::build(&module, &ba);
    let g_both = DepGraph::build(&module, &both);

    println!("static memory accesses : {}", g_ba.static_accesses);
    println!("PDG nodes              : {}", g_ba.nodes.len());
    println!("PDG edges              : {}", g_ba.edges.len());
    println!("memory nodes, BA       : {}", g_ba.memory_nodes);
    println!("memory nodes, BA+LT    : {}", g_both.memory_nodes);
    println!(
        "\nBA+LT refines the dependence graph {:.2}x (the paper's Figure 12\nreports 6.23x over its 120-program Csmith lot).",
        g_both.memory_nodes as f64 / g_ba.memory_nodes.max(1) as f64
    );

    // The program also runs.
    let t = sraa::ir::Interpreter::new(&module).run("main", &[]).expect("no traps");
    println!("\nprogram executed: checksum {:?}, {} steps", t.result, t.steps);
}
