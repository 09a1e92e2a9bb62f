//! Figure 12 — precision of the Program Dependence Graph on 120
//! Csmith-like programs (20 per pointer nesting depth, depths 2–7): the
//! number of PDG memory nodes under BA alone versus BA+LT, against the
//! static number of memory accesses.
//!
//! Paper headline: the 120 PDGs hold 1,299 memory nodes under BA and
//! 8,114 under BA+LT — a 6.23× increase; results do not depend on the
//! nesting depth.

use sraa_bench::Prepared;
use sraa_core::GenConfig;
use sraa_pdg::DepGraph;
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    let ws = sraa_synth::csmith_figure12();
    writeln!(out, "{:<18} {:>8} {:>6} {:>7}", "program", "static", "BA", "BA+LT")?;
    let mut tot_static = 0usize;
    let mut tot_ba = 0usize;
    let mut tot_both = 0usize;
    let mut per_depth: std::collections::BTreeMap<char, (usize, usize, usize)> = Default::default();
    for w in &ws {
        // The PDG experiment enables the §3.6 range-offset criterion: the
        // Csmith population is constant-index-heavy, which is exactly the
        // case that criterion (and the paper's Figure 12 numbers) covers.
        let p = Prepared::with_config(w, GenConfig { range_offsets: true, ..Default::default() });
        let g_ba = DepGraph::build(&p.module, &p.ba);
        let g_both = DepGraph::build(&p.module, &p.ba_plus_lt());
        writeln!(
            out,
            "{:<18} {:>8} {:>6} {:>7}",
            p.name, g_ba.static_accesses, g_ba.memory_nodes, g_both.memory_nodes
        )?;
        tot_static += g_ba.static_accesses;
        tot_ba += g_ba.memory_nodes;
        tot_both += g_both.memory_nodes;
        let depth = p.name.chars().nth(8).unwrap_or('?');
        let e = per_depth.entry(depth).or_default();
        e.0 += g_ba.static_accesses;
        e.1 += g_ba.memory_nodes;
        e.2 += g_both.memory_nodes;
    }
    writeln!(out)?;
    writeln!(out, "totals: static={tot_static} BA={tot_ba} BA+LT={tot_both}")?;
    writeln!(
        out,
        "BA+LT / BA memory-node ratio = {:.2}x   (paper: 6.23x — 1,299 vs 8,114)",
        tot_both as f64 / tot_ba.max(1) as f64
    )?;
    writeln!(out)?;
    writeln!(out, "per nesting depth (the paper finds no depth dependence):")?;
    for (d, (s, ba, both)) in per_depth {
        writeln!(
            out,
            "  depth {d}: static={s:>5} BA={ba:>5} BA+LT={both:>5} ratio={:.2}x",
            both as f64 / ba.max(1) as f64
        )?;
    }
    Ok(())
}
