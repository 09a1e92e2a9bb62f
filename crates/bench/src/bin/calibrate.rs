//! Measures the per-function alias-query profile of each workload
//! archetype (pairs, BA-yes, LT-yes, both-yes). These empirical weights
//! feed the profile table in `sraa-synth::spec`; rerun after changing any
//! archetype emitter.

use sraa_alias::{AaEval, AliasAnalysis, AliasResult};
use sraa_bench::Prepared;
use sraa_synth::{Profile, Workload};
use std::io::{self, Write};

fn main() {
    sraa_bench::print_and_exit(run)
}

fn run(out: &mut dyn Write) -> io::Result<()> {
    let archetypes: Vec<(&str, Profile)> = vec![
        ("stencil", Profile { name: "c", stencil: 1, scale: 1, ..Default::default() }),
        ("chain", Profile { name: "c", chain: 1, scale: 1, ..Default::default() }),
        ("sorted", Profile { name: "c", sorted: 1, scale: 1, ..Default::default() }),
        ("walk", Profile { name: "c", walk: 1, scale: 1, ..Default::default() }),
        ("sites", Profile { name: "c", sites: 1, scale: 1, ..Default::default() }),
        ("cstencil", Profile { name: "c", cstencil: 1, scale: 1, ..Default::default() }),
        ("chase", Profile { name: "c", chase: 1, scale: 1, ..Default::default() }),
        ("xchase", Profile { name: "c", xchase: 1, scale: 1, ..Default::default() }),
        ("calls", Profile { name: "c", calls: 1, scale: 1, ..Default::default() }),
    ];
    writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8}   (per archetype function)",
        "archetype", "pairs", "BA-yes", "LT-yes", "both"
    )?;
    for (name, p) in archetypes {
        let w: Workload = sraa_synth::spec::generate(&p);
        let prep = Prepared::new(&w);
        // Restrict to the archetype function itself.
        let fid = prep
            .module
            .functions()
            .find(|(_, f)| f.name.starts_with(name))
            .map(|(id, _)| id)
            .expect("archetype function exists");
        let ptrs = AaEval::pointer_values(&prep.module, fid);
        let mut pairs = 0u64;
        let mut ba_yes = 0u64;
        let mut lt_yes = 0u64;
        let mut both = 0u64;
        for i in 0..ptrs.len() {
            for j in i + 1..ptrs.len() {
                pairs += 1;
                let b = prep.ba.alias(&prep.module, fid, ptrs[i], ptrs[j]) == AliasResult::NoAlias;
                let l = prep.lt.alias(&prep.module, fid, ptrs[i], ptrs[j]) == AliasResult::NoAlias;
                ba_yes += b as u64;
                lt_yes += l as u64;
                both += (b || l) as u64;
            }
        }
        writeln!(out, "{name:<10} {pairs:>8} {ba_yes:>8} {lt_yes:>8} {both:>8}")?;
    }
    Ok(())
}
