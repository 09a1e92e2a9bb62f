//! Output checks. They run outside the timed region; every failure
//! counts as a failed op.

use sraa_alias::AaEval;
use sraa_core::DisambiguationEngine;
use sraa_ir::{Cfg, Fnv64, Frame, Interpreter, Liveness, Module, Observer, Value};
use std::collections::BTreeMap;

/// Expected `eval` report digests, recorded from the reports at the
/// commit that defined the benchmark (`--record-digests` rewrites them).
pub const EXPECTED_DIGESTS: &str = include_str!("../expected/eval_digests.txt");

/// FNV-1a of a report's bytes.
pub fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// Parses `name hex-digest` lines; `#` starts a comment line.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, hex) = line.split_once(' ').ok_or(format!("bad digest line `{line}`"))?;
        let d = u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("`{line}`: {e}"))?;
        out.insert(name.to_string(), d);
    }
    Ok(out)
}

/// Renders the digest file for `reports` (`(module name, report)`).
pub fn render_digests(reports: &[(String, String)]) -> String {
    let mut out = String::from(
        "# FNV-1a digests of `sraa eval --interproc` reports, one module per line.\n\
         # Rewrite with `--record-digests` only when a report is meant to change.\n",
    );
    for (name, text) in reports {
        out.push_str(&format!("{name} {:016x}\n", digest(text)));
    }
    out
}

/// Checks reports against expected digests.
#[derive(Clone, Debug)]
pub struct DigestCheck {
    expected: BTreeMap<String, u64>,
}

impl DigestCheck {
    /// A checker over `expected` (as parsed by [`parse_digests`]).
    pub fn new(expected: BTreeMap<String, u64>) -> DigestCheck {
        DigestCheck { expected }
    }

    /// The checker for the recorded digests.
    pub fn recorded() -> Result<DigestCheck, String> {
        parse_digests(EXPECTED_DIGESTS).map(DigestCheck::new)
    }

    /// Whether `text` is the expected report of `module`. A module with
    /// no recorded digest fails.
    pub fn matches(&self, module: &str, text: &str) -> bool {
        self.expected.get(module) == Some(&digest(text))
    }
}

/// Checks every LT `no-alias` verdict of `engine` against the addresses
/// the interpreter observes when it runs `main`: two pointers proven
/// disjoint must never hold the same address while both are alive. This
/// is the independent oracle of the dynamic soundness tests. Returns the
/// number of violations, or an error if the program does not run.
pub fn lt_oracle_violations(
    module: &Module,
    engine: &DisambiguationEngine,
) -> Result<usize, String> {
    let mut at_def: Vec<Vec<Vec<Value>>> = Vec::new();
    for (fid, f) in module.functions() {
        let cfg = Cfg::compute(f);
        let liveness = Liveness::compute(f, &cfg);
        let positions = f.positions();
        let mut table = vec![Vec::new(); f.num_insts()];
        let ptrs = AaEval::pointer_values(module, fid);
        for (i, &a) in ptrs.iter().enumerate() {
            for &b in &ptrs[i + 1..] {
                if !engine.no_alias(f, fid, a, b) {
                    continue;
                }
                // Checked at the definition of whichever is defined while
                // the other is alive (SSA interference).
                for (w, o) in [(a, b), (b, a)] {
                    if liveness.live_at_def(f, &positions, o, w) {
                        table[w.index()].push(o);
                    }
                }
            }
        }
        at_def.push(table);
    }
    struct Oracle<'a> {
        at_def: &'a [Vec<Vec<Value>>],
        violations: usize,
    }
    impl Observer for Oracle<'_> {
        fn on_def(&mut self, frame: &Frame, v: Value, val: i64) {
            let Some(others) = self.at_def[frame.func.index()].get(v.index()) else { return };
            self.violations += others.iter().filter(|&&o| frame.get(o) == Some(val)).count();
        }
    }
    let mut oracle = Oracle { at_def: &at_def, violations: 0 };
    Interpreter::new(module)
        .with_step_limit(5_000_000)
        .run_observed("main", &[], &mut oracle)
        .map_err(|e| format!("execution failed: {e:?}"))?;
    Ok(oracle.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_table_round_trips_and_detects_a_wrong_report() {
        let reports = vec![("a".to_string(), "report A\n".to_string())];
        let check = DigestCheck::new(parse_digests(&render_digests(&reports)).unwrap());
        assert!(check.matches("a", "report A\n"));
        assert!(!check.matches("a", "report B\n"), "a different report must fail");
        assert!(!check.matches("b", "report A\n"), "an unrecorded module must fail");
    }

    #[test]
    fn malformed_digest_lines_are_errors() {
        assert!(parse_digests("a zz\n").is_err());
        assert!(parse_digests("lonely\n").is_err());
        assert_eq!(parse_digests("# c\n\na 0f\n").unwrap()["a"], 15);
    }
}
