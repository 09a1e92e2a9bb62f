//! Summary cache keys and the in-memory summary cache — the reuse
//! half of incremental `sraa` runs.
//!
//! Re-solving unchanged code dominates whole-module cost on repeated
//! uploads. [`ModuleSummaries`] is deterministic and per-function, so it
//! can be reused for every function whose *meaning-relevant inputs* did
//! not change. This module provides the two pieces of that:
//!
//! * [`SummaryKeys`] — one 64-bit key per function,
//!
//!   ```text
//!   key(f) = H( scc_key(C_f) ∥ body(f) )
//!   scc_key(C) = H( sorted member bodies of C
//!                 ∥ sorted (callee name, callee scc_key) pairs )
//!   ```
//!
//!   where `body(f)` is [`sraa_ir::body_fingerprint`] and `C_f` is `f`'s
//!   component in the call-graph condensation. Because callee-SCC keys
//!   fold in transitively, editing one function changes the key of
//!   exactly the functions that can *reach* it in the call graph — the
//!   set whose summaries its edit can influence. Invalidation is thus
//!   structural, not tracked: a stale entry simply stops matching. The
//!   key is a content address, so it is also the identity of a summary
//!   in the on-disk [`SharedSummaryStore`](crate::SharedSummaryStore).
//!
//! * [`SummaryCache`] — an in-memory map `function name → (key,
//!   summary)` built from a previous build of the same module
//!   ([`SummaryCache::from_parts`]). The resident daemon keeps one per
//!   uploaded module, so a re-upload reuses every summary whose key still
//!   matches. Persistence across processes is the store's job: it is the
//!   only on-disk summary format.

use crate::summary::{FunctionSummary, ModuleSummaries};
use sraa_ir::{body_fingerprint, CallGraph, Condensation, Fnv64, FuncId, Module};
use std::collections::HashMap;

/// Version of the store's segment layout and of the key scheme above,
/// written into every segment. Bump on any change to either (a key
/// computed by a different scheme must never be compared against a
/// stored one).
pub const FORMAT_VERSION: u16 = 1;

/// Per-function summary-cache keys for one module, propagated bottom-up
/// over the call-graph condensation (see the module docs for the scheme).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryKeys {
    per_func: Vec<u64>,
}

impl SummaryKeys {
    /// Computes every function's key. The module must be in its final
    /// (e-SSA) form — the same form summaries are computed on.
    pub fn compute(module: &Module) -> Self {
        let cg = CallGraph::build(module);
        let cond = cg.condense();
        Self::compute_with(module, &cg, &cond)
    }

    /// [`SummaryKeys::compute`] with a caller-provided call graph and
    /// condensation, so a warm run that already built them (the summary
    /// engine does) pays for them once.
    pub fn compute_with(module: &Module, cg: &CallGraph, cond: &Condensation) -> Self {
        let bodies: Vec<u64> = (0..module.num_functions())
            .map(|i| body_fingerprint(module, FuncId::from_index(i)))
            .collect();

        let mut scc_key = vec![0u64; cond.len()];
        let mut per_func = vec![0u64; module.num_functions()];
        for (ci, members) in cond.bottom_up() {
            // Member bodies, ordered by name so the key does not depend on
            // function numbering.
            let mut named: Vec<(&str, u64)> = members
                .iter()
                .map(|&f| (module.function(f).name.as_str(), bodies[f.index()]))
                .collect();
            named.sort_unstable();
            // `(name, component key)` of every external callee (already
            // computed: bottom-up order visits callees first). Keyed per
            // *name*, not as a bare key set: two identical-bodied callees
            // share a component key, and collapsing them would let a
            // mutation of one slip past its callers' keys — a stale
            // (unsound) warm summary. Names are unique, so deduplicating
            // the pairs is exact.
            let mut ext: Vec<(&str, u64)> = members
                .iter()
                .flat_map(|&f| cg.callees(f))
                .filter(|&&g| cond.component_of(g) != ci)
                .map(|&g| (module.function(g).name.as_str(), scc_key[cond.component_of(g)]))
                .collect();
            ext.sort_unstable();
            ext.dedup();

            let mut h = Fnv64::new();
            h.write_u32(named.len() as u32);
            for (_, body) in &named {
                h.write_u64(*body);
            }
            h.write_u32(ext.len() as u32);
            for (name, k) in &ext {
                h.write_str(name);
                h.write_u64(*k);
            }
            scc_key[ci] = h.finish();

            for &f in members {
                let mut h = Fnv64::new();
                h.write_u64(scc_key[ci]);
                h.write_u64(bodies[f.index()]);
                per_func[f.index()] = h.finish();
            }
        }
        SummaryKeys { per_func }
    }

    /// The cache key of function `f`.
    pub fn of(&self, f: FuncId) -> u64 {
        self.per_func[f.index()]
    }

    /// Number of functions covered.
    pub fn len(&self) -> usize {
        self.per_func.len()
    }

    /// Whether the module had no functions.
    pub fn is_empty(&self) -> bool {
        self.per_func.is_empty()
    }
}

/// An in-memory summary cache: `function name → (key, summary)`.
#[derive(Clone, Debug, Default)]
pub struct SummaryCache {
    entries: HashMap<String, (u64, FunctionSummary)>,
}

impl SummaryCache {
    /// Builds the cache from freshly computed summaries and keys — the
    /// resident-daemon path, where the cache rolls forward from one
    /// upload of a module to the next.
    pub fn from_parts(module: &Module, summaries: &ModuleSummaries, keys: &SummaryKeys) -> Self {
        let entries = module
            .functions()
            .map(|(fid, f)| (f.name.clone(), (keys.of(fid), summaries.of(fid).clone())))
            .collect();
        SummaryCache { entries }
    }

    /// The stored `(key, summary)` for `name`, if present.
    pub fn get(&self, name: &str) -> Option<(u64, &FunctionSummary)> {
        self.entries.get(name).map(|(k, s)| (*k, s))
    }

    /// The stored summary for `name`, provided its key matches `key`.
    pub fn lookup(&self, name: &str, key: u64) -> Option<&FunctionSummary> {
        match self.entries.get(name) {
            Some((k, s)) if *k == key => Some(s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::GenConfig;
    use crate::engine::SolverKind;
    use crate::var_index::VarIndex;

    fn cold(src: &str) -> (Module, ModuleSummaries, SummaryKeys) {
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let sums =
            ModuleSummaries::compute(&m, &ranges, GenConfig::default(), &index, SolverKind::Scc);
        let keys = SummaryKeys::compute(&m);
        (m, sums, keys)
    }

    const SRC: &str = r#"
        int next(int i) { return i + 1; }
        int twice(int i) { return next(next(i)); }
        int main() { return twice(1); }
    "#;

    #[test]
    fn from_parts_answers_by_name_and_matching_key_only() {
        let (m, sums, keys) = cold(SRC);
        let cache = SummaryCache::from_parts(&m, &sums, &keys);
        for (fid, f) in m.functions() {
            let (key, summary) = cache.get(&f.name).expect("entry present");
            assert_eq!(key, keys.of(fid));
            assert_eq!(summary, sums.of(fid));
            assert_eq!(cache.lookup(&f.name, key), Some(sums.of(fid)));
            assert!(cache.lookup(&f.name, key ^ 1).is_none(), "stale keys must not match");
        }
        assert!(cache.get("absent").is_none());
        assert!(SummaryCache::default().get("main").is_none());
        // Keys are deterministic across builds of the same source.
        assert_eq!(cold(SRC).2, keys);
    }

    #[test]
    fn keys_change_exactly_for_reverse_reachable_functions() {
        let (m1, _, k1) = cold(SRC);
        let (m2, _, k2) = cold(&SRC.replace("i + 1", "i + 2"));
        // Editing `next` re-keys next, twice and main (all reach it) …
        for name in ["next", "twice", "main"] {
            let f = m1.function_by_name(name).unwrap();
            assert_ne!(k1.of(f), k2.of(f), "{name} must be invalidated");
        }
        // … while editing `main` re-keys only main.
        let (m3, _, k3) = cold(&SRC.replace("twice(1)", "twice(2)"));
        for name in ["next", "twice"] {
            let f = m1.function_by_name(name).unwrap();
            assert_eq!(k1.of(f), k3.of(f), "{name} must stay valid");
        }
        let main = m1.function_by_name("main").unwrap();
        assert_ne!(k1.of(main), k3.of(main));
        assert_eq!((m2.num_functions(), m3.num_functions()), (3, 3));
        assert_eq!(k1.len(), 3);
        assert!(!k1.is_empty());
    }
}
