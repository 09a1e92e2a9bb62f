//! The paper-facing surface of the end-to-end pipeline.
//!
//! ```text
//! SSA module ──σ-split──▶ e-SSA ──range──▶ intervals ──sub-split──▶ e-SSA(full)
//!            ──Figure 7──▶ constraints ──fixpoint──▶ LT sets
//! ```
//!
//! The pipeline itself lives in the [`DisambiguationEngine`]; this
//! module keeps the IR-walking helper Definition 3.11 needs
//! ([`derived_pointer`]) and the paper's examples as tests.
//!
//! [`DisambiguationEngine`]: crate::DisambiguationEngine

use sraa_ir::{Function, InstKind, Value};

/// If `p` is a derived pointer `base + offset`, returns `(base, offset)`.
/// Copies around the `gep` are looked through.
pub fn derived_pointer(func: &Function, p: Value) -> Option<(Value, Value)> {
    match &func.inst(func.strip_copies(p)).kind {
        InstKind::Gep { base, offset } => Some((*base, *offset)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DisambiguationEngine, EngineConfig};
    use sraa_ir::{FuncId, Module};

    fn analyzed(src: &str) -> (Module, DisambiguationEngine) {
        let mut m = sraa_minic::compile(src).unwrap();
        let lt = DisambiguationEngine::build(&mut m, EngineConfig::default());
        sraa_ir::verify(&m).unwrap();
        (m, lt)
    }

    /// Finds the (unique) load and store addresses of a function, in
    /// textual order — convenient handles on `v[i]`-style expressions.
    fn memory_addresses(m: &Module, name: &str) -> (FuncId, Vec<Value>) {
        let fid = m.function_by_name(name).unwrap();
        let f = m.function(fid);
        let mut out = Vec::new();
        for b in f.block_ids() {
            for (_, d) in f.block_insts(b) {
                match &d.kind {
                    InstKind::Load { ptr } => out.push(*ptr),
                    InstKind::Store { ptr, .. } => out.push(*ptr),
                    _ => {}
                }
            }
        }
        (fid, out)
    }

    #[test]
    fn figure1a_ins_sort_disambiguates_vi_vj() {
        // Paper Figure 1 (a): inside the inner loop, i < j always, so v[i]
        // and v[j] never alias — the motivating example.
        let (m, lt) = analyzed(
            r#"
            void ins_sort(int* v, int N) {
                int i; int j;
                for (i = 0; i < N - 1; i++) {
                    for (j = i + 1; j < N; j++) {
                        if (v[i] > v[j]) {
                            int tmp = v[i];
                            v[i] = v[j];
                            v[j] = tmp;
                        }
                    }
                }
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "ins_sort");
        let f = m.function(fid);
        // All addresses are geps off v with offsets i or j; every (i-offset,
        // j-offset) pair must be disambiguated.
        let mut checked = 0;
        for (k, &a) in addrs.iter().enumerate() {
            for &b in addrs.iter().skip(k + 1) {
                let (Some((_, xa)), Some((_, xb))) = (derived_pointer(f, a), derived_pointer(f, b))
                else {
                    continue;
                };
                // Same index variable (i vs i) must NOT be disambiguated;
                // i vs j must.
                let same = f.strip_copies(xa) == f.strip_copies(xb);
                if same {
                    assert!(!lt.no_alias(f, fid, a, b), "v[i] vs v[i] must may-alias");
                } else {
                    assert!(lt.no_alias(f, fid, a, b), "v[i] vs v[j] must be disambiguated");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 4, "several i/j pairs should have been checked: {checked}");
    }

    #[test]
    fn figure1b_partition_disambiguates_vi_vj() {
        // Paper Figure 1 (b): i < j is established by the `if (i >= j) break`.
        let (m, lt) = analyzed(
            r#"
            void partition(int* v, int N) {
                int i; int j; int p; int tmp;
                p = v[N / 2];
                i = 0; j = N - 1;
                while (1) {
                    while (v[i] < p) i++;
                    while (p < v[j]) j--;
                    if (i >= j) break;
                    tmp = v[i];
                    v[i] = v[j];
                    v[j] = tmp;
                    i++; j--;
                }
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "partition");
        let f = m.function(fid);
        // The three accesses after the break check: v[i] (load), v[i]
        // (store), v[j] (load+store). Find a disambiguated i/j pair.
        let mut disambiguated = 0;
        for (k, &a) in addrs.iter().enumerate() {
            for &b in addrs.iter().skip(k + 1) {
                if lt.no_alias(f, fid, a, b) {
                    disambiguated += 1;
                }
            }
        }
        assert!(
            disambiguated >= 2,
            "the post-break v[i]/v[j] accesses must be disambiguated: {disambiguated}"
        );
    }

    #[test]
    fn pointer_walk_criterion1() {
        // for (pi = p; pi < pe; pi++): inside the loop pi < pe (σ on the
        // comparison) — criterion 1 disambiguates *pi from *pe.
        let (m, lt) = analyzed(
            r#"
            int f(int* p, int n) {
                int* pe = p + n;
                int s = 0;
                for (int* pi = p; pi < pe; pi++) { s += *pi; *pe = s; }
                return s;
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "f");
        let f = m.function(fid);
        assert_eq!(addrs.len(), 2);
        assert!(lt.no_alias(f, fid, addrs[0], addrs[1]), "pi < pe inside the loop body ⇒ no alias");
    }

    #[test]
    fn base_vs_positive_offset() {
        // p and p + n with n > 0: p ∈ LT(p+n) by rule 2 on the gep.
        let (m, lt) = analyzed(
            r#"
            int f(int* p, int n) {
                if (n > 0) {
                    int* q = p + n;
                    *q = 1;
                    *p = 2;
                    return *q;
                }
                return 0;
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "f");
        let f = m.function(fid);
        // q vs p (first store vs second store).
        assert!(lt.no_alias(f, fid, addrs[0], addrs[1]), "p < p+n for n > 0");
    }

    #[test]
    fn unknown_offsets_not_disambiguated() {
        // p + a vs p + b with unrelated a, b: must stay may-alias.
        let (m, lt) = analyzed(
            r#"
            int f(int* p, int a, int b) {
                int x = p[a];
                int y = p[b];
                return x + y;
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "f");
        let f = m.function(fid);
        assert!(!lt.no_alias(f, fid, addrs[0], addrs[1]), "a and b are unrelated");
    }

    #[test]
    fn same_pointer_is_never_no_alias() {
        let (m, lt) = analyzed("int f(int* p) { return *p + *p; }");
        let (fid, addrs) = memory_addresses(&m, "f");
        let f = m.function(fid);
        assert!(!lt.no_alias(f, fid, addrs[0], addrs[1]));
        assert!(!lt.no_alias(f, fid, addrs[0], addrs[0]));
    }

    #[test]
    fn malloc_pair_not_handled_by_lt() {
        // The paper is explicit: p1 = malloc(); p2 = malloc() is NOT
        // disambiguated by the less-than analysis (BasicAA's job).
        let (m, lt) = analyzed(
            r#"
            int main() {
                int* p = malloc(4);
                int* q = malloc(4);
                *p = 1; *q = 2;
                return *p;
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "main");
        let f = m.function(fid);
        assert!(!lt.no_alias(f, fid, addrs[0], addrs[1]));
    }

    #[test]
    fn constant_offsets_not_handled_by_lt() {
        // p+1 vs p+2: the paper's §3.6 says LT cannot disambiguate these
        // (range-based analyses do).
        let (m, lt) = analyzed(
            r#"
            int f(int* p) {
                int* p1 = p + 1;
                int* p2 = p + 2;
                *p1 = 1; *p2 = 2;
                return *p1;
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "f");
        let f = m.function(fid);
        assert!(!lt.no_alias(f, fid, addrs[0], addrs[1]));
    }

    #[test]
    fn interprocedural_relation_via_pseudo_phi() {
        // g's parameters inherit i < j from the unique call site.
        let (m, lt) = analyzed(
            r#"
            int g(int* v, int i, int j) { return v[i] + v[j]; }
            int f(int* v, int n) {
                int s = 0;
                for (int i = 0; i + 1 < n; i++) s += g(v, i, i + 1);
                return s;
            }
            "#,
        );
        let (fid, addrs) = memory_addresses(&m, "g");
        let f = m.function(fid);
        assert_eq!(addrs.len(), 2);
        assert!(
            lt.no_alias(f, fid, addrs[0], addrs[1]),
            "i < i+1 flows into g's formals through the pseudo-φ"
        );
    }

    #[test]
    fn lt_sets_stay_small() {
        let (_, lt) = analyzed(
            r#"
            int f(int* v, int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = i + 1; j < n; j++)
                        s += v[i] * v[j];
                return s;
            }
            "#,
        );
        let hist = lt.size_histogram();
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        let small: usize = hist.iter().filter(|(n, _)| *n <= 4).map(|(_, c)| c).sum();
        assert!(
            small as f64 / total as f64 > 0.8,
            "most LT sets should be tiny, got histogram {hist:?}"
        );
    }
}
