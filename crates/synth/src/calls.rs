//! Call-heavy workloads — the population the interprocedural summary
//! layer is measured on.
//!
//! The paper's analysis is intraprocedural, so none of its figures
//! contain programs whose disambiguation hinges on facts crossing a call
//! boundary. This family fills that gap: every member funnels its
//! pointer arithmetic through helper functions (bounds-check helpers,
//! chained helpers, recursive partitions), so the intraprocedural
//! engine must answer *may-alias* for the interesting pairs while
//! `Contextuality::Summaries` (`sraa eval --interproc`) proves them
//! no-alias. The gap between the two modes is exactly the summary
//! layer's win, which makes these workloads the corpus that
//! `tests/work_counters.rs` pins the summary layer's no-alias counts,
//! solves and cache/store hits on.
//!
//! Three archetypes rotate through the suite:
//!
//! * **bounds** — an `advance(p, k)`-style helper returns `p + k` under a
//!   `k > 0` guard; callers store through the result and through `p`
//!   (the classic helper-function bounds check);
//! * **chained** — helpers calling helpers (`step` → `advance`), so a
//!   caller's fact needs two summary hops, exercising the bottom-up
//!   propagation order;
//! * **partition** — a recursive pointer partition (`part(lo + 1,
//!   n - 1)`), exercising the per-SCC fixpoint.
//!
//! All programs are deterministic, compile under `sraa-minic`, and run
//! trap-free under the IR interpreter (every access stays in bounds), so
//! the dynamic-soundness property tests can execute them.

use crate::Workload;
use std::fmt::Write;

/// Size of every array a workload touches; all helper-derived pointers
/// stay strictly inside it.
const N: usize = 32;

/// Generates the `n`-program call-heavy suite. Program `k` replicates
/// its archetype's caller `1 + k / 3` times, so sizes grow linearly.
pub fn call_suite(n: usize) -> Vec<Workload> {
    (0..n)
        .map(|k| {
            let replicas = 1 + k / 3;
            match k % 3 {
                0 => bounds_workload(k, replicas),
                1 => chained_workload(k, replicas),
                _ => partition_workload(k, replicas),
            }
        })
        .collect()
}

fn header(out: &mut String) {
    // The shared helper set: summaries are per function, so every
    // caller of `advance` inherits `p < advance(p, k)` from one solve.
    let _ = writeln!(out, "int* advance(int* p, int k) {{");
    let _ = writeln!(out, "    if (k > 0) {{ return p + k; }}");
    let _ = writeln!(out, "    return p + 1;");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
    let _ = writeln!(out, "int* step(int* p) {{");
    let _ = writeln!(out, "    return advance(p, 1);");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
    let _ = writeln!(out, "int* part(int* lo, int n) {{");
    let _ = writeln!(out, "    if (n <= 0) {{ return lo + 1; }}");
    let _ = writeln!(out, "    return part(lo + 1, n - 1);");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
    let _ = writeln!(out, "int next(int i) {{");
    let _ = writeln!(out, "    return i + 1;");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
}

/// Helper-function bounds check: the caller indexes through the helper's
/// result while also writing through the base pointer.
fn bounds_workload(k: usize, replicas: usize) -> Workload {
    let mut out = String::new();
    header(&mut out);
    let mut callers = Vec::new();
    for r in 0..replicas {
        let name = format!("bounds_{r}");
        let _ = writeln!(out, "int {name}(int* v, int n) {{");
        let _ = writeln!(out, "    int acc = 0;");
        let _ = writeln!(out, "    for (int i = 1; i + 4 < n; i++) {{");
        let _ = writeln!(out, "        int* q = advance(v, i);");
        let _ = writeln!(out, "        *q = i;");
        let _ = writeln!(out, "        *v = acc;");
        let _ = writeln!(out, "        acc += *q + next(i);");
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "    return acc;");
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
        callers.push(name);
    }
    finish(out, &callers, format!("calls{k:03}_bounds"))
}

/// Chained helpers: the caller's fact needs `step`'s summary, which
/// itself needs `advance`'s — two bottom-up hops.
fn chained_workload(k: usize, replicas: usize) -> Workload {
    let mut out = String::new();
    header(&mut out);
    let mut callers = Vec::new();
    for r in 0..replicas {
        let name = format!("chained_{r}");
        let _ = writeln!(out, "int {name}(int* v, int n) {{");
        let _ = writeln!(out, "    int acc = 0;");
        let _ = writeln!(out, "    int* q1 = step(v);");
        let _ = writeln!(out, "    int* q2 = step(q1);");
        let _ = writeln!(out, "    int* q3 = step(q2);");
        let _ = writeln!(out, "    *v = n;");
        let _ = writeln!(out, "    *q1 = n + 1;");
        let _ = writeln!(out, "    *q2 = n + 2;");
        let _ = writeln!(out, "    *q3 = n + 3;");
        let _ = writeln!(out, "    acc = *v + *q1 + *q2 + *q3;");
        let _ = writeln!(out, "    return acc;");
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
        callers.push(name);
    }
    finish(out, &callers, format!("calls{k:03}_chained"))
}

/// Recursive partition: the helper's summary needs the per-SCC fixpoint
/// (it reads its own summary at the recursive call site).
fn partition_workload(k: usize, replicas: usize) -> Workload {
    let mut out = String::new();
    header(&mut out);
    let mut callers = Vec::new();
    for r in 0..replicas {
        let name = format!("partition_{r}");
        let _ = writeln!(out, "int {name}(int* v, int n) {{");
        let _ = writeln!(out, "    int* mid = part(v, n / 2);");
        let _ = writeln!(out, "    int acc = 0;");
        let _ = writeln!(out, "    *v = n;");
        let _ = writeln!(out, "    *mid = n + 1;");
        let _ = writeln!(out, "    acc = *v + *mid;");
        let _ = writeln!(out, "    int* hi = part(mid, n / 4);");
        let _ = writeln!(out, "    *hi = acc;");
        let _ = writeln!(out, "    return acc + *hi;");
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
        callers.push(name);
    }
    finish(out, &callers, format!("calls{k:03}_partition"))
}

fn finish(mut out: String, callers: &[String], name: String) -> Workload {
    let _ = writeln!(out, "int main() {{");
    let _ = writeln!(out, "    int a[{N}];");
    let _ = writeln!(out, "    for (int i = 0; i < {N}; i++) a[i] = i;");
    let _ = writeln!(out, "    int acc = 0;");
    for c in callers {
        // n = 16: every helper-derived pointer stays well inside a[32]
        // (advance caps at v + 15, part at v + 17).
        let _ = writeln!(out, "    acc += {c}(a, 16);");
    }
    let _ = writeln!(out, "    return acc % 256;");
    let _ = writeln!(out, "}}");
    Workload { name, source: out }
}

/// A wide call graph: `width` independent straight-line helpers of
/// ~`depth` additions each, one recursive helper calling the first of
/// them, and a `main` calling all of them — many small components plus
/// one recursive one, the shape the per-component summary solve sees on
/// large modules.
pub fn wide_module(width: usize, depth: usize) -> Workload {
    let mut s = String::new();
    for i in 0..width {
        let _ = writeln!(s, "int wf{i}(int a, int b) {{");
        let _ = writeln!(s, "    int x0 = a + 1;");
        let _ = writeln!(s, "    int x1 = x0 + b;");
        for j in 2..depth {
            let _ = writeln!(s, "    int x{j} = x{} + {};", j - 1, (i + j + 3) % 9 + 1);
        }
        let _ = writeln!(s, "    return x{} + 1;", depth - 1);
        let _ = writeln!(s, "}}");
    }
    let _ = writeln!(s, "int rec(int i, int n) {{");
    let _ = writeln!(s, "    if (n <= 0) {{ return i + 1; }}");
    let _ = writeln!(s, "    return rec(wf0(i, 1), n - 1);");
    let _ = writeln!(s, "}}");
    s.push_str("int main() {\n    int s = 0;\n");
    for i in 0..width {
        let _ = writeln!(s, "    s = s + wf{i}({}, {});", i % 5, i % 3 + 1);
    }
    s.push_str("    s = s + rec(1, 3);\n    return s;\n}\n");
    Workload { name: format!("wide_{width}x{depth}"), source: s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic_with_unique_names() {
        let a = call_suite(9);
        let b = call_suite(9);
        assert_eq!(a, b);
        let names: std::collections::HashSet<_> = a.iter().map(|w| &w.name).collect();
        assert_eq!(names.len(), 9);
        // All three archetypes appear.
        for tag in ["bounds", "chained", "partition"] {
            assert!(a.iter().any(|w| w.name.ends_with(tag)), "missing {tag}");
        }
    }

    #[test]
    fn all_members_compile_and_run_trap_free() {
        for w in call_suite(9) {
            let m = sraa_minic::compile(&w.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", w.name, w.source));
            let mut interp = sraa_ir::Interpreter::new(&m).with_step_limit(5_000_000);
            interp
                .run("main", &[])
                .unwrap_or_else(|e| panic!("{} must not trap: {e:?}\n{}", w.name, w.source));
        }
    }

    #[test]
    fn sizes_grow_with_the_index() {
        let ws = call_suite(12);
        assert!(ws[11].source.len() > ws[2].source.len());
    }
}
