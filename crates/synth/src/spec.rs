//! Synthetic SPEC CPU 2006 workload profiles.
//!
//! The paper's Figure 9/10 evaluate on 16 SPEC programs. Those sources are
//! proprietary, so each benchmark is modelled here as a *profile*: a mix
//! of homogeneous worker functions, each built from one archetype that
//! favours one analysis — the way real hot functions do (lbm's kernel is
//! one big stencil; sjeng is table lookups on many distinct objects).
//! `aa-eval` percentages compose over functions, which makes the mix
//! directly tunable against the paper's table. Archetypes:
//!
//! * `stencil`  — an unrolled `q1 = q0 + 1; q2 = q1 + 1; …` pointer kernel
//!   over an array parameter indexed by a loop variable: **LT-only** (the
//!   offsets are unknown to BA, ordered for LT by rule 2);
//! * `chain`    — `q1 = q0 + st; …` with a σ-proven-positive *variable*
//!   stride: LT-only, the lbm-style grid walk;
//! * `sorted`   — `i < j` nested sort loops (the paper's Figure 1): LT-only;
//! * `walk`     — `p < pe` pointer walks: LT-only (criterion 1);
//! * `sites`    — traffic over many distinct allocation sites at constant
//!   offsets: **BA-only**;
//! * `cstencil` — constant-offset chains over one local array: solved by
//!   *both* BA and LT (overlap — what makes dealII's BA+LT ≈ BA);
//! * `chase`    — pointers loaded from memory, opaque to every analysis;
//! * `calls`    — helpers invoked with provably ordered arguments,
//!   exercising the inter-procedural pseudo-φs.
//!
//! Absolute query counts differ from the paper's testbed (scaled down ~40×
//! to keep the harness in seconds); the profile table encodes the *shape*:
//! per-benchmark BA%, LT% and the BA+LT gain track the paper's Figure 9.

use crate::Workload;
use std::fmt::Write;

/// Workload profile: worker-function counts per archetype.
#[derive(Clone, Copy, Debug, Default)]
pub struct Profile {
    /// Benchmark name (paper Figure 9 order).
    pub name: &'static str,
    /// Variable-index unrolled stencil functions (LT-only, ~90%).
    pub stencil: usize,
    /// Variable-stride chain functions (LT-only, ~90%).
    pub chain: usize,
    /// `i < j` sort functions (LT-only, moderate).
    pub sorted: usize,
    /// Pointer-walk functions (LT-only, light).
    pub walk: usize,
    /// Allocation-site functions (BA-only, ~95%).
    pub sites: usize,
    /// Constant-offset stencil functions (both BA and LT — overlap).
    pub cstencil: usize,
    /// Opaque pointer-chasing functions (may-alias for BA and LT; the
    /// loaded slots are visible to the Andersen baseline).
    pub chase: usize,
    /// Externally-opaque chasing functions (`inptr()` buffers): may-alias
    /// for *every* analysis including CF — models I/O-fed pointers.
    pub xchase: usize,
    /// Ordered-argument caller functions (inter-procedural LT).
    pub calls: usize,
    /// Replication factor: the whole function set is cloned `scale` times
    /// (query volume grows linearly; only replica 0 runs in `main`).
    pub scale: usize,
}

/// The 16 profiles, ordered as the paper's Figure 9 (by query count).
pub fn profiles() -> Vec<Profile> {
    #[rustfmt::skip]
    let table = vec![
        Profile { name: "lbm",        stencil: 2,  chain: 2, sorted: 3, walk: 2, sites: 1,  cstencil: 0,  chase: 0, xchase: 2, calls: 1, scale: 1 },
        Profile { name: "mcf",        stencil: 1,  chain: 0, sorted: 0, walk: 1, sites: 2,  cstencil: 6,  chase: 4, xchase: 0, calls: 1, scale: 2 },
        Profile { name: "astar",      stencil: 0,  chain: 2, sorted: 1, walk: 0, sites: 11, cstencil: 13, chase: 3, xchase: 0, calls: 1, scale: 3 },
        Profile { name: "libquantum", stencil: 1,  chain: 0, sorted: 0, walk: 0, sites: 21, cstencil: 1,  chase: 3, xchase: 0, calls: 1, scale: 4 },
        Profile { name: "sjeng",      stencil: 0,  chain: 0, sorted: 1, walk: 0, sites: 17, cstencil: 0,  chase: 1, xchase: 0, calls: 1, scale: 6 },
        Profile { name: "milc",       stencil: 15, chain: 2, sorted: 2, walk: 1, sites: 9,  cstencil: 13, chase: 0, xchase: 4, calls: 1, scale: 8 },
        Profile { name: "soplex",     stencil: 1,  chain: 0, sorted: 3, walk: 0, sites: 3,  cstencil: 9,  chase: 4, xchase: 0, calls: 1, scale: 9 },
        Profile { name: "bzip2",      stencil: 1,  chain: 0, sorted: 3, walk: 2, sites: 0,  cstencil: 5,  chase: 0, xchase: 1, calls: 1, scale: 10 },
        Profile { name: "hmmer",      stencil: 1,  chain: 0, sorted: 0, walk: 0, sites: 2,  cstencil: 5,  chase: 7, xchase: 0, calls: 1, scale: 11 },
        Profile { name: "gobmk",      stencil: 15, chain: 1, sorted: 0, walk: 2, sites: 16, cstencil: 7,  chase: 0, xchase: 2, calls: 1, scale: 12 },
        Profile { name: "namd",       stencil: 0,  chain: 0, sorted: 0, walk: 2, sites: 6,  cstencil: 0,  chase: 3, xchase: 0, calls: 1, scale: 12 },
        Profile { name: "omnetpp",    stencil: 0,  chain: 0, sorted: 0, walk: 1, sites: 9,  cstencil: 0,  chase: 6, xchase: 0, calls: 1, scale: 13 },
        Profile { name: "h264ref",    stencil: 0,  chain: 0, sorted: 3, walk: 2, sites: 5,  cstencil: 0,  chase: 5, xchase: 0, calls: 1, scale: 13 },
        Profile { name: "perlbench",  stencil: 1,  chain: 0, sorted: 0, walk: 0, sites: 3,  cstencil: 4,  chase: 7, xchase: 0, calls: 1, scale: 14 },
        Profile { name: "dealII",     stencil: 0,  chain: 0, sorted: 3, walk: 2, sites: 18, cstencil: 16, chase: 1, xchase: 0, calls: 1, scale: 15 },
        Profile { name: "gcc",        stencil: 0,  chain: 0, sorted: 2, walk: 1, sites: 1,  cstencil: 1,  chase: 5, xchase: 0, calls: 1, scale: 24 },
    ];
    table
}

/// Number of derived pointers in the stencil/chain archetypes (pair
/// weight ≈ C(U+1, 2)).
const UNROLL: usize = 24;
/// Allocation sites per `sites` function.
const NSITES: usize = 5;
/// Opaque pointers per `chase` function.
const NCHASE: usize = 25;

/// Generates the synthetic program for one profile.
pub fn generate(p: &Profile) -> Workload {
    let mut out = String::new();
    fn emit_into(out: &mut String, s: &str) {
        out.push_str(s);
        out.push('\n');
    }
    macro_rules! emit {
        ($($arg:tt)*) => { emit_into(&mut out, &format!($($arg)*)) };
    }

    emit!("{}", "int table_a[64];");
    emit!("int table_b[256];");
    emit!("int* slots[32];");
    emit!("");
    emit!("int pair_sum(int* v, int lo, int hi) {{");
    emit!("    return v[lo] + v[hi];");
    emit!("}}");
    emit!("");

    let mut called: Vec<String> = Vec::new();
    for replica in 0..p.scale.max(1) {
        let mut names = Vec::new();
        for k in 0..p.stencil {
            names.push(emit_stencil(&mut out, replica, k));
        }
        for k in 0..p.chain {
            names.push(emit_chain(&mut out, replica, k));
        }
        for k in 0..p.sorted {
            names.push(emit_sorted(&mut out, replica, k));
        }
        for k in 0..p.walk {
            names.push(emit_walk(&mut out, replica, k));
        }
        for k in 0..p.sites {
            names.push(emit_sites(&mut out, replica, k));
        }
        for k in 0..p.cstencil {
            names.push(emit_cstencil(&mut out, replica, k));
        }
        for k in 0..p.chase {
            names.push(emit_chase(&mut out, replica, k));
        }
        for k in 0..p.xchase {
            names.push(emit_xchase(&mut out, replica, k));
        }
        for k in 0..p.calls {
            names.push(emit_calls(&mut out, replica, k));
        }
        if replica == 0 {
            called = names;
        }
    }

    emit!("int main() {{");
    emit!("    for (int i = 0; i < 32; i++) slots[i] = &table_b[i * 8];");
    emit!("    int acc = 0;");
    for name in &called {
        emit!("    acc += {name}(table_a, 60);");
    }
    emit!("    return acc % 256;");
    emit!("}}");

    Workload { name: p.name.to_string(), source: out }
}

/// Unrolled variable-index stencil: `q0 = v + i; q1 = q0 + 1; …` — BA sees
/// one object with unknown offsets, LT orders the whole chain.
fn emit_stencil(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("stencil_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = 0;");
    let _ = writeln!(out, "    for (int i = 0; i + {} < n; i++) {{", UNROLL + 1);
    let _ = writeln!(out, "        int* q0 = v + i;");
    for l in 1..=UNROLL {
        let _ = writeln!(out, "        int* q{l} = q{} + 1;", l - 1);
    }
    let _ = writeln!(out, "        *q0 = *q{} + *q{};", UNROLL / 2, UNROLL);
    let _ = writeln!(out, "        acc += *q1;");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// Variable-stride chain guarded by `st > 0`: the σ-refined range makes
/// every link strictly increasing.
fn emit_chain(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("chain_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = 0;");
    let _ = writeln!(out, "    int st = n % 2 + 1;");
    let _ = writeln!(out, "    if (st > 0) {{");
    let _ = writeln!(out, "        int* q1 = v + st;");
    for l in 2..=UNROLL {
        let _ = writeln!(out, "        int* q{l} = q{} + st;", l - 1);
    }
    let _ = writeln!(out, "        acc += *q1 + *q{} + *q{};", UNROLL / 2, UNROLL / 2 + 1);
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// The paper's Figure 1 (a) shape: nested `i < j` loops over one array.
fn emit_sorted(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("sorted_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    for l in 0..3 {
        let _ = writeln!(
            out,
            "    for (int s{l} = 0; s{l} < n - 1; s{l}++) \
             for (int t{l} = s{l} + 1; t{l} < n; t{l}++) \
             if (v[s{l}] > v[t{l}]) {{ int tmp = v[s{l}]; v[s{l}] = v[t{l}]; v[t{l}] = tmp; }}"
        );
    }
    let _ = writeln!(out, "    return v[0];");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// `for (pi = v; pi < pe; pi++)` pointer walks.
fn emit_walk(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("walk_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = 0;");
    for l in 0..4 {
        let _ = writeln!(
            out,
            "    {{ int* pe{l} = v + n; \
             for (int* pi{l} = v; pi{l} < pe{l}; pi{l}++) \
             {{ acc += *pi{l}; *pe{l} = acc; }} }}"
        );
    }
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// Many distinct allocation sites with constant-offset traffic.
fn emit_sites(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("sites_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = n;");
    for s in 0..NSITES {
        let _ = writeln!(out, "    int loc{s}[16];");
        let _ = writeln!(out, "    int* heap{s} = malloc(16);");
        let _ = writeln!(
            out,
            "    loc{s}[{}] = acc + {s}; heap{s}[{}] = loc{s}[{}] * 2; \
             heap{s}[{}] = heap{s}[{}] + 1; acc += heap{s}[{}];",
            s % 16,
            (s + 1) % 16,
            s % 16,
            (s + 2) % 16,
            (s + 1) % 16,
            (s + 2) % 16,
        );
    }
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// Constant-offset chain over one local array: disambiguated by *both* BA
/// (same object, distinct constant offsets) and LT (rule 2) — overlap.
fn emit_cstencil(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("cstencil_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int buf[{}];", UNROLL + 2);
    let _ = writeln!(out, "    int* q0 = &buf[0];");
    for l in 1..=UNROLL {
        let _ = writeln!(out, "    int* q{l} = q{} + 1;", l - 1);
    }
    let _ = writeln!(out, "    *q0 = n; *q{} = n + 1;", UNROLL);
    let _ = writeln!(out, "    return *q{} + v[0];", UNROLL / 2);
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// Opaque pointers loaded from a global slot table.
fn emit_chase(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("chase_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = v[0];");
    for c in 0..NCHASE {
        // Variable slot index: the slot geps stay mutually may-alias even
        // for BA (unknown offsets into one global object).
        let _ = writeln!(out, "    int* ch{c} = slots[(n + {c}) % 32];");
        let _ = writeln!(out, "    acc += ch{c}[n % 4];");
    }
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// Externally-opaque pointers: `inptr()` models pointers handed in by the
/// outside world (I/O buffers, library returns) — every analysis,
/// including the Andersen baseline, must answer may-alias.
fn emit_xchase(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("xchase_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = v[0];");
    for c in 0..NCHASE * 2 {
        let _ = writeln!(out, "    int* xh{c} = inptr();");
        let _ = writeln!(out, "    acc += xh{c}[n % 4];");
    }
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// Calls `pair_sum` with arguments ordered at every site.
fn emit_calls(out: &mut String, r: usize, k: usize) -> String {
    let name = format!("calls_r{r}_{k}");
    let _ = writeln!(out, "int {name}(int* v, int n) {{");
    let _ = writeln!(out, "    int acc = 0;");
    let _ = writeln!(out, "    for (int c = 0; c + 1 < n; c++) acc += pair_sum(v, c, c + 1);");
    let _ = writeln!(out, "    for (int d = 0; d + 2 < n; d++) acc += pair_sum(v, d, d + 2);");
    let _ = writeln!(out, "    return acc;");
    let _ = writeln!(out, "}}");
    out.push('\n');
    name
}

/// All 16 synthetic SPEC workloads.
pub fn all() -> Vec<Workload> {
    profiles().iter().map(generate).collect()
}

/// Generates one workload by benchmark name (`"lbm"`, …, `"gcc"`).
pub fn generate_by_name(name: &str) -> Option<Workload> {
    profiles().iter().find(|p| p.name == name).map(generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_compile_and_run() {
        for w in all() {
            let m = sraa_minic::compile(&w.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", w.name, w.source));
            let mut interp = sraa_ir::Interpreter::new(&m).with_step_limit(50_000_000);
            interp.run("main", &[]).unwrap_or_else(|e| panic!("{} must not trap: {e:?}", w.name));
        }
    }

    #[test]
    fn sixteen_profiles_in_paper_order() {
        let ps = profiles();
        assert_eq!(ps.len(), 16);
        assert_eq!(ps[0].name, "lbm");
        assert_eq!(ps[15].name, "gcc");
    }

    #[test]
    fn query_counts_grow_with_the_table() {
        let q = |name: &str| {
            let w = generate_by_name(name).unwrap();
            let m = sraa_minic::compile(&w.source).unwrap();
            num_queries(&m)
        };
        let first = q("lbm");
        let last = q("gcc");
        assert!(last > first * 10, "gcc must be much bigger than lbm: {first} vs {last}");
    }

    fn num_queries(m: &sraa_ir::Module) -> u64 {
        let mut total = 0u64;
        for (_, f) in m.functions() {
            let n = f
                .block_ids()
                .flat_map(|b| {
                    f.block_insts(b)
                        .filter(|(_, d)| d.ty.is_some_and(sraa_ir::Type::is_ptr))
                        .map(|_| ())
                        .collect::<Vec<_>>()
                })
                .count() as u64;
            total += n * (n - 1) / 2;
        }
        total
    }
}
