//! Seeded inputs: the eval corpus, the edit stream and the query mix.
//!
//! The seed selects the Csmith draw, the edit sequence and the query
//! mix and order; the same seed gives byte-identical inputs. The library
//! under test only ever receives the generated sources and queries.

use crate::rng::Rng;
use sraa_alias::AaEval;
use sraa_ir::{CallGraph, FuncId, Module, Value};
use sraa_synth::{call_suite, csmith_generate, test_suite, CsmithConfig, Workload};

/// Stream tags: one independent random stream per seeded choice.
const TAG_CSMITH: u64 = 1;
const TAG_EDITS: u64 = 2;
const TAG_QUERIES: u64 = 3;
const TAG_EVAL_ORDER: u64 = 4;
const TAG_EDIT_ORDER: u64 = 5;

/// Endless visits of `0..len` in rounds, each round in a fresh seeded
/// order, so every index is visited equally often.
#[derive(Clone, Debug)]
pub struct Rounds {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Rounds {
    fn new(rng: Rng, len: usize) -> Rounds {
        Rounds { rng, order: (0..len).collect(), pos: len }
    }

    /// The order in which `eval_oneshot` visits its `len` modules.
    pub fn eval_order(seed: u64, len: usize) -> Rounds {
        Rounds::new(Rng::stream(seed, TAG_EVAL_ORDER), len)
    }

    /// The next index (`len > 0`).
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// The ROADMAP baseline corpus: `test_suite(26)` + `call_suite(10)`.
pub fn synth_corpus() -> Vec<Workload> {
    let mut out = test_suite(26);
    out.extend(call_suite(10));
    out
}

/// Csmith pointer-nesting depths drawn from (the paper's Figure 12 range).
pub const CSMITH_DEPTHS: std::ops::RangeInclusive<u8> = 2..=7;
/// Pool programs per depth; the seed draws [`CSMITH_PER_DEPTH`] of them.
pub const CSMITH_POOL_PER_DEPTH: u64 = 8;
/// Programs drawn per depth, so every draw has the same depth profile.
pub const CSMITH_PER_DEPTH: usize = 2;

/// Pool program `k` of `depth`: a Csmith-like program with helper calls.
pub fn csmith_entry(depth: u8, k: u64) -> Workload {
    csmith_generate(CsmithConfig {
        seed: u64::from(depth) * 100 + k,
        max_ptr_depth: depth,
        num_stmts: 60,
        helpers: 1 + (k % 2) as usize,
    })
}

/// The whole Csmith pool (every program any seed can draw).
pub fn csmith_pool() -> Vec<Workload> {
    CSMITH_DEPTHS
        .flat_map(|d| (0..CSMITH_POOL_PER_DEPTH).map(move |k| csmith_entry(d, k)))
        .collect()
}

/// The seed's Csmith draw: [`CSMITH_PER_DEPTH`] distinct pool programs per
/// depth.
pub fn csmith_draw(seed: u64) -> Vec<Workload> {
    let mut rng = Rng::stream(seed, TAG_CSMITH);
    let mut out = Vec::new();
    for depth in CSMITH_DEPTHS {
        let mut ks: Vec<u64> = (0..CSMITH_POOL_PER_DEPTH).collect();
        rng.shuffle(&mut ks);
        out.extend(ks[..CSMITH_PER_DEPTH].iter().map(|&k| csmith_entry(depth, k)));
    }
    out
}

/// The `eval_oneshot` corpus: the synth corpus plus the seed's Csmith draw.
pub fn eval_corpus(seed: u64) -> Vec<Workload> {
    let mut out = synth_corpus();
    out.extend(csmith_draw(seed));
    out
}

/// Number of body variants per editable function (besides the original).
pub const VARIANTS: usize = 2;
/// At most this many functions per module are edited, so the set of
/// module states (and with it the shared store) stays small.
pub const MAX_EDITABLE: usize = 4;

/// The `daemon_edit` modules: `call_suite(12)` plus three Csmith programs
/// with helpers.
pub fn edit_corpus() -> Vec<Workload> {
    let mut out = call_suite(12);
    out.extend([csmith_entry(3, 0), csmith_entry(5, 1), csmith_entry(7, 0)]);
    out
}

/// Which body a module is uploaded with: the original, or one function
/// replaced by one of its variants. At most one function differs from
/// the original, so a module has `1 + editable × VARIANTS` states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Every function as generated.
    Base,
    /// Editable function `func` carries variant `variant`.
    Edited {
        /// Index into [`EditModule::editable`].
        func: usize,
        /// Variant number, `0..VARIANTS`.
        variant: usize,
    },
}

/// A function whose body the edit stream rewrites.
#[derive(Clone, Debug)]
pub struct EditableFn {
    /// Function name.
    pub name: String,
    /// Byte offset just past the opening brace of its body.
    open: usize,
    /// Size of its reverse-reachability closure in the call graph
    /// (itself plus every transitive caller): the functions an edit of
    /// it must invalidate.
    pub closure: u32,
}

/// A module of the edit stream with its editable functions.
#[derive(Clone, Debug)]
pub struct EditModule {
    /// Module name on the daemon.
    pub name: String,
    base: String,
    /// The functions the stream edits.
    pub editable: Vec<EditableFn>,
    /// Functions in the module.
    pub num_functions: u32,
}

impl EditModule {
    /// Finds the function bodies of `w` and computes each one's
    /// invalidation closure from [`sraa_ir::callgraph`].
    pub fn new(w: &Workload) -> Result<EditModule, String> {
        let module = sraa_minic::compile(&w.source).map_err(|e| format!("{}: {e}", w.name))?;
        let bodies = function_bodies(&w.source);
        if bodies.len() != module.num_functions() {
            return Err(format!(
                "{}: found {} function bodies, the module has {} functions",
                w.name,
                bodies.len(),
                module.num_functions()
            ));
        }
        let n = bodies.len();
        let picks: Vec<usize> = if n <= MAX_EDITABLE {
            (0..n).collect()
        } else {
            (0..MAX_EDITABLE).map(|i| i * n / MAX_EDITABLE).collect()
        };
        let cg = CallGraph::build(&module);
        let mut editable = Vec::new();
        for i in picks {
            let (name, open) = bodies[i].clone();
            let fid = module.function_by_name(&name).ok_or(format!("{}: no `{name}`", w.name))?;
            editable.push(EditableFn { closure: reverse_closure(&cg, fid) as u32, name, open });
        }
        Ok(EditModule {
            name: w.name.clone(),
            base: w.source.clone(),
            editable,
            num_functions: n as u32,
        })
    }

    /// The module's source in `state`.
    pub fn source(&self, state: State) -> String {
        match state {
            State::Base => self.base.clone(),
            State::Edited { func, variant } => {
                let at = self.editable[func].open;
                let bound = 3 + 5 * variant;
                format!(
                    "{} for (int pbench_k = 0; pbench_k < {bound}; pbench_k++) {{ }}{}",
                    &self.base[..at],
                    &self.base[at..]
                )
            }
        }
    }

    /// Every state of the module, original first.
    pub fn states(&self) -> Vec<State> {
        let edits = (0..self.editable.len())
            .flat_map(|func| (0..VARIANTS).map(move |variant| State::Edited { func, variant }));
        std::iter::once(State::Base).chain(edits).collect()
    }

    /// The cache counters an upload must report, as `(hits, misses,
    /// invalidated)`, when it changes `changed` against the module's
    /// previous upload (`None`: same source again).
    pub fn expected_counts(&self, changed: Option<usize>) -> (u32, u32, u32) {
        let invalidated = changed.map_or(0, |f| self.editable[f].closure);
        (self.num_functions - invalidated, 0, invalidated)
    }
}

/// `(name, offset past '{')` of every top-level function body in MiniC
/// source, in source order.
fn function_bodies(src: &str) -> Vec<(String, usize)> {
    let mut depth = 0usize;
    let mut out = Vec::new();
    for (i, c) in src.bytes().enumerate() {
        match c {
            b'{' => {
                if depth == 0 {
                    if let Some(name) = header_name(&src[..i]) {
                        out.push((name, i + 1));
                    }
                }
                depth += 1;
            }
            b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    out
}

/// The function name of a header ending `... name(params)`.
fn header_name(before: &str) -> Option<String> {
    let before = before.trim_end().strip_suffix(')')?;
    let head = before[..before.rfind('(')?].trim_end();
    let start = head.rfind(|c: char| !(c.is_alphanumeric() || c == '_')).map_or(0, |i| i + 1);
    let name = &head[start..];
    (!name.is_empty()).then(|| name.to_string())
}

/// `f` plus every function that can transitively call it.
fn reverse_closure(cg: &CallGraph, f: FuncId) -> usize {
    let mut seen = vec![false; cg.num_functions()];
    let mut stack = vec![f];
    seen[f.index()] = true;
    let mut count = 0;
    while let Some(g) = stack.pop() {
        count += 1;
        for &caller in cg.callers(g) {
            if !seen[caller.index()] {
                seen[caller.index()] = true;
                stack.push(caller);
            }
        }
    }
    count
}

/// One upload of the edit stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Upload {
    /// Index into the module list.
    pub module: usize,
    /// The state uploaded.
    pub state: State,
    /// The editable function this upload changes against the module's
    /// previous upload; `None` for an unchanged re-upload.
    pub changed: Option<usize>,
}

/// The seeded, endless edit sequence. Modules are visited in rounds, in a
/// fresh seeded order each round. Each visit re-uploads the module
/// unchanged (1 in 10), or changes exactly one function body: the
/// original gets a variant, or an edited function gets another variant
/// or its original body back.
#[derive(Clone, Debug)]
pub struct EditStream {
    rng: Rng,
    rounds: Rounds,
    editable: Vec<usize>,
    states: Vec<State>,
}

impl EditStream {
    /// The stream for `seed`, starting from every module in its original
    /// state.
    pub fn new(seed: u64, modules: &[EditModule]) -> EditStream {
        EditStream {
            rng: Rng::stream(seed, TAG_EDITS),
            rounds: Rounds::new(Rng::stream(seed, TAG_EDIT_ORDER), modules.len()),
            editable: modules.iter().map(|m| m.editable.len()).collect(),
            states: vec![State::Base; modules.len()],
        }
    }

    /// The state every module was last uploaded in.
    pub fn states(&self) -> Vec<State> {
        self.states.clone()
    }

    /// The next upload.
    pub fn next_upload(&mut self) -> Upload {
        let module = self.rounds.next_index();
        let cur = self.states[module];
        let (state, changed) = if self.rng.below(10) == 0 {
            (cur, None)
        } else {
            match cur {
                State::Base => {
                    let func = self.rng.below(self.editable[module]);
                    (State::Edited { func, variant: self.rng.below(VARIANTS) }, Some(func))
                }
                State::Edited { func, .. } if self.rng.below(2) == 0 => (State::Base, Some(func)),
                State::Edited { func, variant } => {
                    let step = 1 + self.rng.below(VARIANTS - 1);
                    (State::Edited { func, variant: (variant + step) % VARIANTS }, Some(func))
                }
            }
        };
        self.states[module] = state;
        Upload { module, state, changed }
    }
}

/// A daemon query command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryKind {
    /// `no-alias` on one pointer pair.
    NoAlias,
    /// `lt` on one value pair.
    Lt,
    /// `pairs`: every no-alias pair of a function, streamed.
    Pairs,
    /// `eval`: the module's report.
    Eval,
}

impl QueryKind {
    /// Every kind, in metric order.
    pub const ALL: [QueryKind; 4] =
        [QueryKind::NoAlias, QueryKind::Lt, QueryKind::Pairs, QueryKind::Eval];

    /// The wire command.
    pub fn cmd(self) -> &'static str {
        match self {
            QueryKind::NoAlias => "no-alias",
            QueryKind::Lt => "lt",
            QueryKind::Pairs => "pairs",
            QueryKind::Eval => "eval",
        }
    }

    /// Occurrences in every block of 100 queries.
    pub fn per_hundred(self) -> usize {
        match self {
            QueryKind::NoAlias => 75,
            QueryKind::Lt => 15,
            QueryKind::Pairs => 8,
            QueryKind::Eval => 2,
        }
    }
}

/// One query of the mix. Values are indices into the e-SSA module the
/// daemon holds (the pipeline is deterministic, so the harness's own
/// build numbers them identically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Command.
    pub kind: QueryKind,
    /// Index into the module list.
    pub module: usize,
    /// Function queried (unused by `eval`).
    pub func: FuncId,
    /// First value (unused by `pairs`/`eval`).
    pub p1: Value,
    /// Second value (unused by `pairs`/`eval`).
    pub p2: Value,
}

/// The seeded, endless query mix over resident e-SSA modules: blocks of
/// 100 queries with exactly the [`QueryKind::per_hundred`] proportions,
/// shuffled per block; targets drawn uniformly.
#[derive(Clone, Debug)]
pub struct QueryStream {
    rng: Rng,
    block: Vec<QueryKind>,
    pos: usize,
    modules: usize,
    /// `(module, function, pointer values)` with at least two pointers.
    ptr_funcs: Vec<(usize, FuncId, Vec<Value>)>,
    /// `(module, function, typed values)` with at least two values.
    val_funcs: Vec<(usize, FuncId, Vec<Value>)>,
}

impl QueryStream {
    /// The stream for `seed` over `modules` (in e-SSA form).
    pub fn new(seed: u64, modules: &[&Module]) -> QueryStream {
        let mut ptr_funcs = Vec::new();
        let mut val_funcs = Vec::new();
        for (mi, m) in modules.iter().enumerate() {
            for (fid, f) in m.functions() {
                let ptrs = AaEval::pointer_values(m, fid);
                if ptrs.len() >= 2 {
                    ptr_funcs.push((mi, fid, ptrs));
                }
                let vals: Vec<Value> = f
                    .block_ids()
                    .flat_map(|b| f.block_insts(b).map(|(v, _)| v).collect::<Vec<_>>())
                    .filter(|&v| f.value_type(v).is_some())
                    .collect();
                if vals.len() >= 2 {
                    val_funcs.push((mi, fid, vals));
                }
            }
        }
        QueryStream {
            rng: Rng::stream(seed, TAG_QUERIES),
            block: Vec::new(),
            pos: 0,
            modules: modules.len(),
            ptr_funcs,
            val_funcs,
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        if self.pos == self.block.len() {
            self.block = QueryKind::ALL
                .iter()
                .flat_map(|&k| std::iter::repeat_n(k, k.per_hundred()))
                .collect();
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        let kind = self.block[self.pos];
        self.pos += 1;
        let zero = Value::from_index(0);
        let pool = match kind {
            QueryKind::Eval => {
                let module = self.rng.below(self.modules);
                return Query { kind, module, func: FuncId::from_index(0), p1: zero, p2: zero };
            }
            QueryKind::Lt => &self.val_funcs,
            QueryKind::NoAlias | QueryKind::Pairs => &self.ptr_funcs,
        };
        let (module, func, values) = &pool[self.rng.below(pool.len())];
        let i = self.rng.below(values.len());
        let j = (i + 1 + self.rng.below(values.len() - 1)) % values.len();
        Query { kind, module: *module, func: *func, p1: values[i], p2: values[j] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_bodies_are_found_with_their_names() {
        let src = "int g[4];\nint* adv(int* p, int k) { if (k > 0) { return p + k; } return p; }\n\
                   int main() { int a[8]; return *adv(a, 2); }\n";
        let bodies = function_bodies(src);
        let names: Vec<&str> = bodies.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["adv", "main"]);
        assert_eq!(&src[bodies[1].1 - 1..bodies[1].1], "{");
    }

    #[test]
    fn every_edit_module_state_compiles_and_differs() {
        for w in edit_corpus() {
            let m = EditModule::new(&w).unwrap();
            assert!(!m.editable.is_empty() && m.editable.len() <= MAX_EDITABLE);
            let mut seen = std::collections::BTreeSet::new();
            for s in m.states() {
                let src = m.source(s);
                sraa_minic::compile(&src).unwrap_or_else(|e| panic!("{} {s:?}: {e}", m.name));
                assert!(seen.insert(src), "{} {s:?}: duplicate source", m.name);
            }
        }
    }

    #[test]
    fn edit_stream_changes_at_most_one_function_per_upload() {
        let modules: Vec<EditModule> =
            edit_corpus().iter().map(|w| EditModule::new(w).unwrap()).collect();
        let mut stream = EditStream::new(5, &modules);
        let mut prev = vec![State::Base; modules.len()];
        let mut unchanged = 0;
        for _ in 0..1000 {
            let u = stream.next_upload();
            match (prev[u.module], u.state, u.changed) {
                (a, b, None) => {
                    assert_eq!(a, b);
                    unchanged += 1;
                }
                (State::Base, State::Edited { func, .. }, Some(f))
                | (State::Edited { func, .. }, State::Base, Some(f)) => assert_eq!(func, f),
                (
                    State::Edited { func: a, variant: va },
                    State::Edited { func: b, variant: vb },
                    Some(f),
                ) => {
                    assert!(a == b && b == f && va != vb)
                }
                other => panic!("illegal transition {other:?}"),
            }
            prev[u.module] = u.state;
        }
        assert!((60..=140).contains(&unchanged), "about 1 in 10 unchanged, got {unchanged}");
    }

    #[test]
    fn query_blocks_have_exact_proportions() {
        let mut corpus: Vec<Module> = synth_corpus()
            .iter()
            .take(6)
            .map(|w| sraa_minic::compile(&w.source).unwrap())
            .collect();
        for m in &mut corpus {
            sraa_essa::transform_module(m);
        }
        let refs: Vec<&Module> = corpus.iter().collect();
        let mut stream = QueryStream::new(9, &refs);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..300 {
            let q = stream.next_query();
            *counts.entry(q.kind).or_insert(0) += 1;
            if matches!(q.kind, QueryKind::NoAlias | QueryKind::Lt) {
                assert_ne!(q.p1, q.p2);
            }
        }
        for k in QueryKind::ALL {
            assert_eq!(counts[&k], 3 * k.per_hundred(), "{k:?}");
        }
    }
}
