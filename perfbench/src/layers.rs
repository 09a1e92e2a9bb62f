//! The traced forms of the library calls an op makes, one span per
//! layer call. Each function makes the same public calls, in the same
//! order, as the untraced path it mirrors, and produces the same output.

use crate::metrics::Counters;
use crate::trace::Tracer;
use sraa_alias::{
    AaEval, AliasAnalysis, AndersenAnalysis, BasicAliasAnalysis, Combined, PentagonAa,
    SteensgaardAnalysis, StrictInequalityAa,
};
use sraa_core::{DisambiguationEngine, EngineConfig, SharedSummaryStore, SummaryCache};
use sraa_ir::{Module, ModuleStats};
use std::fmt::Write;

/// The engine configuration of `sraa eval --interproc` (default jobs).
pub fn eval_config() -> EngineConfig {
    EngineConfig::default().with_summaries()
}

/// The untraced one-shot op: what `sraa eval --interproc file.c` runs.
pub fn eval_report(source: &str) -> Result<String, String> {
    let mut module = sraa_minic::compile(source).map_err(|e| e.to_string())?;
    let lt = StrictInequalityAa::with_engine_config(&mut module, eval_config());
    Ok(sraa_alias::render_eval(&module, &lt))
}

/// `sraa_minic::compile` in a `minic` span.
pub fn compile(tr: &mut Tracer, c: &mut Counters, source: &str) -> Result<Module, String> {
    let m = tr.span("minic", || sraa_minic::compile(source)).map_err(|e| e.to_string())?;
    c.add("minic.bytes", source.len() as f64);
    c.add("minic.insts", m.functions().map(|(_, f)| f.num_insts()).sum::<usize>() as f64);
    Ok(m)
}

/// `sraa_essa::transform_module` in an `essa` span.
pub fn essa(tr: &mut Tracer, c: &mut Counters, m: &mut Module) -> sraa_range::RangeAnalysis {
    let (ranges, stats) = tr.span("essa", || sraa_essa::transform_module(m));
    c.add("essa.sigmas", stats.sigma_copies as f64);
    ranges
}

/// An engine build in a `core.engine` span. The engine times its own
/// summary phase and fixpoint ([`sraa_core::SolveStats`]); those become
/// the child spans `core.summaries` (at the start of the call) and
/// `core.solve` (at its end), so the engine span's self time is the
/// rest: variable interning and constraint generation.
pub fn engine(
    tr: &mut Tracer,
    c: &mut Counters,
    build: impl FnOnce() -> DisambiguationEngine,
) -> DisambiguationEngine {
    let id = tr.begin("core.engine");
    let engine = build();
    tr.end(id);
    let (start, end) = (tr.spans()[id].start, tr.spans()[id].end);
    let s = engine.stats();
    tr.record("core.summaries", start, (start + s.summary_build_ns).min(end), id);
    tr.record("core.solve", end.saturating_sub(s.final_solve_ns).max(start), end, id);
    c.add("solve.constraints", s.constraints as f64);
    c.add("solve.pops", s.pops as f64);
    c.add("summaries.solves", engine.summaries().map_or(0, |x| x.stats.solves) as f64);
    c.add("cache.hits", f64::from(s.cache_hits));
    c.add("cache.misses", f64::from(s.cache_misses));
    c.add("cache.invalidated", f64::from(s.cache_invalidated));
    c.add("store.hits", f64::from(s.store_hits));
    c.add("store.misses", f64::from(s.store_misses));
    engine
}

/// `render_eval`, decomposed: the same analyses built in the same order,
/// each `aa-eval` column run as its own pass, formatted identically. The
/// LT column's pair queries are the engine's query layer.
pub fn render(
    tr: &mut Tracer,
    c: &mut Counters,
    module: &Module,
    lt: &StrictInequalityAa,
) -> String {
    let id = tr.begin("alias.render");
    let mut out = String::new();
    {
        let ba = tr.span("alias.ba.build", || BasicAliasAnalysis::new(module));
        let cf = tr.span("alias.cf.build", || AndersenAnalysis::new(module));
        let st = tr.span("alias.st.build", || SteensgaardAnalysis::new(module));
        let pt = tr.span("alias.pt.build", || PentagonAa::on_prepared(module));
        let ba_lt = tr.span("alias.ba.build", || {
            Combined::new(vec![Box::new(BasicAliasAnalysis::new(module)), Box::new(lt.clone())])
        });
        let stats = ModuleStats::compute(module);
        let queries = AaEval::num_queries(module);
        writeln!(
            out,
            "{} function(s), {} instruction(s), {} queries",
            stats.functions, stats.instructions, queries
        )
        .expect("String write");
        writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10} {:>8}",
            "analysis", "no-alias", "may", "must", "%no"
        )
        .expect("String write");
        let columns: [(&'static str, &dyn AliasAnalysis); 6] = [
            ("alias.ba.query", &ba),
            ("alias.lt.query", lt),
            ("alias.cf.query", &cf),
            ("alias.st.query", &st),
            ("alias.pt.query", &pt),
            ("alias.ba_lt.query", &ba_lt),
        ];
        let mut ba_definite = 0;
        for (span, analysis) in columns {
            let at = tr.mark();
            let s = tr.span(span, || AaEval::run(module, &[analysis])).remove(0);
            if span == "alias.ba.query" {
                ba_definite = s.no_alias + s.must_alias;
            } else if span == "alias.lt.query" {
                // The LT column is all pair queries: the query layer's
                // cost per call.
                let sp = &tr.spans()[at];
                c.add("query.ns", (sp.end - sp.start) as f64);
                c.add("query.timed_calls", queries as f64);
            }
            writeln!(
                out,
                "{:<8} {:>10} {:>10} {:>10} {:>7.2}%",
                s.name,
                s.no_alias,
                s.may_alias,
                s.must_alias,
                s.no_alias_rate()
            )
            .expect("String write");
        }
        // The LT column asks every pair; BA+LT asks LT only where BA
        // cannot decide (`p1 == p2` never occurs among distinct values).
        c.add("alias.queries", queries as f64);
        c.add("query.calls", (2 * queries - ba_definite) as f64);
        c.add("query.memo", lt.engine().cached_queries() as f64);
        c.add("query.memo_samples", 1.0);
    }
    tr.end(id);
    out
}

/// What a daemon upload reports about summary reuse:
/// `(hits, misses, invalidated, store_hits, store_misses, store_published)`.
pub type UploadCounts = (i64, i64, i64, i64, i64, i64);

/// The calls the daemon's `upload` command makes, on identical inputs
/// and cache/store state: compile, store refresh, e-SSA, the engine
/// build against the prior summaries and the store, the summary export,
/// and the eval report. Returns the counters the daemon would reply
/// with and the summaries to use as the next prior.
pub fn upload(
    tr: &mut Tracer,
    c: &mut Counters,
    source: &str,
    prior: Option<&SummaryCache>,
    store: &SharedSummaryStore,
) -> Result<(UploadCounts, SummaryCache), String> {
    let mut m = compile(tr, c, source)?;
    tr.span("core.store", || store.refresh()).map_err(|e| format!("store refresh: {e}"))?;
    let ranges = essa(tr, c, &mut m);
    let e = engine(tr, c, || {
        DisambiguationEngine::on_prepared_with_cache_and_store(
            &m,
            &ranges,
            EngineConfig::default(),
            prior,
            Some(store),
        )
    });
    let s = e.stats();
    let counts = (
        i64::from(s.cache_hits),
        i64::from(s.cache_misses),
        i64::from(s.cache_invalidated),
        i64::from(s.store_hits),
        i64::from(s.store_misses),
        i64::from(s.store_published),
    );
    let cache = tr.span("core.summaries", || e.export_summary_cache(&m).unwrap_or_default());
    let lt = StrictInequalityAa::from_engine(e);
    render(tr, c, &m, &lt);
    Ok((counts, cache))
}
