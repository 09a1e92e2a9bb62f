//! `eval_oneshot`: per module, exactly what `sraa eval --interproc
//! file.c` runs — compile, build the engine with summaries, render the
//! report. One op is one module's eval; the loop visits the corpus in a
//! fresh seeded order every round.

use crate::checks::{lt_oracle_violations, DigestCheck};
use crate::inputs::{eval_corpus, Rounds};
use crate::layers::{self, eval_config};
use crate::metrics::{end_to_end, per_layer, Counters, LayerInputs, RunOutput, Samples};
use crate::trace::Tracer;
use crate::RunArgs;
use sraa_alias::StrictInequalityAa;
use sraa_core::DisambiguationEngine;
use sraa_synth::Workload;
use std::time::{Duration, Instant};

/// The tail percentile reported as `tail_us`.
pub const TAIL_Q: f64 = 0.95;
/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPEATS: usize = 5;
/// Above this `trace.overhead_pct` a traced run warns that the traced op
/// ([`layers::render`] in particular, a column-by-column copy of
/// `render_eval`) may no longer do what the untraced op does. Host noise
/// alone moves the figure by about ±15%.
pub const OVERHEAD_LIMIT_PCT: f64 = 50.0;

/// Input generation plus one untimed warm-up pass. Returns the corpus
/// and the set-up time in seconds.
pub fn setup(seed: u64) -> Result<(Vec<Workload>, f64), String> {
    let t0 = Instant::now();
    let corpus = eval_corpus(seed);
    for w in &corpus {
        let report = layers::eval_report(&w.source).map_err(|e| format!("{}: {e}", w.name))?;
        std::hint::black_box(report);
    }
    Ok((corpus, t0.elapsed().as_secs_f64()))
}

/// One traced op: the spans of [`layers`] under an `op` root. Returns
/// the report and the op's wall time in ns.
pub fn traced_eval(
    tr: &mut Tracer,
    c: &mut Counters,
    source: &str,
) -> (Result<String, String>, u64) {
    let root = tr.begin("op");
    let text = (|| {
        let mut m = layers::compile(tr, c, source)?;
        let ranges = layers::essa(tr, c, &mut m);
        let e =
            layers::engine(tr, c, || DisambiguationEngine::on_prepared(&m, &ranges, eval_config()));
        let lt = StrictInequalityAa::from_engine(e);
        Ok(layers::render(tr, c, &m, &lt))
    })();
    tr.end(root);
    let span = &tr.spans()[root];
    (text, span.end - span.start)
}

/// The measured loop for `dur`, traced when `tr` is given. Every report
/// is checked against its recorded digest after its op is timed.
/// Returns the samples and the ops run per module.
fn measure(
    corpus: &[Workload],
    order: &mut Rounds,
    dur: Duration,
    mut tr: Option<(&mut Tracer, &mut Counters)>,
) -> Result<(Samples, Vec<u64>), String> {
    let digests = DigestCheck::recorded()?;
    let mut s = Samples::default();
    let mut per_module = vec![0u64; corpus.len()];
    let start = Instant::now();
    while start.elapsed() < dur {
        let i = order.next_index();
        let w = &corpus[i];
        let (report, us) = match tr.as_mut() {
            Some((tr, c)) => {
                tr.set_op(s.latency_us.len() as u64);
                let (report, ns) = traced_eval(tr, c, &w.source);
                (report, ns as f64 / 1e3)
            }
            None => {
                let (a0, t) = (sraa_bench::alloc_count(), Instant::now());
                let report = layers::eval_report(&w.source);
                let us = t.elapsed().as_secs_f64() * 1e6;
                s.allocs += sraa_bench::alloc_count() - a0;
                (report, us)
            }
        };
        s.push("eval", i, us);
        per_module[i] += 1;
        if !report.is_ok_and(|text| digests.matches(&w.name, &text)) {
            s.failed += 1;
        }
    }
    s.elapsed_s = start.elapsed().as_secs_f64();
    Ok((s, per_module))
}

/// Ops on Csmith modules whose LT no-alias verdicts the interpreter
/// refutes. (The Csmith programs run trap-free under the interpreter by
/// construction, so they are the ones the oracle can execute.)
fn oracle_failures(corpus: &[Workload], per_module: &[u64]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    for (w, &ops) in corpus.iter().zip(per_module).filter(|(w, _)| w.name.starts_with("csmith")) {
        let verdict =
            sraa_minic::compile(&w.source).map_err(|e| e.to_string()).and_then(|mut m| {
                let lt = StrictInequalityAa::with_engine_config(&mut m, eval_config());
                lt_oracle_violations(&m, lt.engine())
            });
        if verdict != Ok(0) {
            failed += ops;
            notes.push(format!("oracle check failed on {}: {verdict:?}", w.name));
        }
    }
    (failed, notes)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..repeats {
        let (c, t) = setup(args.seed)?;
        setups.push(t);
        corpus = c;
    }
    let mut order = Rounds::eval_order(args.seed, corpus.len());
    let mut out = RunOutput::default();

    if !args.trace {
        let (mut s, per_module) = measure(&corpus, &mut order, args.seconds, None)?;
        let peak_rss_kb = sraa_bench::peak_rss_kb();
        let (oracle_failed, notes) = oracle_failures(&corpus, &per_module);
        s.failed = (s.failed + oracle_failed).min(s.latency_us.len() as u64);
        out.notes = notes;
        out.notes.push(format!("{} modules; per-op latency:", corpus.len()));
        out.notes.extend(s.rows(TAIL_Q));
        out.notes.push(format!("set-ups (s): {setups:.4?}"));
        out.notes.push("per module:".to_string());
        let names: Vec<String> = corpus.iter().map(|w| w.name.clone()).collect();
        out.notes.extend(s.input_rows(&names));
        out.attempted = s.latency_us.len() as u64;
        out.failed = s.failed;
        out.metrics = end_to_end(&setups, &s, TAIL_Q, peak_rss_kb);
        return Ok(out);
    }

    // Traced run: half the time untraced (the overhead baseline and the
    // allocation count), half traced.
    let half = args.seconds / 2;
    let (plain, mut per_module) = measure(&corpus, &mut order, half, None)?;
    let mut tr = Tracer::default();
    let mut c = Counters::default();
    let (traced, traced_per_module) = measure(&corpus, &mut order, half, Some((&mut tr, &mut c)))?;
    for (a, b) in per_module.iter_mut().zip(&traced_per_module) {
        *a += b;
    }
    let (oracle_failed, notes) = oracle_failures(&corpus, &per_module);
    out.attempted = (plain.latency_us.len() + traced.latency_us.len()) as u64;
    out.failed = (plain.failed + traced.failed + oracle_failed).min(out.attempted);
    out.notes = notes;
    let overhead_pct = traced.slowdown_pct(&plain);
    if overhead_pct > OVERHEAD_LIMIT_PCT {
        out.notes.push(format!(
            "warning: trace.overhead_pct {overhead_pct:.1}% exceeds {OVERHEAD_LIMIT_PCT}%: the \
             traced op may have drifted from render_eval"
        ));
    }
    out.metrics = per_layer(&LayerInputs {
        tracer: &tr,
        counters: &c,
        ops: traced.latency_us.len() as u64,
        by_cmd: &Default::default(),
        overhead_pct,
        allocs_per_op: plain.allocs_per_op(),
    });
    Ok(out)
}
