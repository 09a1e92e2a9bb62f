//! `daemon_query`: the read path. A TCP-loopback daemon holds the synth
//! corpus, uploaded during set-up; one client sends a seeded closed-loop
//! mix of `no-alias`, `lt`, `pairs` and `eval` queries. One op is one
//! query round trip (a streamed `pairs` reply included).

use crate::daemon::{self, frame_len, Daemon};
use crate::inputs::{synth_corpus, Query, QueryKind, QueryStream};
use crate::metrics::{end_to_end, per_layer, Counters, LayerInputs, RunOutput, Samples};
use crate::trace::Tracer;
use crate::RunArgs;
use sraa_alias::{render_eval, AaEval, StrictInequalityAa};
use sraa_core::{DisambiguationEngine, EngineConfig};
use sraa_ir::Module;
use sraa_serve::{obj, Client, Json};
use sraa_synth::Workload;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// The tail percentile reported as `tail_us`.
pub const TAIL_Q: f64 = 0.99;
/// Set-ups per untraced run; the median is reported.
pub const SETUP_REPEATS: usize = 5;
/// Untimed queries sent at the end of set-up.
const WARMUP_QUERIES: usize = 100;

/// What the harness needs to draw and address queries on a resident
/// module: its name and its e-SSA form (the pipeline is deterministic,
/// so it numbers values as the daemon's copy does).
pub struct Target {
    name: String,
    module: Module,
}

impl Target {
    /// Compiles `w` and puts it in e-SSA form.
    pub fn new(w: &Workload) -> Result<Target, String> {
        let mut module = sraa_minic::compile(&w.source).map_err(|e| format!("{}: {e}", w.name))?;
        sraa_essa::transform_module(&mut module);
        Ok(Target { name: w.name.clone(), module })
    }
}

/// The harness's own copy of a resident module, built by the same public
/// call the daemon's upload makes: the reference every reply is checked
/// against, and the engine a traced query is replayed on. It holds about
/// as much as the daemon's own entry, so an untraced run builds it only
/// after the daemon's peak memory has been read.
pub struct Reference {
    module: Module,
    lt: StrictInequalityAa,
    eval_text: String,
}

impl Reference {
    /// Builds the reference for `w`.
    pub fn new(w: &Workload) -> Result<Reference, String> {
        let mut module = sraa_minic::compile(&w.source).map_err(|e| format!("{}: {e}", w.name))?;
        let engine = DisambiguationEngine::build_with_cache_and_store(
            &mut module,
            EngineConfig::default(),
            None,
            None,
        );
        let lt = StrictInequalityAa::from_engine(engine);
        let eval_text = render_eval(&module, &lt);
        Ok(Reference { module, lt, eval_text })
    }
}

/// The answer a query must get: a verdict, the no-alias pairs of a
/// function, or a report.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Answer {
    /// `no-alias` / `lt` verdict.
    Verdict(bool),
    /// `pairs`: value names, in stream order.
    Pairs(Vec<(String, String)>),
    /// `eval` report.
    Text(String),
}

impl Answer {
    /// A digest of the answer, so a run can keep every reply until it is
    /// checked without holding the replies themselves.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// The request for `q`.
pub fn request(q: &Query, targets: &[Target]) -> Json {
    let t = &targets[q.module];
    let mut fields =
        vec![("cmd", Json::Str(q.kind.cmd().into())), ("module", Json::Str(t.name.clone()))];
    if q.kind != QueryKind::Eval {
        fields.push(("func", Json::Str(t.module.function(q.func).name.clone())));
    }
    if matches!(q.kind, QueryKind::NoAlias | QueryKind::Lt) {
        fields.push(("p1", Json::Str(q.p1.to_string())));
        fields.push(("p2", Json::Str(q.p2.to_string())));
    }
    obj(fields)
}

/// The direct library calls the daemon's handler makes for `q`, on the
/// reference engine. Returns the answer and the number of pair queries
/// it asked the engine.
pub fn direct(q: &Query, refs: &[Reference]) -> (Answer, u64) {
    let r = &refs[q.module];
    let f = r.module.function(q.func);
    let engine = r.lt.engine();
    match q.kind {
        QueryKind::NoAlias => (Answer::Verdict(engine.no_alias(f, q.func, q.p1, q.p2)), 1),
        QueryKind::Lt => (Answer::Verdict(engine.less_than(q.func, q.p1, q.p2)), 1),
        QueryKind::Pairs => {
            let ptrs = AaEval::pointer_values(&r.module, q.func);
            let pairs = engine.no_alias_pairs(f, q.func, &ptrs);
            let n = ptrs.len() as u64;
            let names = pairs.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
            (Answer::Pairs(names), n * n.saturating_sub(1) / 2)
        }
        QueryKind::Eval => (Answer::Text(r.eval_text.clone()), 0),
    }
}

/// Sends `q` and reads its reply (every frame of a stream). Returns the
/// answer (`None` for an error reply) and the reply frames.
pub fn round_trip(
    client: &mut Client,
    q: &Query,
    req: &Json,
) -> Result<(Option<Answer>, Vec<Json>), String> {
    let frames = if q.kind == QueryKind::Pairs {
        let mut frames = Vec::new();
        client.request_streamed(req, |f| frames.push(f.clone())).map_err(|e| e.to_string())?;
        frames
    } else {
        vec![client.request(req).map_err(|e| e.to_string())?]
    };
    Ok((answer(q.kind, &frames), frames))
}

fn answer(kind: QueryKind, frames: &[Json]) -> Option<Answer> {
    if !frames.iter().all(Json::is_ok) {
        return None;
    }
    let last = frames.last()?;
    Some(match kind {
        QueryKind::NoAlias => Answer::Verdict(last.get("no_alias")?.as_bool()?),
        QueryKind::Lt => Answer::Verdict(last.get("lt")?.as_bool()?),
        QueryKind::Eval => Answer::Text(last.str_field("text")?.to_string()),
        QueryKind::Pairs => {
            let (done, body) = frames.split_last()?;
            if done.num_field("done")? != body.len() as i64 {
                return None;
            }
            let pairs = body.iter().map(|f| match f.get("pair")? {
                Json::Arr(v) if v.len() == 2 => {
                    Some((v[0].as_str()?.to_string(), v[1].as_str()?.to_string()))
                }
                _ => None,
            });
            Answer::Pairs(pairs.collect::<Option<_>>()?)
        }
    })
}

/// Span name of a command's round trip.
fn span_name(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::NoAlias => "serve.no_alias",
        QueryKind::Lt => "serve.lt",
        QueryKind::Pairs => "serve.pairs",
        QueryKind::Eval => "serve.eval",
    }
}

/// A started daemon with the corpus resident and warmed up.
struct Setup {
    daemon: Daemon,
    client: Client,
}

impl Setup {
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.daemon.stop()
    }
}

fn setup(corpus: &[Workload], targets: &[Target], seed: u64) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::tcp()?;
    let mut client = daemon.connect()?;
    for w in corpus {
        daemon::upload(&mut client, &w.name, &w.source)?;
    }
    // Warm-up on a stream of its own, so the measured stream is the
    // same for every set-up.
    let mut warm = QueryStream::new(seed ^ 0x5EED, &modules(targets));
    for _ in 0..WARMUP_QUERIES {
        let q = warm.next_query();
        round_trip(&mut client, &q, &request(&q, targets))?;
    }
    Ok((Setup { daemon, client }, t0.elapsed().as_secs_f64()))
}

fn modules(targets: &[Target]) -> Vec<&Module> {
    targets.iter().map(|t| &t.module).collect()
}

/// Every query of a measured loop with the digest of its answer (`None`
/// for an error reply or a transport error), checked after the loop.
type Replies = Vec<(Query, Option<u64>)>;

/// Replies whose answer differs from the direct library calls'.
fn wrong_replies(replies: &Replies, refs: &[Reference]) -> u64 {
    replies.iter().filter(|(q, got)| *got != Some(direct(q, refs).0.digest())).count() as u64
}

/// The measured loop for `dur`, traced when `tr` is given: then each
/// round trip is followed by a replay of the handler's library calls on
/// the reference engines, grafted into the round trip's span.
fn measure(
    client: &mut Client,
    stream: &mut QueryStream,
    targets: &[Target],
    dur: Duration,
    mut tr: Option<(&mut Tracer, &mut Counters, &[Reference])>,
) -> Result<(Samples, Replies), String> {
    let mut s = Samples::default();
    let mut replies = Replies::new();
    let start = Instant::now();
    while start.elapsed() < dur {
        let q = stream.next_query();
        let req = request(&q, targets);
        let (got, us) = match tr.as_mut() {
            None => {
                let (a0, t) = (sraa_bench::alloc_count(), Instant::now());
                let reply = round_trip(client, &q, &req);
                let us = t.elapsed().as_secs_f64() * 1e6;
                s.allocs += sraa_bench::alloc_count() - a0;
                (reply, us)
            }
            Some((tr, c, refs)) => {
                tr.set_op(s.latency_us.len() as u64);
                let root = tr.begin(span_name(q.kind));
                let reply = round_trip(client, &q, &req);
                tr.end(root);
                let rt_start = tr.spans()[root].start;
                let us = (tr.spans()[root].end - rt_start) as f64 / 1e3;
                let mark = tr.mark();
                let replay_start = tr.now();
                // `eval` makes no library call: the handler sends the
                // report rendered at upload.
                if q.kind != QueryKind::Eval {
                    let (_, calls) = tr.span("core.query", || direct(&q, refs));
                    let sp = &tr.spans()[mark];
                    c.add("query.ns", (sp.end - sp.start) as f64);
                    c.add("query.timed_calls", calls as f64);
                    c.add("query.calls", calls as f64);
                }
                tr.graft(mark, replay_start - rt_start, root);
                if let Ok((_, frames)) = &reply {
                    c.add(
                        "serve.bytes",
                        (frame_len(&req) + frames.iter().map(frame_len).sum::<usize>()) as f64,
                    );
                    c.add("serve.frames", (1 + frames.len()) as f64);
                }
                (reply, us)
            }
        };
        s.push(q.kind.cmd(), q.kind as usize, us);
        replies.push((q, got.ok().and_then(|(a, _)| a).map(|a| a.digest())));
    }
    s.elapsed_s = start.elapsed().as_secs_f64();
    Ok((s, replies))
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let corpus = synth_corpus();
    let targets: Vec<Target> = corpus.iter().map(Target::new).collect::<Result<_, _>>()?;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for _ in 0..repeats {
        if let Some(old) = current.take() {
            old.stop()?;
        }
        let (s, t) = setup(&corpus, &targets, args.seed)?;
        setups.push(t);
        current = Some(s);
    }
    let mut setup = current.expect("at least one set-up");
    let mut stream = QueryStream::new(args.seed, &modules(&targets));
    let mut out = RunOutput::default();

    if !args.trace {
        let (mut s, replies) =
            measure(&mut setup.client, &mut stream, &targets, args.seconds, None)?;
        let peak_rss_kb = sraa_bench::peak_rss_kb();
        setup.stop()?;
        let refs: Vec<Reference> = corpus.iter().map(Reference::new).collect::<Result<_, _>>()?;
        s.failed = wrong_replies(&replies, &refs);
        out.notes.push("per-command round trip:".to_string());
        out.notes.extend(s.rows(TAIL_Q));
        out.notes.push(format!("set-ups (s): {setups:.4?}"));
        out.attempted = s.latency_us.len() as u64;
        out.failed = s.failed;
        out.metrics = end_to_end(&setups, &s, TAIL_Q, peak_rss_kb);
        return Ok(out);
    }

    let refs: Vec<Reference> = corpus.iter().map(Reference::new).collect::<Result<_, _>>()?;
    let half = args.seconds / 2;
    let (plain, mut replies) = measure(&mut setup.client, &mut stream, &targets, half, None)?;
    let mut tr = Tracer::default();
    let mut c = Counters::default();
    let (traced, traced_replies) =
        measure(&mut setup.client, &mut stream, &targets, half, Some((&mut tr, &mut c, &refs)))?;
    setup.stop()?;
    replies.extend(traced_replies);
    c.add("query.memo", refs.iter().map(|r| r.lt.engine().cached_queries()).sum::<usize>() as f64);
    c.add("query.memo_samples", 1.0);
    out.notes.push("per-command round trip (traced):".to_string());
    out.notes.extend(traced.rows(TAIL_Q));
    out.attempted = replies.len() as u64;
    out.failed = wrong_replies(&replies, &refs);
    out.metrics = per_layer(&LayerInputs {
        tracer: &tr,
        counters: &c,
        ops: traced.latency_us.len() as u64,
        by_cmd: &traced.by_cmd,
        overhead_pct: traced.slowdown_pct(&plain),
        allocs_per_op: plain.allocs_per_op(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_differing_from_the_library_fails_the_check() {
        let corpus: Vec<Workload> = synth_corpus().into_iter().take(3).collect();
        let targets: Vec<Target> = corpus.iter().map(|w| Target::new(w).unwrap()).collect();
        let refs: Vec<Reference> = corpus.iter().map(|w| Reference::new(w).unwrap()).collect();
        let mut stream = QueryStream::new(3, &modules(&targets));
        let queries: Vec<Query> = (0..100).map(|_| stream.next_query()).collect();
        let right: Replies =
            queries.iter().map(|q| (*q, Some(direct(q, &refs).0.digest()))).collect();
        assert_eq!(wrong_replies(&right, &refs), 0);

        let mut wrong = right.clone();
        let verdict = queries.iter().position(|q| q.kind == QueryKind::NoAlias).unwrap();
        let Answer::Verdict(v) = direct(&queries[verdict], &refs).0 else { unreachable!() };
        wrong[verdict].1 = Some(Answer::Verdict(!v).digest());
        let error = queries.iter().position(|q| q.kind == QueryKind::Eval).unwrap();
        wrong[error].1 = None;
        assert_eq!(wrong_replies(&wrong, &refs), 2);
    }
}
