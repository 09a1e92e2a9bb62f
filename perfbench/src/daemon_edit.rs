//! `daemon_edit`: the write path. A Unix-socket daemon with a shared
//! summary store in the run's scratch directory receives a seeded stream
//! of re-uploads, each changing at most one function body. One op is one
//! upload round trip.

use crate::daemon::{self, frame_len, upload_request, Daemon, Endpoint};
use crate::inputs::{edit_corpus, EditModule, EditStream, State, Upload};
use crate::layers::{self, UploadCounts};
use crate::metrics::{end_to_end, per_layer, Counters, LayerInputs, RunOutput, Samples};
use crate::trace::Tracer;
use crate::{RunArgs, Scratch};
use sraa_core::{DisambiguationEngine, EngineConfig, GenConfig, SharedSummaryStore, SummaryCache};
use sraa_serve::{Client, Json, Server};
use std::path::Path;
use std::time::{Duration, Instant};

/// The tail percentile reported as `tail_us`.
pub const TAIL_Q: f64 = 0.99;
/// Set-ups per untraced run; the median is reported. More than the other
/// workloads' five, because one set-up lasts only a few tenths of a
/// second and so is at the mercy of sub-second host noise.
pub const SETUP_REPEATS: usize = 11;

/// The counters of an upload reply, in [`UploadCounts`] order.
pub fn reply_counts(reply: &Json) -> Option<UploadCounts> {
    let f = |k| reply.num_field(k);
    Some((
        f("hits")?,
        f("misses")?,
        f("invalidated")?,
        f("store_hits")?,
        f("store_misses")?,
        f("store_published")?,
    ))
}

/// What the daemon must reply for `u` once the store holds every module
/// state: the cache hits everything but the edited function's reverse
/// call-graph closure, which the store answers in full, and nothing new
/// is published.
pub fn expected_counts(m: &EditModule, u: &Upload) -> UploadCounts {
    let (hits, misses, invalidated) = m.expected_counts(u.changed);
    (i64::from(hits), i64::from(misses), i64::from(invalidated), i64::from(invalidated), 0, 0)
}

/// Summary-store segment files in `dir`.
fn segments(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "sraaseg"))
                .count()
        })
        .unwrap_or(0)
}

/// Publishes the summaries of every state of every module into the store
/// at `dir` with one-shot builds, so the measured loop meets a store in
/// its steady state.
fn populate(dir: &Path, modules: &[EditModule]) -> Result<(), String> {
    let store = SharedSummaryStore::open(dir, GenConfig::default()).map_err(|e| e.to_string())?;
    for m in modules {
        for state in m.states() {
            let mut module =
                sraa_minic::compile(&m.source(state)).map_err(|e| format!("{}: {e}", m.name))?;
            DisambiguationEngine::build_with_cache_and_store(
                &mut module,
                EngineConfig::default(),
                None,
                Some(&store),
            );
        }
    }
    Ok(())
}

/// A started daemon with every module resident and the stream warmed up.
struct Setup {
    daemon: Daemon,
    client: Client,
    scratch: Scratch,
}

impl Setup {
    fn stop(self) -> Result<(), String> {
        drop(self.client);
        self.daemon.stop()
    }
}

/// Store population, daemon start, the resident uploads and one warm-up
/// round of the stream (one upload per module).
fn setup(modules: &[EditModule], stream: &mut EditStream) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let scratch = Scratch::new("edit")?;
    let store_dir = scratch.path().join("store");
    populate(&store_dir, modules)?;
    let store =
        SharedSummaryStore::open(&store_dir, GenConfig::default()).map_err(|e| e.to_string())?;
    let sock = scratch.path().join("d.sock");
    let server = Server::bind_unix(&sock, daemon::server_config())
        .map_err(|e| e.to_string())?
        .with_shared_store(store);
    let daemon = Daemon::start(server, Endpoint::Unix(sock));
    let mut client = daemon.connect()?;
    for m in modules {
        daemon::upload(&mut client, &m.name, &m.source(State::Base))?;
    }
    for _ in 0..modules.len() {
        let u = stream.next_upload();
        let m = &modules[u.module];
        daemon::upload(&mut client, &m.name, &m.source(u.state))?;
    }
    Ok((Setup { daemon, client, scratch }, t0.elapsed().as_secs_f64()))
}

/// The traced run's mirror of the daemon's reuse state: a copy of its
/// store directory and, per module, the summaries of its resident
/// upload (summaries are a pure function of the source, so a cold build
/// of the current state exports exactly what the daemon holds).
struct Mirror {
    store: SharedSummaryStore,
    priors: Vec<Option<SummaryCache>>,
}

impl Mirror {
    fn new(setup: &Setup, modules: &[EditModule], states: &[State]) -> Result<Mirror, String> {
        let from = setup.scratch.path().join("store");
        let to = setup.scratch.path().join("mirror");
        std::fs::create_dir_all(&to).map_err(|e| e.to_string())?;
        for entry in std::fs::read_dir(&from).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_file() {
                std::fs::copy(&path, to.join(path.file_name().expect("file name")))
                    .map_err(|e| e.to_string())?;
            }
        }
        let store =
            SharedSummaryStore::open(&to, GenConfig::default()).map_err(|e| e.to_string())?;
        let mut priors = Vec::new();
        for (m, &state) in modules.iter().zip(states) {
            let mut module = sraa_minic::compile(&m.source(state)).map_err(|e| e.to_string())?;
            let e = DisambiguationEngine::build_with_cache_and_store(
                &mut module,
                EngineConfig::default(),
                None,
                None,
            );
            priors.push(e.export_summary_cache(&module));
        }
        Ok(Mirror { store, priors })
    }
}

/// The measured loop for `dur`, traced when `tr` is given: then each
/// round trip is followed by a replay of the upload handler's library
/// calls on the mirror, grafted into the round trip's span, and the
/// replay's counters must equal the reply's.
fn measure(
    client: &mut Client,
    stream: &mut EditStream,
    modules: &[EditModule],
    dur: Duration,
    mut tr: Option<(&mut Tracer, &mut Counters, &mut Mirror)>,
) -> Result<(Samples, u64), String> {
    let mut s = Samples::default();
    let mut replay_mismatches = 0;
    let start = Instant::now();
    while start.elapsed() < dur {
        let u = stream.next_upload();
        let m = &modules[u.module];
        let source = m.source(u.state);
        let req = upload_request(&m.name, &source);
        let (reply, us) = match tr.as_mut() {
            None => {
                let (a0, t) = (sraa_bench::alloc_count(), Instant::now());
                let reply = client.request(&req);
                let us = t.elapsed().as_secs_f64() * 1e6;
                s.allocs += sraa_bench::alloc_count() - a0;
                (reply, us)
            }
            Some((tr, c, mirror)) => {
                tr.set_op(s.latency_us.len() as u64);
                let root = tr.begin("serve.upload");
                let reply = client.request(&req);
                tr.end(root);
                let rt_start = tr.spans()[root].start;
                let us = (tr.spans()[root].end - rt_start) as f64 / 1e3;
                let mark = tr.mark();
                let replay_start = tr.now();
                let prior = mirror.priors[u.module].take();
                let replay = layers::upload(tr, c, &source, prior.as_ref(), &mirror.store)?;
                tr.graft(mark, replay_start - rt_start, root);
                mirror.priors[u.module] = Some(replay.1);
                if let Ok(reply) = &reply {
                    c.add("serve.bytes", (frame_len(&req) + frame_len(reply)) as f64);
                    c.add("serve.frames", 2.0);
                    if reply_counts(reply) != Some(replay.0) {
                        replay_mismatches += 1;
                    }
                }
                (reply, us)
            }
        };
        s.push("upload", u.module, us);
        let ok = reply.is_ok_and(|r| r.is_ok() && reply_counts(&r) == Some(expected_counts(m, &u)));
        if !ok {
            s.failed += 1;
        }
    }
    s.failed += replay_mismatches;
    s.elapsed_s = start.elapsed().as_secs_f64();
    Ok((s, replay_mismatches))
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let modules: Vec<EditModule> =
        edit_corpus().iter().map(EditModule::new).collect::<Result<_, _>>()?;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut current: Option<(Setup, EditStream)> = None;
    for _ in 0..repeats {
        if let Some((old, _)) = current.take() {
            old.stop()?;
        }
        let mut stream = EditStream::new(args.seed, &modules);
        let (s, t) = setup(&modules, &mut stream)?;
        setups.push(t);
        current = Some((s, stream));
    }
    let (mut setup, mut stream) = current.expect("at least one set-up");
    let mut out = RunOutput::default();

    if !args.trace {
        let (s, _) = measure(&mut setup.client, &mut stream, &modules, args.seconds, None)?;
        out.notes.push(format!(
            "{} modules, {} store segments; per-command round trip:",
            modules.len(),
            segments(&setup.scratch.path().join("store"))
        ));
        out.notes.extend(s.rows(TAIL_Q));
        out.notes.push(format!("set-ups (s): {setups:.4?}"));
        out.notes.push("per module:".to_string());
        let names: Vec<String> = modules.iter().map(|m| m.name.clone()).collect();
        out.notes.extend(s.input_rows(&names));
        out.attempted = s.latency_us.len() as u64;
        out.failed = s.failed.min(out.attempted);
        out.metrics = end_to_end(&setups, &s, TAIL_Q, sraa_bench::peak_rss_kb());
    } else {
        let half = args.seconds / 2;
        let (plain, _) = measure(&mut setup.client, &mut stream, &modules, half, None)?;
        let mut mirror = Mirror::new(&setup, &modules, &stream.states())?;
        let mut tr = Tracer::default();
        let mut c = Counters::default();
        let (traced, mismatches) = measure(
            &mut setup.client,
            &mut stream,
            &modules,
            half,
            Some((&mut tr, &mut c, &mut mirror)),
        )?;
        c.add("store.segments", segments(&setup.scratch.path().join("store")) as f64);
        out.notes.push(format!(
            "traced uploads: {}; replay counters differing from the reply: {mismatches}",
            traced.latency_us.len()
        ));
        out.notes.extend(traced.rows(TAIL_Q));
        out.attempted = (plain.latency_us.len() + traced.latency_us.len()) as u64;
        out.failed = (plain.failed + traced.failed).min(out.attempted);
        out.metrics = per_layer(&LayerInputs {
            tracer: &tr,
            counters: &c,
            ops: traced.latency_us.len() as u64,
            by_cmd: &traced.by_cmd,
            overhead_pct: traced.slowdown_pct(&plain),
            allocs_per_op: plain.allocs_per_op(),
        });
    }
    setup.stop()?;
    Ok(out)
}
