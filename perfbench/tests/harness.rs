//! Tests of the harness itself: output checks, seed determinism, the
//! traced replays, and agreement with `BENCHMARK.json`.

use sraa_core::{GenConfig, SharedSummaryStore};
use sraa_perfbench::checks::{parse_digests, DigestCheck, EXPECTED_DIGESTS};
use sraa_perfbench::daemon::{self, Daemon, Endpoint};
use sraa_perfbench::daemon_edit::{expected_counts, reply_counts};
use sraa_perfbench::eval_oneshot::traced_eval;
use sraa_perfbench::inputs::{self, EditModule, EditStream, QueryStream, State, Upload};
use sraa_perfbench::metrics::{Counters, END_TO_END, PER_LAYER};
use sraa_perfbench::trace::Tracer;
use sraa_perfbench::{layers, run, RunArgs, RUN_SECONDS, WORKLOADS};
use sraa_serve::Server;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let d =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn recorded_digests_match_every_report_any_seed_can_draw() {
    let check = DigestCheck::recorded().unwrap();
    for w in inputs::synth_corpus().into_iter().chain(inputs::csmith_pool()) {
        let text = layers::eval_report(&w.source).unwrap();
        assert!(
            check.matches(&w.name, &text),
            "{}: the report differs from its recorded digest",
            w.name
        );
    }
}

#[test]
fn a_wrong_expected_digest_fails_the_check() {
    let mut table = parse_digests(EXPECTED_DIGESTS).unwrap();
    let w = &inputs::synth_corpus()[0];
    let text = layers::eval_report(&w.source).unwrap();
    assert!(DigestCheck::new(table.clone()).matches(&w.name, &text));
    *table.get_mut(&w.name).unwrap() ^= 1;
    assert!(!DigestCheck::new(table).matches(&w.name, &text));
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    let modules: Vec<EditModule> =
        inputs::edit_corpus().iter().map(|w| EditModule::new(w).unwrap()).collect();
    let mut esa: Vec<sraa_ir::Module> = Vec::new();
    for w in inputs::synth_corpus().iter().take(8) {
        let mut m = sraa_minic::compile(&w.source).unwrap();
        sraa_essa::transform_module(&mut m);
        esa.push(m);
    }
    let refs: Vec<&sraa_ir::Module> = esa.iter().collect();
    let draw = |seed: u64| {
        let mut edits = EditStream::new(seed, &modules);
        let uploads: Vec<String> = (0..200)
            .map(|_| {
                let u = edits.next_upload();
                modules[u.module].source(u.state)
            })
            .collect();
        let mut queries = QueryStream::new(seed, &refs);
        let qs: Vec<inputs::Query> = (0..500).map(|_| queries.next_query()).collect();
        let mut order = inputs::Rounds::eval_order(seed, 48);
        let visits: Vec<usize> = (0..100).map(|_| order.next_index()).collect();
        (inputs::eval_corpus(seed), uploads, qs, visits)
    };
    assert!(draw(7) == draw(7), "the same seed must give the same inputs");
    let (a, b) = (draw(7), draw(8));
    assert!(
        a.0 != b.0 && a.1 != b.1 && a.2 != b.2 && a.3 != b.3,
        "another seed must change every input"
    );
}

#[test]
fn traced_eval_renders_the_report_and_accounts_for_the_op() {
    let mut tr = Tracer::default();
    let mut c = Counters::default();
    for w in inputs::eval_corpus(3).iter().step_by(4) {
        let (text, ns) = traced_eval(&mut tr, &mut c, &w.source);
        assert_eq!(text.unwrap(), layers::eval_report(&w.source).unwrap(), "{}", w.name);
        assert!(ns > 0);
    }
    let by_name = tr.self_time_by_name();
    let total: u64 =
        tr.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum();
    assert_eq!(by_name.values().sum::<u64>(), total, "self times partition the ops");
    assert!(by_name["op"] * 20 < total, "named layers cover at least 95% of the op");
}

/// Upload `u` to the daemon and replay it on the mirror store, returning
/// the reply's and the replay's counters.
fn upload_and_replay(
    client: &mut sraa_serve::Client,
    m: &EditModule,
    state: State,
    prior: &mut Option<sraa_core::SummaryCache>,
    mirror: &SharedSummaryStore,
) -> (Option<layers::UploadCounts>, layers::UploadCounts) {
    let source = m.source(state);
    let reply = daemon::upload(client, &m.name, &source).unwrap();
    let (counts, cache) = layers::upload(
        &mut Tracer::default(),
        &mut Counters::default(),
        &source,
        prior.as_ref(),
        mirror,
    )
    .unwrap();
    *prior = Some(cache);
    (reply_counts(&reply), counts)
}

#[test]
fn replayed_upload_counters_match_the_daemon_reply() {
    let dir = tmp_dir("replay");
    let store = SharedSummaryStore::open(dir.join("daemon"), GenConfig::default()).unwrap();
    let mirror = SharedSummaryStore::open(dir.join("mirror"), GenConfig::default()).unwrap();
    let server =
        Server::bind_tcp("127.0.0.1:0", daemon::server_config()).unwrap().with_shared_store(store);
    let addr = server.tcp_addr().unwrap();
    let d = Daemon::start(server, Endpoint::Tcp(addr));
    let mut client = d.connect().unwrap();
    let m = EditModule::new(&inputs::edit_corpus()[4]).unwrap();
    let mut prior = None;

    // Cold first upload, then an edit of the module's first editable
    // function and the edit undone: every reply equals its replay.
    let steps = [
        (State::Base, None),
        (State::Edited { func: 0, variant: 1 }, Some(0)),
        (State::Base, Some(0)),
    ];
    for (i, (state, changed)) in steps.into_iter().enumerate() {
        let (reply, replay) = upload_and_replay(&mut client, &m, state, &mut prior, &mirror);
        assert_eq!(reply, Some(replay), "step {i}: replay counters must equal the reply");
        if i > 0 {
            // Cache counters follow the call-graph closure of the edit.
            let expected = m.expected_counts(changed);
            assert_eq!((replay.0 as u32, replay.1 as u32, replay.2 as u32), expected, "step {i}");
        }
    }
    // Both states are in the store now: the next edit meets the steady
    // state the workload checks every reply against.
    let edit = Upload { module: 0, state: State::Edited { func: 0, variant: 1 }, changed: Some(0) };
    let (reply, replay) = upload_and_replay(&mut client, &m, edit.state, &mut prior, &mirror);
    assert_eq!(reply, Some(replay));
    assert_eq!(replay, expected_counts(&m, &edit));

    // The comparison is live: a replay from the wrong prior disagrees.
    let fresh = SharedSummaryStore::open(dir.join("fresh"), GenConfig::default()).unwrap();
    let (reply, replay) = upload_and_replay(&mut client, &m, State::Base, &mut None, &fresh);
    assert_ne!(reply, Some(replay), "a replay from other reuse state must not match");
    drop(client);
    d.stop().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_workload_runs_clean_traced_and_untraced() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                workload: workload.to_string(),
                seed: 11,
                seconds: Duration::from_millis(1500),
                trace,
            };
            let out = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(out.attempted > 0, "{workload} trace={trace}: no ops");
            assert_eq!(out.failed, 0, "{workload} trace={trace}: {:?}", out.notes);
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(names, catalogue, "{workload} trace={trace}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(out.metrics.iter().all(|m| m.value > 0.0), "{workload}: {:?}", out.metrics);
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    // One entry per line: `{"name": "<name>", "<key>": "<value>", ...}`.
    // End-to-end entries carry a bound, per-layer ones do not, workloads
    // carry a `why`.
    let entries = |filter: &dyn Fn(&str) -> bool| -> Vec<(String, String)> {
        text.lines()
            .filter(|l| l.trim_start().starts_with("{\"name\"") && filter(l))
            .map(|l| {
                let parts: Vec<&str> = l.split('"').collect();
                (parts[3].to_string(), parts[7].to_string())
            })
            .collect()
    };
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(entries(&|l| l.contains("\"bound\"")), owned(END_TO_END));
    assert_eq!(entries(&|l| l.contains("\"unit\"") && !l.contains("\"bound\"")), owned(PER_LAYER));
    let workloads: Vec<String> =
        entries(&|l| l.contains("\"why\"")).into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(
        text.contains(&format!("\"run_seconds\": {RUN_SECONDS},")),
        "BENCHMARK.json's run_seconds must be RUN_SECONDS"
    );
}
