//! End-to-end tests of the resident daemon (`sraa serve`): in-process
//! server + client round trips, the upload-invalidation differential
//! (mirroring `tests/incremental.rs`), deterministic malformed-frame
//! handling, and a protocol fuzz property.
//!
//! The robustness contract under fuzz: any byte sequence a client sends
//! yields a typed error reply or a clean close — never a panic and never
//! a hang beyond the read timeout.

use sraa::alias::{render_eval, AaEval, StrictInequalityAa};
use sraa::ir::{CallGraph, FuncId, Module};
use sraa::lt::EngineConfig;
use sraa::serve::{obj, Client, Json, Server, ServerConfig};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Duration;

/// The known-gains program: `use_helper`'s parameter and the `advance`
/// call result are provably no-alias — but only interprocedurally.
const CALLS: &str = r#"
int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
int use_helper(int* p, int n) { int* q = advance(p, n); *q = 1; *p = 2; return *q; }
int main() { int a[8]; return use_helper(a, 3); }
"#;

/// Leaks a TCP server on an ephemeral port and serves it from a
/// background thread (ephemeral ports keep parallel test binaries from
/// colliding; the leak is one listener per test process).
fn spawn_server(cfg: ServerConfig) -> (&'static Server, SocketAddr, std::thread::JoinHandle<()>) {
    let server =
        Box::leak(Box::new(Server::bind_tcp("127.0.0.1:0", cfg).expect("bind ephemeral port")));
    let addr = server.tcp_addr().expect("tcp server has an address");
    let handle = std::thread::spawn(|| server.run().expect("serve loop"));
    (server, addr, handle)
}

fn upload_req(name: &str, source: &str) -> Json {
    obj([
        ("cmd", Json::Str("upload".into())),
        ("name", Json::Str(name.into())),
        ("source", Json::Str(source.into())),
    ])
}

fn pair_req(cmd: &str, module: &str, func: &str, p1: &str, p2: &str) -> Json {
    obj([
        ("cmd", Json::Str(cmd.into())),
        ("module", Json::Str(module.into())),
        ("func", Json::Str(func.into())),
        ("p1", Json::Str(p1.into())),
        ("p2", Json::Str(p2.into())),
    ])
}

/// The one-shot reference: a cold interprocedural engine on `src`, as
/// `sraa eval --interproc` would build it.
fn one_shot(src: &str) -> (Module, StrictInequalityAa) {
    let mut m = sraa::minic::compile(src).expect("source compiles");
    let lt =
        StrictInequalityAa::with_engine_config(&mut m, EngineConfig::default().with_summaries());
    (m, lt)
}

#[test]
fn resident_daemon_matches_one_shot_answers_byte_for_byte() {
    let (server, addr, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect_tcp(addr).expect("connect");

    let up = client.request(&upload_req("demo", CALLS)).expect("upload round trip");
    assert!(up.is_ok(), "upload failed: {up:?}");
    assert_eq!(up.num_field("functions"), Some(3));
    assert_eq!((up.num_field("hits"), up.num_field("misses")), (Some(0), Some(3)), "cold upload");

    // The resident `eval` answer is byte-identical to the one-shot path.
    let (m, lt) = one_shot(CALLS);
    let expected = render_eval(&m, &lt);
    let ev = client
        .request(&obj([("cmd", Json::Str("eval".into())), ("module", Json::Str("demo".into()))]))
        .expect("eval");
    assert_eq!(ev.str_field("text"), Some(expected.as_str()), "eval text must match one-shot");

    // Every locally proven no-alias pair answers `no-alias` over the wire,
    // and the streamed `pairs` reply lists exactly the same pairs.
    for (fid, f) in m.functions() {
        let fname = f.name.clone();
        let ptrs = AaEval::pointer_values(&m, fid);
        let local = lt.engine().no_alias_pairs(f, fid, &ptrs);
        for (a, b) in &local {
            let r = client
                .request(&pair_req("no-alias", "demo", &fname, &format!("{a}"), &format!("{b}")))
                .expect("pair query");
            assert_eq!(r.get("no_alias"), Some(&Json::Bool(true)), "{fname}: {a} vs {b}");
        }
        let mut streamed = Vec::new();
        let done = client
            .request_streamed(
                &obj([
                    ("cmd", Json::Str("pairs".into())),
                    ("module", Json::Str("demo".into())),
                    ("func", Json::Str(fname.clone())),
                ]),
                |frame| {
                    if let Some(Json::Arr(pair)) = frame.get("pair") {
                        streamed.push(
                            pair.iter().filter_map(Json::as_str).collect::<Vec<_>>().join(" "),
                        );
                    }
                },
            )
            .expect("pairs stream");
        assert_eq!(done.num_field("done"), Some(local.len() as i64));
        let expected_pairs: Vec<String> = local.iter().map(|(a, b)| format!("{a} {b}")).collect();
        assert_eq!(streamed, expected_pairs, "{fname}: streamed pairs differ");
    }

    // `lt` answers agree with the engine too (one spot check per order).
    let fid = m.function_by_name("use_helper").unwrap();
    let ptrs = AaEval::pointer_values(&m, fid);
    let (a, b) = (ptrs[0], ptrs[1]);
    for (x, y) in [(a, b), (b, a)] {
        let r = client
            .request(&pair_req("lt", "demo", "use_helper", &format!("{x}"), &format!("{y}")))
            .expect("lt query");
        assert_eq!(r.get("lt"), Some(&Json::Bool(lt.engine().less_than(fid, x, y))));
    }

    // Stats see the traffic; shutdown drains and stops the accept loop.
    let stats = client.request(&obj([("cmd", Json::Str("stats".into()))])).expect("stats");
    assert!(stats.is_ok());
    assert_eq!(stats.num_field("modules"), Some(1));
    assert_eq!(stats.num_field("uploads"), Some(1));
    assert!(stats.num_field("queries").unwrap_or(0) > 0);
    let bye = client.request(&obj([("cmd", Json::Str("shutdown".into()))])).expect("shutdown");
    assert!(bye.is_ok());
    // Graceful drain: the serve loop notices the flag, waits out in-flight
    // connections and returns (the leaked listener's OS backlog may still
    // accept, so joining the loop is the real observation).
    handle.join().expect("serve loop exits cleanly after shutdown");
    assert_eq!(server.stats().uploads.load(std::sync::atomic::Ordering::Relaxed), 1);
}

// ---------------------------------------------------------------------
// Upload invalidation: the same controllable-mutation family as
// tests/incremental.rs — helper i calls helper i+1 iff structure bit i is
// set, body variants are selectable per helper.
// ---------------------------------------------------------------------

fn render(n: usize, structure: u64, variants: u64) -> String {
    let mut src = String::new();
    for i in (0..n).rev() {
        let variant = (variants >> i) & 1;
        let calls_next = i + 1 < n && (structure >> i) & 1 == 1;
        let body = match (calls_next, variant) {
            (false, 0) => "if (n > 0) { return p + n; } return p + 1;".to_string(),
            (false, _) => "if (n > 1) { return p + n; } return p;".to_string(),
            (true, v) => format!("int* q = h{}(p, n); return q + {};", i + 1, v + 1),
        };
        src.push_str(&format!("int* h{i}(int* p, int n) {{ {body} }}\n"));
    }
    src.push_str("int main() {\n  int a[64];\n  int acc = 0;\n");
    for i in 0..n {
        src.push_str(&format!("  int* r{i} = h{i}(a, {});\n  acc += *r{i};\n", i + 2));
    }
    src.push_str("  return acc;\n}\n");
    src
}

/// Functions that can reach any function in `from` (inclusive) — the set
/// a mutation of `from` must invalidate on re-upload.
fn reverse_reachable(m: &Module, from: &BTreeSet<FuncId>) -> BTreeSet<FuncId> {
    let cg = CallGraph::build(m);
    let mut seen: BTreeSet<FuncId> = from.clone();
    let mut work: Vec<FuncId> = from.iter().copied().collect();
    while let Some(f) = work.pop() {
        for &caller in cg.callers(f) {
            if seen.insert(caller) {
                work.push(caller);
            }
        }
    }
    seen
}

#[test]
fn mutated_reupload_invalidates_exactly_the_reverse_reachability_closure() {
    // h0 → h1 → h2 → h3 chained; main calls every helper.
    let (n, structure) = (4, 0b0111u64);
    let old_src = render(n, structure, 0);
    let new_src = render(n, structure, 1 << 2); // mutate h2's body

    let (_, addr, _handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect_tcp(addr).expect("connect");

    // Cold upload: everything is an honest miss.
    let up = client.request(&upload_req("m", &old_src)).expect("upload");
    assert!(up.is_ok());
    assert_eq!(up.num_field("misses"), Some(n as i64 + 1));
    assert_eq!((up.num_field("hits"), up.num_field("invalidated")), (Some(0), Some(0)));

    // Unchanged re-upload: a complete hit.
    let again = client.request(&upload_req("m", &old_src)).expect("re-upload");
    assert_eq!(again.num_field("hits"), Some(n as i64 + 1));
    assert_eq!((again.num_field("misses"), again.num_field("invalidated")), (Some(0), Some(0)));

    // Mutated re-upload: exactly the reverse-reachability closure of h2
    // is invalidated ({h2, h1, h0, main}); h3 stays warm.
    let (fresh, cold_lt) = one_shot(&new_src);
    let h2 = fresh.function_by_name("h2").expect("helper exists");
    let closure = reverse_reachable(&fresh, &BTreeSet::from([h2]));
    let total = fresh.num_functions();
    let mu = client.request(&upload_req("m", &new_src)).expect("mutated re-upload");
    assert!(mu.is_ok());
    assert_eq!(mu.num_field("invalidated"), Some(closure.len() as i64));
    assert_eq!(mu.num_field("hits"), Some((total - closure.len()) as i64));
    assert_eq!(mu.num_field("misses"), Some(0), "same function set: nothing can miss");

    // Differential: daemon answers after the mutated re-upload match a
    // cold one-shot run on the mutated module — eval text byte-for-byte,
    // and every per-function no-alias pair set.
    let ev = client
        .request(&obj([("cmd", Json::Str("eval".into())), ("module", Json::Str("m".into()))]))
        .expect("eval");
    assert_eq!(ev.str_field("text"), Some(render_eval(&fresh, &cold_lt).as_str()));
    for (fid, f) in fresh.functions() {
        let ptrs = AaEval::pointer_values(&fresh, fid);
        let local: Vec<String> = cold_lt
            .engine()
            .no_alias_pairs(f, fid, &ptrs)
            .iter()
            .map(|(a, b)| format!("{a} {b}"))
            .collect();
        let mut streamed = Vec::new();
        client
            .request_streamed(
                &obj([
                    ("cmd", Json::Str("pairs".into())),
                    ("module", Json::Str("m".into())),
                    ("func", Json::Str(f.name.clone())),
                ]),
                |frame| {
                    if let Some(Json::Arr(pair)) = frame.get("pair") {
                        streamed.push(
                            pair.iter().filter_map(Json::as_str).collect::<Vec<_>>().join(" "),
                        );
                    }
                },
            )
            .expect("pairs");
        assert_eq!(streamed, local, "{}: warm daemon vs cold one-shot", f.name);
    }
}

#[test]
fn warm_start_cache_makes_the_first_upload_hit() {
    use sraa::lt::persist;
    // Write a cache file the way `sraa eval --summary-cache` would.
    let path = std::env::temp_dir().join(format!("sraa_serve_warm_{}.bin", std::process::id()));
    std::fs::remove_file(&path).ok();
    {
        let mut m = sraa::minic::compile(CALLS).unwrap();
        let engine =
            sraa::lt::DisambiguationEngine::build(&mut m, EngineConfig::default().with_summaries());
        let keys = sraa::lt::SummaryKeys::compute(&m);
        persist::save(&path, &m, engine.summaries().unwrap(), &keys, Default::default())
            .expect("cache written");
    }
    let cache = persist::load(&path, Default::default()).expect("cache written");
    let server = Box::leak(Box::new(
        Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
            .expect("bind")
            .with_warm_cache(cache),
    ));
    let addr = server.tcp_addr().unwrap();
    std::thread::spawn(|| server.run().expect("serve loop"));
    let mut client = Client::connect_tcp(addr).expect("connect");
    let up = client.request(&upload_req("demo", CALLS)).expect("upload");
    assert_eq!(up.num_field("hits"), Some(3), "warm start: first upload hits fully");
    assert_eq!((up.num_field("misses"), up.num_field("invalidated")), (Some(0), Some(0)));
    client.request(&obj([("cmd", Json::Str("shutdown".into()))])).expect("shutdown");
    std::fs::remove_file(&path).ok();
}

/// Satellite regression: a connection thread that panics — even while
/// holding the daemon's modules write lock — must not take the daemon
/// down or wedge the lock. Before the fix, the accept loop's scoped
/// thread propagated the panic out of `Server::run` (killing the
/// daemon), and every later `.expect("... poisoned")` on the shared
/// locks cascaded. The debug-only `debug-poison` command panics in the
/// connection thread with the write lock held, exercising both fixes at
/// once: `catch_unwind` in the accept loop and `into_inner` recovery on
/// every lock site.
#[cfg(debug_assertions)]
#[test]
fn a_panicking_connection_does_not_take_the_daemon_down() {
    let (server, addr, handle) = spawn_server(ServerConfig::default());
    let mut victim = Client::connect_tcp(addr).expect("connect");
    let r = victim.request(&obj([("cmd", Json::Str("debug-poison".into()))]));
    assert!(r.is_err(), "the panicking connection dies without a reply, got: {r:?}");

    // The daemon keeps serving on a fresh connection: upload, query,
    // stats — all through the locks the dead thread poisoned.
    let mut client = Client::connect_tcp(addr).expect("reconnect after panic");
    let up = client.request(&upload_req("demo", CALLS)).expect("upload after panic");
    assert!(up.is_ok(), "upload failed after a connection panic: {up:?}");
    let ev = client
        .request(&obj([("cmd", Json::Str("eval".into())), ("module", Json::Str("demo".into()))]))
        .expect("eval after panic");
    assert!(ev.is_ok());
    let stats = client.request(&obj([("cmd", Json::Str("stats".into()))])).expect("stats");
    assert_eq!(stats.num_field("panics"), Some(1), "the caught panic is counted");
    assert_eq!(stats.num_field("modules"), Some(1));

    let bye = client.request(&obj([("cmd", Json::Str("shutdown".into()))])).expect("shutdown");
    assert!(bye.is_ok());
    handle.join().expect("serve loop survives a panicking connection");
    assert_eq!(server.stats().panics.load(std::sync::atomic::Ordering::Relaxed), 1);
}

/// A 40 KB upload of nested parentheses (20k levels) would overflow a
/// connection thread's stack, which aborts the whole process rather
/// than unwinding. The front end's nesting budget turns it into a typed
/// `compile-error`, and the next query on the same connection is
/// answered.
#[test]
fn a_deeply_nested_upload_is_a_compile_error_and_the_daemon_lives() {
    let (_, addr, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect_tcp(addr).expect("connect");
    let up = client.request(&upload_req("demo", CALLS)).expect("upload");
    assert!(up.is_ok(), "upload failed: {up:?}");

    let depth = 20_000;
    let nested = format!("int main() {{ return {}1{}; }}", "(".repeat(depth), ")".repeat(depth));
    let r = client.request(&upload_req("deep", &nested)).expect("the daemon replies");
    assert_eq!(r.str_field("error"), Some("compile-error"), "got: {r:?}");

    let ev = client
        .request(&obj([("cmd", Json::Str("eval".into())), ("module", Json::Str("demo".into()))]))
        .expect("the daemon still answers");
    assert!(ev.is_ok(), "eval after the nested upload failed: {ev:?}");
    let bye = client.request(&obj([("cmd", Json::Str("shutdown".into()))])).expect("shutdown");
    assert!(bye.is_ok());
    handle.join().expect("serve loop survives the nested upload");
}

// ---------------------------------------------------------------------
// Malformed input: deterministic cases, then the fuzz property.
// ---------------------------------------------------------------------

mod hostile {
    use super::*;
    use sraa::serve::encode_frame;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::OnceLock;

    /// One shared hostile-input daemon: a tight request-size cap (so
    /// oversized frames are cheap to trigger) and a short read timeout
    /// (the fuzz hang bound).
    fn fuzz_addr() -> SocketAddr {
        static ADDR: OnceLock<SocketAddr> = OnceLock::new();
        *ADDR.get_or_init(|| {
            let server = Box::leak(Box::new(
                Server::bind_tcp(
                    "127.0.0.1:0",
                    ServerConfig {
                        read_timeout: Duration::from_millis(400),
                        max_frame: 1024,
                        ..Default::default()
                    },
                )
                .expect("bind fuzz server"),
            ));
            let addr = server.tcp_addr().unwrap();
            std::thread::spawn(|| server.run().expect("fuzz serve loop"));
            addr
        })
    }

    /// Sends raw bytes on a fresh connection and reads one reply line.
    /// `Some(json)` = the server replied with a well-formed frame;
    /// `None` = clean close. A hang (no reply, no close, beyond far more
    /// than the server's read timeout) panics.
    fn poke(bytes: &[u8]) -> Option<Json> {
        let stream = TcpStream::connect(fuzz_addr()).expect("server alive");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // A server-side early close (EPIPE) is a clean close, not a fail.
        if writer.write_all(bytes).is_err() {
            return None;
        }
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        loop {
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => return None, // clean close
                Ok(_) if line.last() == Some(&b'\n') => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    panic!("server hung past its read timeout on {} bytes", bytes.len())
                }
                Err(_) => return None,
            }
        }
        let text = std::str::from_utf8(&line).expect("server frames are UTF-8");
        let payload = sraa::serve::decode_frame(text, usize::MAX >> 1)
            .expect("server frames are well-formed");
        Some(sraa::serve::parse(payload).expect("server payloads are JSON"))
    }

    fn error_code(reply: &Json) -> String {
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "expected typed error: {reply:?}");
        reply.str_field("error").expect("typed errors carry a code").to_string()
    }

    #[test]
    fn every_defect_gets_its_typed_code_and_the_connection_survives() {
        let stats_frame = encode_frame(&obj([("cmd", Json::Str("stats".into()))]).render());
        // One connection, every defect in sequence — the server answers
        // each with a typed error and keeps the connection open.
        let stream = TcpStream::connect(fuzz_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut ask = |line: &str| -> Json {
            writer.write_all(line.as_bytes()).expect("write");
            let mut reply = String::new();
            loop {
                let mut l = String::new();
                match reader.read_line(&mut l) {
                    Ok(0) => panic!("server closed instead of replying"),
                    Ok(_) => {
                        reply.push_str(&l);
                        if reply.ends_with('\n') {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        panic!("server hung")
                    }
                    Err(e) => panic!("read error: {e}"),
                }
            }
            let payload = sraa::serve::decode_frame(&reply, usize::MAX >> 1).expect("frame");
            sraa::serve::parse(payload).expect("json")
        };

        assert_eq!(error_code(&ask("not a frame at all\n")), "bad-magic");
        assert_eq!(error_code(&ask("sraa1 zz\n")), "bad-header");
        assert_eq!(error_code(&ask("sraa1 3 0123456789abcdef xy\n")), "length-mismatch");
        assert_eq!(error_code(&ask("sraa1 2 0123456789abcdef xy\n")), "bad-checksum");
        assert_eq!(error_code(&ask("sraa1 99999 0123456789abcdef x\n")), "oversized");
        let bad_json = encode_frame("{oops");
        assert_eq!(error_code(&ask(&bad_json)), "bad-json");
        let unknown = encode_frame(&obj([("cmd", Json::Str("frobnicate".into()))]).render());
        assert_eq!(error_code(&ask(&unknown)), "unknown-cmd");
        let no_cmd = encode_frame("{}");
        assert_eq!(error_code(&ask(&no_cmd)), "bad-request");
        let ghost = encode_frame(
            &obj([("cmd", Json::Str("eval".into())), ("module", Json::Str("nope".into()))])
                .render(),
        );
        assert_eq!(error_code(&ask(&ghost)), "no-such-module");
        let bad_src = encode_frame(
            &obj([
                ("cmd", Json::Str("upload".into())),
                ("name", Json::Str("m".into())),
                ("source", Json::Str("int main( {".into())),
            ])
            .render(),
        );
        assert_eq!(error_code(&ask(&bad_src)), "compile-error");
        // After all that abuse, the same connection still answers.
        let alive = ask(&stats_frame);
        assert!(alive.is_ok(), "connection died after typed errors: {alive:?}");
        assert!(alive.num_field("errors").unwrap_or(0) >= 10);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes terminated by a newline: the server sends a
            /// typed reply or closes cleanly, and stays alive either way.
            #[test]
            fn random_frames_never_wedge_the_server(
                bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..200),
            ) {
                let mut line = bytes.clone();
                line.push(b'\n');
                if let Some(reply) = poke(&line) {
                    prop_assert!(reply.get("ok").is_some(), "reply is not a protocol object");
                }
                // The server survived: a valid request still answers.
                let stats = poke(encode_frame(
                    &obj([("cmd", Json::Str("stats".into()))]).render(),
                ).as_bytes()).expect("server must be alive");
                prop_assert!(stats.is_ok());
            }

            /// Truncating a valid frame anywhere yields a typed error or a
            /// clean close — never a hang or a crash.
            #[test]
            fn truncated_frames_fail_typed(cut_ratio in 0usize..100) {
                let frame = encode_frame(
                    &obj([("cmd", Json::Str("stats".into()))]).render(),
                );
                let cut = cut_ratio * (frame.len() - 1) / 100;
                let mut line = frame.as_bytes()[..cut].to_vec();
                line.push(b'\n');
                if let Some(reply) = poke(&line) {
                    prop_assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
                }
            }

            /// Frames past the request-size cap answer `oversized` (the
            /// declared-length check or the bounded line discard — both
            /// surface the same code) and never hang.
            #[test]
            fn oversized_frames_answer_the_typed_code(extra in 0usize..4000) {
                let big = "x".repeat(1500 + extra); // cap is 1024
                let line = encode_frame(&Json::Str(big).render());
                let reply = poke(line.as_bytes()).expect("oversized gets a reply");
                prop_assert_eq!(reply.str_field("error"), Some("oversized"));
            }
        }
    }
}
