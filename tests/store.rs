//! End-to-end tests of the content-addressed shared summary store:
//! concurrent in-process merges through one [`SharedSummaryStore`],
//! cross-process sharing between two live daemons, one-shot CLI runs
//! sharing a directory, and torn-segment robustness.
//!
//! The correctness contract throughout: a store-assisted run produces
//! **byte-identical** solved LT sets (and therefore byte-identical
//! stdout) to a cold serial run — the store is a pure accelerator, never
//! a source of answers a cold solve would not give.

use sraa::alias::{render_eval, StrictInequalityAa};
use sraa::lt::{DisambiguationEngine, EngineConfig, FunctionSummary, SharedSummaryStore};
use std::path::PathBuf;
use std::process::{Command, Output};

/// One module of the overlapping family: every module shares the same
/// three-deep helper chain (identical bodies, identical call structure —
/// so identical content-addressed keys), while `main` differs per module
/// (a different constant), so each upload has fresh work *and* work the
/// store can answer.
fn family(module_idx: usize) -> String {
    format!(
        "int* h2(int* p, int n) {{ if (n > 0) {{ return p + n; }} return p + 1; }}\n\
         int* h1(int* p, int n) {{ int* q = h2(p, n); return q + 1; }}\n\
         int* h0(int* p, int n) {{ int* q = h1(p, n); return q + 2; }}\n\
         int main() {{ int a[64]; int* r = h0(a, {}); *r = 1; a[0] = 2; return *r + a[0]; }}\n",
        module_idx + 1
    )
}

/// Unique temp dir per test (tests run in parallel within one process).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sraa_store_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The cold reference: a fresh interprocedural solve with no store and
/// no cache, rendered to the `aa-eval` report (covers every function's
/// verdict set — a summary-level divergence would change it).
fn cold_eval(src: &str) -> String {
    let mut m = sraa::minic::compile(src).expect("source compiles");
    let lt =
        StrictInequalityAa::with_engine_config(&mut m, EngineConfig::default().with_summaries());
    render_eval(&m, &lt)
}

/// A store-assisted solve through a caller-held handle, returning the
/// rendered report and the engine's store counters.
fn store_eval(src: &str, store: &SharedSummaryStore) -> (String, u32, u32, u32) {
    let mut m = sraa::minic::compile(src).expect("source compiles");
    let engine = DisambiguationEngine::build_with_cache_and_store(
        &mut m,
        EngineConfig::default().with_summaries(),
        None,
        Some(store),
    );
    let s = engine.stats();
    let (hits, misses, published) = (s.store_hits, s.store_misses, s.store_published);
    let lt = StrictInequalityAa::from_engine(engine);
    (render_eval(&m, &lt), hits, misses, published)
}

/// Satellite: the concurrent-merge stress. N scoped threads push an
/// overlapping module family through ONE store handle; every thread's
/// answers must be byte-identical to serial cold runs (insert-if-absent
/// merging — no torn summaries, no cross-module pollution), and a final
/// warm run on a fresh family member answers its helpers from the store.
#[test]
fn concurrent_merges_match_serial_cold_runs_byte_for_byte() {
    const MODULES: usize = 12;
    const THREADS: usize = 4;
    let cold: Vec<String> = (0..MODULES).map(|i| cold_eval(&family(i))).collect();

    let dir = temp_dir("merge");
    let cfg = EngineConfig::default();
    let store = SharedSummaryStore::open(&dir, cfg.gen).expect("store opens");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = &store;
                let cold = &cold;
                scope.spawn(move || {
                    for i in (t..MODULES).step_by(THREADS) {
                        let (text, _, _, _) = store_eval(&family(i), store);
                        assert_eq!(
                            text, cold[i],
                            "module {i} on thread {t}: store-assisted run diverged from cold"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("merge thread");
        }
    });
    assert!(!store.is_empty(), "the stress run must have published summaries");

    // A brand-new family member after the stress: its helpers are
    // answered from the store (hits > 0), its fresh `main` is an honest
    // miss, and the output still matches a cold solve exactly.
    let fresh = family(MODULES);
    let (text, hits, misses, _) = store_eval(&fresh, &store);
    assert_eq!(text, cold_eval(&fresh), "warm run diverged from cold");
    assert!(hits > 0, "shared helpers must hit the populated store");
    assert!(misses > 0, "the fresh main must miss");

    // A second handle on the same directory sees everything the first
    // published — the on-disk segments are the source of truth.
    let reopened = SharedSummaryStore::open(&dir, cfg.gen).expect("store reopens");
    assert_eq!(reopened.len(), store.len(), "reopen must load every published summary");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: torn-segment robustness at the integration level. Garbage
/// and truncated segment files in the store directory are skipped with a
/// count — never a panic, never a wrong answer.
#[test]
fn torn_segments_are_skipped_and_answers_stay_cold_identical() {
    let dir = temp_dir("torn");
    let cfg = EngineConfig::default();

    // Populate the store, then plant two defective segments beside the
    // good one: raw garbage and a truncation of a real segment.
    {
        let store = SharedSummaryStore::open(&dir, cfg.gen).expect("store opens");
        let (_, _, _, published) = store_eval(&family(0), &store);
        assert!(published > 0, "cold run must publish");
    }
    let good: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store dir listable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(!good.is_empty(), "publishing must write a segment");
    let bytes = std::fs::read(&good[0]).expect("segment readable");
    std::fs::write(dir.join("seg-fffffffffffffff0-00000000-0000.sraaseg"), b"not a segment")
        .unwrap();
    std::fs::write(
        dir.join("seg-fffffffffffffff1-00000000-0000.sraaseg"),
        &bytes[..bytes.len() / 2],
    )
    .unwrap();

    let store =
        SharedSummaryStore::open(&dir, cfg.gen).expect("defective segments never fail open");
    assert_eq!(store.skipped_segments(), 2, "both defective segments are counted");
    let src = family(0);
    let (text, hits, _, _) = store_eval(&src, &store);
    assert_eq!(text, cold_eval(&src), "defective segments must not change answers");
    assert!(hits > 0, "the good segment still serves hits");
    std::fs::remove_dir_all(&dir).ok();
}

/// Two handles on one directory in one process start from the same
/// generation, so their segment names must still differ: otherwise the
/// second handle's first publish renames over the first handle's segment
/// and key 1 is lost for every later reader.
#[test]
fn two_handles_in_one_process_keep_each_others_segments() {
    let dir = temp_dir("two_handles");
    let gen = EngineConfig::default().gen;
    let summary = FunctionSummary::default();
    let a = SharedSummaryStore::open(&dir, gen).expect("store opens");
    let b = SharedSummaryStore::open(&dir, gen).expect("store opens");
    assert_eq!(a.publish(&[(1, summary.clone())]).expect("A publishes"), 1);
    assert_eq!(b.publish(&[(2, summary.clone())]).expect("B publishes"), 1);
    assert_eq!(std::fs::read_dir(&dir).expect("store dir listable").count(), 2);

    let fresh = SharedSummaryStore::open(&dir, gen).expect("store reopens");
    assert_eq!(fresh.get(1), Some(summary.clone()), "A's segment survives B's publish");
    assert_eq!(fresh.get(2), Some(summary));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Subprocess tests: the CLI one-shot path and two live daemons sharing
// one store directory.
// ---------------------------------------------------------------------

fn sraa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sraa")).args(args).output().expect("sraa binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Parses `# shared-store: H hit(s), M miss(es), P published …` from a
/// CLI stderr transcript.
fn parse_store_line(err: &str) -> (u64, u64, u64) {
    let line = err
        .lines()
        .find(|l| l.starts_with("# shared-store:"))
        .unwrap_or_else(|| panic!("no shared-store line in: {err}"));
    let mut nums = line.split_whitespace().filter_map(|w| w.parse::<u64>().ok());
    (nums.next().expect("hits"), nums.next().expect("misses"), nums.next().expect("published"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sraa_store_{name}_{}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file written");
    path
}

/// One-shot sharing: `eval --shared-store` twice on overlapping modules —
/// the second run hits the store and stdout stays byte-identical to a
/// plain `--interproc` run.
#[test]
fn one_shot_runs_share_summaries_across_processes() {
    let dir = temp_dir("oneshot");
    let dir_s = dir.to_str().unwrap();
    let f0 = write_temp("oneshot_a.c", &family(0));
    let f1 = write_temp("oneshot_b.c", &family(1));

    let cold = sraa(&["eval", f0.to_str().unwrap(), "--shared-store", dir_s]);
    assert!(cold.status.success(), "cold eval: {}", stderr(&cold));
    let (h, _, p) = parse_store_line(&stderr(&cold));
    assert_eq!(h, 0, "an empty store cannot hit");
    assert!(p > 0, "the cold run must publish its summaries");
    let plain = sraa(&["eval", f0.to_str().unwrap(), "--interproc"]);
    assert_eq!(stdout(&cold), stdout(&plain), "the store must not change stdout");

    // A separate process, an overlapping module: the shared helpers hit.
    let warm = sraa(&["eval", f1.to_str().unwrap(), "--shared-store", dir_s]);
    assert!(warm.status.success(), "warm eval: {}", stderr(&warm));
    let (h, m, _) = parse_store_line(&stderr(&warm));
    assert!(h > 0, "overlapping helpers must hit: {}", stderr(&warm));
    assert!(m > 0, "the fresh main must miss");
    let plain = sraa(&["eval", f1.to_str().unwrap(), "--interproc"]);
    assert_eq!(stdout(&warm), stdout(&plain), "warm stdout must stay byte-identical");

    std::fs::remove_file(&f0).ok();
    std::fs::remove_file(&f1).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A defective store directory (a plain file where the dir should be)
/// degrades to a warning and a storeless run — exit 0, correct stdout.
#[test]
fn unusable_store_dir_warns_and_runs_without_a_store() {
    let blocker = write_temp("blocker", "this is a file, not a directory");
    let f = write_temp("blocked.c", &family(0));
    let out = sraa(&["eval", f.to_str().unwrap(), "--shared-store", blocker.to_str().unwrap()]);
    assert!(out.status.success(), "must degrade, not fail: {}", stderr(&out));
    assert!(stderr(&out).contains("shared-store warning"), "got: {}", stderr(&out));
    let plain = sraa(&["eval", f.to_str().unwrap(), "--interproc"]);
    assert_eq!(stdout(&out), stdout(&plain));
    std::fs::remove_file(&blocker).ok();
    std::fs::remove_file(&f).ok();
}

/// Tentpole acceptance: two LIVE daemons share one store directory.
/// Daemon A's upload publishes; daemon B (a separate process) refreshes
/// at upload time, answers the overlapping helpers from A's segments,
/// and reports the hits both in the upload reply and in `query stats`.
#[cfg(unix)]
#[test]
fn two_daemons_share_summaries_through_one_store_directory() {
    let dir = temp_dir("daemons");
    let dir_s = dir.to_str().unwrap().to_string();
    let fa = write_temp("daemon_a.c", &family(0));
    let fb = write_temp("daemon_b.c", &family(1));

    let spawn = |tag: &str| {
        let sock =
            std::env::temp_dir().join(format!("sraa_store_{tag}_{}.sock", std::process::id()));
        std::fs::remove_file(&sock).ok();
        let child = Command::new(env!("CARGO_BIN_EXE_sraa"))
            .args(["serve", "--socket", sock.to_str().unwrap(), "--shared-store", &dir_s])
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("daemon starts");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !sock.exists() {
            assert!(std::time::Instant::now() < deadline, "daemon {tag} never bound its socket");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        (child, sock)
    };
    let (mut daemon_a, sock_a) = spawn("daemon_a");
    let (mut daemon_b, sock_b) = spawn("daemon_b");

    // Daemon A solves module 0 cold and publishes every summary.
    let up_a = sraa(&[
        "query",
        "--socket",
        sock_a.to_str().unwrap(),
        "upload",
        "ma",
        fa.to_str().unwrap(),
    ]);
    assert!(up_a.status.success(), "upload to A: {}", stderr(&up_a));
    let (h, _, p) = parse_store_line(&stderr(&up_a));
    assert_eq!(h, 0, "daemon A starts against an empty store");
    assert!(p > 0, "daemon A must publish");

    // Daemon B — alive the whole time — refreshes at upload and answers
    // the overlapping helpers from A's segments on its FIRST upload.
    let up_b = sraa(&[
        "query",
        "--socket",
        sock_b.to_str().unwrap(),
        "upload",
        "mb",
        fb.to_str().unwrap(),
    ]);
    assert!(up_b.status.success(), "upload to B: {}", stderr(&up_b));
    let (h, m, _) = parse_store_line(&stderr(&up_b));
    assert!(h > 0, "daemon B must hit A's published summaries: {}", stderr(&up_b));
    assert!(m > 0, "module B's fresh main must miss");

    // The resident answer is still byte-identical to a cold one-shot.
    let resident = sraa(&["query", "--socket", sock_b.to_str().unwrap(), "eval", "mb"]);
    let oneshot = sraa(&["eval", fb.to_str().unwrap(), "--interproc"]);
    assert!(resident.status.success() && oneshot.status.success());
    assert_eq!(stdout(&resident), stdout(&oneshot), "store-fed daemon vs cold one-shot");

    // `query stats` surfaces the store counters.
    let stats = sraa(&["query", "--socket", sock_b.to_str().unwrap(), "stats"]);
    assert!(stats.status.success());
    let text = stdout(&stats);
    let counter = |k: &str| -> i64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{k}: ")))
            .unwrap_or_else(|| panic!("no `{k}` in stats:\n{text}"))
            .parse()
            .expect("stats counters are integers")
    };
    assert!(counter("store_hits") > 0, "stats must report B's store hits:\n{text}");

    for (sock, daemon) in [(sock_a, &mut daemon_a), (sock_b, &mut daemon_b)] {
        let bye = sraa(&["query", "--socket", sock.to_str().unwrap(), "shutdown"]);
        assert!(bye.status.success(), "shutdown: {}", stderr(&bye));
        let status = daemon.wait().expect("daemon exits");
        assert_eq!(status.code(), Some(0), "daemon must exit cleanly");
    }
    // Both daemons' shutdown stats lines carry the store counters.
    let mut err = String::new();
    std::io::Read::read_to_string(&mut daemon_b.stderr.take().expect("piped"), &mut err)
        .expect("read daemon B stderr");
    assert!(err.contains("# serve: shared store at"), "no boot line in: {err}");
    assert!(err.contains("store "), "no store counters in the stats line: {err}");
    std::fs::remove_file(&fa).ok();
    std::fs::remove_file(&fb).ok();
    std::fs::remove_dir_all(&dir).ok();
}
