//! End-to-end smoke tests for the `sraa` CLI binary: every subcommand is
//! exercised on a tiny MiniC program so the binary path — argument
//! parsing, file loading, and each driver — is covered, not just the
//! libraries.

use std::path::PathBuf;
use std::process::{Command, Output};

const TINY: &str = r#"
int main() {
  int a[8];
  int i;
  for (i = 0; i < 8; i = i + 1) {
    a[i] = i * 2;
  }
  return a[3];
}
"#;

fn tiny_file() -> PathBuf {
    // Written exactly once: tests run in parallel, and rewriting would
    // truncate the file while another test's subprocess is reading it.
    static TINY_PATH: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    TINY_PATH
        .get_or_init(|| {
            let path =
                std::env::temp_dir().join(format!("sraa_cli_smoke_{}.c", std::process::id()));
            std::fs::write(&path, TINY).expect("can write temp MiniC file");
            path
        })
        .clone()
}

fn sraa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sraa")).args(args).output().expect("sraa binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = sraa(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sraa"));
}

#[test]
fn deeply_nested_source_is_a_clean_error() {
    let depth = 200_000;
    let src = format!("int main() {{ return {}1{}; }}", "(".repeat(depth), ")".repeat(depth));
    let path = std::env::temp_dir().join(format!("sraa_cli_nested_{}.c", std::process::id()));
    std::fs::write(&path, src).expect("can write temp MiniC file");
    let out = sraa(&["eval", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    // A compile error (exit 1), not a stack overflow abort (SIGABRT).
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("nesting deeper than"), "got: {}", stderr_of(&out));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = sraa(&["compile", "/nonexistent/sraa_smoke.c"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn compile_prints_ssa_ir() {
    let f = tiny_file();
    let out = sraa(&["compile", f.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let ir = stdout(&out);
    assert!(ir.contains("func @main"), "no function header in:\n{ir}");
    assert!(ir.contains("alloca"), "array allocation missing in:\n{ir}");
}

#[test]
fn compile_essa_reports_sigma_stats() {
    let f = tiny_file();
    let out = sraa(&["compile", f.to_str().unwrap(), "--essa"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("e-SSA"));
}

#[test]
fn run_interprets_main() {
    let f = tiny_file();
    let out = sraa(&["run", f.to_str().unwrap()]);
    assert!(out.status.success());
    // a[3] = 3 * 2
    assert!(stdout(&out).contains("result: Some(6)"), "got: {}", stdout(&out));
}

#[test]
fn eval_summarises_all_analyses() {
    let f = tiny_file();
    let out = sraa(&["eval", f.to_str().unwrap()]);
    assert!(out.status.success());
    let summary = stdout(&out);
    for analysis in ["BA", "LT", "CF", "ST", "PT", "BA+LT"] {
        assert!(summary.contains(analysis), "missing {analysis} row in:\n{summary}");
    }
}

#[test]
fn lt_prints_strict_inequality_sets() {
    let f = tiny_file();
    let out = sraa(&["lt", f.to_str().unwrap(), "main"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("LT sets of @main"), "got:\n{text}");
    assert!(text.contains("constraints"), "missing solver stats in:\n{text}");
}

#[test]
fn lt_solver_flag_selects_strategy_without_changing_sets() {
    let f = tiny_file();
    let path = f.to_str().unwrap();
    let scc = sraa(&["lt", path, "main", "--solver", "scc"]);
    let wl = sraa(&["lt", path, "main", "--solver", "worklist"]);
    assert!(scc.status.success() && wl.status.success());
    let (scc, wl) = (stdout(&scc), stdout(&wl));
    assert!(scc.contains("[scc solver]"), "got:\n{scc}");
    assert!(wl.contains("[worklist solver]"), "got:\n{wl}");
    // Identical LT sets: only the stats line (strategy name + work
    // counter) may differ.
    fn sets(s: &str) -> Vec<String> {
        s.lines().filter(|l| l.contains("LT(")).map(str::to_owned).collect()
    }
    assert_eq!(sets(&scc), sets(&wl), "solver strategies must print identical LT sets");
}

#[test]
fn solver_flag_defaults_to_scc() {
    let f = tiny_file();
    let out = sraa(&["lt", f.to_str().unwrap(), "main"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("[scc solver]"), "got: {}", stdout(&out));
}

#[test]
fn solver_flag_rejects_unknown_strategies() {
    let f = tiny_file();
    let out = sraa(&["eval", f.to_str().unwrap(), "--solver", "magic"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown solver"));
    let out = sraa(&["eval", f.to_str().unwrap(), "--solver"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn eval_accepts_solver_flag_with_identical_summary() {
    let f = tiny_file();
    let path = f.to_str().unwrap();
    let scc = sraa(&["eval", path, "--solver", "scc"]);
    let wl = sraa(&["eval", path, "--solver", "worklist"]);
    assert!(scc.status.success() && wl.status.success());
    assert_eq!(stdout(&scc), stdout(&wl), "verdict tallies must not depend on the strategy");
}

#[test]
fn repeated_lt_runs_are_byte_identical() {
    let f = tiny_file();
    let path = f.to_str().unwrap();
    let first = sraa(&["lt", path, "main"]);
    assert!(first.status.success());
    for _ in 0..2 {
        let again = sraa(&["lt", path, "main"]);
        assert_eq!(stdout(&first), stdout(&again), "lt output must be deterministic");
    }
}

const CALLS: &str = r#"
int* advance(int* p, int k) {
  if (k > 0) { return p + k; }
  return p + 1;
}
int use_helper(int* v, int n) {
  int acc = 0;
  for (int i = 1; i + 4 < n; i++) {
    int* q = advance(v, i);
    *q = i;
    *v = acc;
    acc += *q;
  }
  return acc;
}
int main() {
  int a[16];
  for (int i = 0; i < 16; i++) a[i] = i;
  return use_helper(a, 12);
}
"#;

fn calls_file() -> PathBuf {
    static CALLS_PATH: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    CALLS_PATH
        .get_or_init(|| {
            let path =
                std::env::temp_dir().join(format!("sraa_cli_calls_{}.c", std::process::id()));
            std::fs::write(&path, CALLS).expect("can write temp MiniC file");
            path
        })
        .clone()
}

/// The `LT` row of an `eval` summary as (no-alias, may, must).
fn lt_row(summary: &str) -> (u64, u64, u64) {
    let line = summary
        .lines()
        .find(|l| l.split_whitespace().next() == Some("LT"))
        .unwrap_or_else(|| panic!("no LT row in:\n{summary}"));
    let mut it = line.split_whitespace().skip(1).map(|n| n.parse().expect("count"));
    (it.next().unwrap(), it.next().unwrap(), it.next().unwrap())
}

#[test]
fn unknown_flags_are_rejected_with_usage() {
    let f = tiny_file();
    let path = f.to_str().unwrap();
    // Pre-fix regression: anything left after `--solver` was stripped
    // used to be silently ignored, hiding typos like `--interporc`.
    for args in [
        vec!["eval", path, "--frobnicate"],
        vec!["eval", path, "--solver", "scc", "--interporc"],
        // There is no lattice-store flag: the engine has one store.
        vec!["eval", path, "--lattice", "dense"],
        vec!["lt", path, "main", "--lattice", "arc"],
        vec!["lt", path, "main", "--bogus"],
        // The summary-cache file is gone: `--shared-store` is the one
        // persistent summary reuse.
        vec!["eval", path, "--summary-cache", "sraa.cache"],
        vec!["compile", path, "--interproc"], // not an engine subcommand
        vec!["opt", path, "--ba", "--wat"],
        vec!["pdg", path, "--wat"],
        vec!["run", path, "--wat"],
        vec!["gen", "1", "2", "--wat"],
    ] {
        let out = sraa(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("unknown flag"), "args {args:?}: {err}");
        assert!(err.contains("usage:"), "args {args:?}: {err}");
    }
}

#[test]
fn lattice_flag_rejects_unknown_backends() {
    let f = tiny_file();
    let path = f.to_str().unwrap();
    // There is no lattice-store flag any more: the engine has one store,
    // so every backend name, old or new, and a bare `--lattice` are
    // rejected as unknown flags.
    for args in [
        vec!["eval", path, "--lattice", "sparse"],
        vec!["eval", path, "--lattice", "dense"],
        vec!["lt", path, "main", "--lattice", "arc"],
        vec!["eval", path, "--lattice"],
    ] {
        let out = sraa(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let err = stderr_of(&out);
        assert!(err.contains("unknown flag"), "args {args:?}: {err}");
        assert!(err.contains("usage:"), "args {args:?}: {err}");
    }
}

#[test]
fn eval_interproc_gains_no_alias_verdicts() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    let intra = sraa(&["eval", path]);
    let inter = sraa(&["eval", path, "--interproc"]);
    assert!(intra.status.success() && inter.status.success());
    let (intra_na, _, _) = lt_row(&stdout(&intra));
    let (inter_na, _, _) = lt_row(&stdout(&inter));
    assert!(
        inter_na > intra_na,
        "summaries must add LT no-alias verdicts: {intra_na} -> {inter_na}"
    );
}

#[test]
fn interproc_output_is_deterministic_and_solver_independent() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    let first = sraa(&["eval", path, "--interproc"]);
    assert!(first.status.success());
    let again = sraa(&["eval", path, "--interproc"]);
    assert_eq!(stdout(&first), stdout(&again), "interproc eval must be deterministic");
    let wl = sraa(&["eval", path, "--interproc", "--solver", "worklist"]);
    assert_eq!(stdout(&first), stdout(&wl), "verdicts must not depend on the solver strategy");
}

#[test]
fn lt_interproc_reports_summary_stats() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    let out = sraa(&["lt", path, "use_helper", "--interproc"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("interproc:"), "missing summary stats line in:\n{text}");
    assert!(text.contains("summary fact(s)"), "got:\n{text}");
    // Intra mode must not print the summary line.
    let intra = sraa(&["lt", path, "use_helper"]);
    assert!(!stdout(&intra).contains("interproc:"));
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh per-test store directory (tests run in parallel; never share
/// one).
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sraa_cli_store_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The summary cache on disk is the `--shared-store` directory: a cold
/// run publishes, an untouched warm run answers every function from it.
#[test]
fn summary_cache_warm_run_is_byte_identical_with_full_hits() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    let dir = store_dir("warm");
    let dir_s = dir.to_str().unwrap();

    let plain = sraa(&["eval", path, "--interproc"]);
    let cold = sraa(&["eval", path, "--shared-store", dir_s]);
    let warm = sraa(&["eval", path, "--shared-store", dir_s]);
    assert!(plain.status.success() && cold.status.success() && warm.status.success());
    // stdout must not betray the store in any way.
    assert_eq!(stdout(&plain), stdout(&cold), "a cold store run must match --interproc");
    assert_eq!(stdout(&cold), stdout(&warm), "warm and cold runs must be byte-identical");
    // The outcome report lives on stderr.
    assert!(stderr_of(&cold).contains("(0.0% hit rate)"), "cold: {}", stderr_of(&cold));
    assert!(stderr_of(&warm).contains("(100.0% hit rate)"), "warm: {}", stderr_of(&warm));
    assert!(stderr_of(&warm).contains("0 miss(es), 0 published"), "warm: {}", stderr_of(&warm));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn summary_cache_works_on_every_engine_verb() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    for verb in
        [vec!["eval", path], vec!["lt", path, "use_helper"], vec!["pdg", path], vec!["opt", path]]
    {
        let dir = store_dir(&format!("verb_{}", verb[0]));
        let mut stored = verb.clone();
        stored.extend(["--shared-store", dir.to_str().unwrap()]);
        let cold = sraa(&stored);
        let warm = sraa(&stored);
        assert!(cold.status.success() && warm.status.success(), "{verb:?}");
        // Analysis *results* must be byte-identical. The `lt` verb also
        // prints a work-statistics line ("… N solve(s)") that honestly
        // reports the warm run's skipped solves — exclude only that.
        let results = |out: &Output| -> Vec<String> {
            stdout(out)
                .lines()
                .filter(|l| !l.starts_with("interproc:"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(results(&cold), results(&warm), "{verb:?}: warm stdout differs");
        assert!(stderr_of(&warm).contains(" 0 miss(es)"), "{verb:?}: {}", stderr_of(&warm));
        std::fs::remove_dir_all(&dir).ok();
    }
    // A dangling `--shared-store` with no value is a usage error.
    let out = sraa(&["eval", path, "--shared-store"]);
    assert_eq!(out.status.code(), Some(2));
}

/// Truncated, corrupted and version-mismatched store segments are
/// skipped: exit 0, stdout identical to a storeless `--interproc` run,
/// and a warning on stderr naming the directory and the count — never a
/// panic or a stale result. The run publishes a good segment next to the
/// defective one, so the next run is fully warm.
#[test]
fn defective_cache_files_fall_back_to_cold_with_a_warning() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    let reference = sraa(&["eval", path, "--interproc"]);
    assert!(reference.status.success());

    let seed = store_dir("defect_seed");
    let cold = sraa(&["eval", path, "--shared-store", seed.to_str().unwrap()]);
    assert!(cold.status.success());
    let segment = std::fs::read_dir(&seed).unwrap().next().expect("a segment").unwrap();
    let (name, good) = (segment.file_name(), std::fs::read(segment.path()).unwrap());

    let mut corrupted = good.clone();
    corrupted[good.len() / 2] ^= 0x40;
    let truncated = good[..good.len() / 2].to_vec();
    // Patch the format version (offset 8, little-endian u16) and re-seal
    // the checksum so the *version* check — not the checksum — fires.
    let mut vnext = good.clone();
    vnext[8..10].copy_from_slice(&(sraa_core::FORMAT_VERSION + 1).to_le_bytes());
    let payload_len = vnext.len() - 8;
    let mut h = sraa_ir::Fnv64::new();
    h.write(&vnext[..payload_len]);
    let checksum = h.finish().to_le_bytes();
    vnext[payload_len..].copy_from_slice(&checksum);

    for (tag, bytes) in [("corrupted", corrupted), ("truncated", truncated), ("version", vnext)] {
        let dir = store_dir(&format!("defect_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&name), &bytes).unwrap();
        let dir_s = dir.to_str().unwrap();
        let out = sraa(&["eval", path, "--shared-store", dir_s]);
        assert_eq!(out.status.code(), Some(0), "{tag}: must fall back, not fail");
        assert_eq!(
            stdout(&out),
            stdout(&reference),
            "{tag}: fallback output must match a storeless run exactly"
        );
        let warning = format!("# shared-store warning: {dir_s}: 1 defective segment(s) skipped");
        assert!(stderr_of(&out).contains(&warning), "{tag}: no warning: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("(0.0% hit rate)"), "{tag}: {}", stderr_of(&out));
        // The run published a good segment: the next run is fully warm,
        // and still names the defective file it skips.
        let again = sraa(&["eval", path, "--shared-store", dir_s]);
        assert!(again.status.success());
        assert!(stderr_of(&again).contains("(100.0% hit rate)"), "{tag}: {}", stderr_of(&again));
        assert!(stderr_of(&again).contains(&warning), "{tag}: {}", stderr_of(&again));
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&seed).ok();
}

#[test]
fn pdg_counts_memory_nodes() {
    let f = tiny_file();
    let out = sraa(&["pdg", f.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("memory nodes"), "got: {}", stdout(&out));
}

#[test]
fn opt_preserves_program_behaviour() {
    let f = tiny_file();
    let out = sraa(&["opt", f.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // The optimised IR is printed on stdout and must still be a module.
    assert!(stdout(&out).contains("func @main"));
}

#[test]
fn gen_emits_compilable_minic() {
    let out = sraa(&["gen", "7", "2"]);
    assert!(out.status.success());
    let source = stdout(&out);
    assert!(source.contains("int main"), "generator output:\n{source}");
    // The generated program must round-trip through our own front end.
    let path = std::env::temp_dir().join(format!("sraa_cli_gen_{}.c", std::process::id()));
    std::fs::write(&path, &source).unwrap();
    let out = sraa(&["compile", path.to_str().unwrap()]);
    assert!(out.status.success(), "generated program failed to compile");
}

#[test]
fn malformed_numbers_and_extra_arguments_are_usage_errors() {
    let f = tiny_file();
    let path = f.to_str().unwrap();
    // Each of these used to exit 0 with a default substituted for the bad
    // word (or, for `run`, drop it and trap on the argument count).
    for args in [
        vec!["gen", "abc"],
        vec!["gen", "-5"],
        vec!["gen", "1", "999"],
        vec!["gen", "1", "3", "extra", "junk"],
        vec!["run", path, "x4"],
        vec!["run", path, "1", "2.5"],
    ] {
        let out = sraa(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "args {args:?} printed: {}", stdout(&out));
        assert!(stderr_of(&out).contains("usage:"), "args {args:?}: {}", stderr_of(&out));
    }
    // Missing arguments keep their defaults: seed 1, depth 3.
    let full = sraa(&["gen", "1", "3"]);
    assert!(full.status.success());
    assert_eq!(sraa(&["gen"]).stdout, full.stdout);
    assert_eq!(sraa(&["gen", "1"]).stdout, full.stdout);
}

#[test]
fn jobs_flag_is_unknown_and_sraa_jobs_is_ignored() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    // The engine runs on the calling thread: there is no worker count to
    // pick, so `--jobs` with or without a value is an unknown flag.
    for args in [
        vec!["eval", path, "--jobs", "2"],
        vec!["lt", path, "use_helper", "--interproc", "--jobs", "1"],
        vec!["eval", path, "--jobs"],
    ] {
        let out = sraa(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let err = stderr_of(&out);
        assert!(err.contains("unknown flag"), "args {args:?}: {err}");
        assert!(err.contains("usage:"), "args {args:?}: {err}");
    }
    assert!(!stderr_of(&sraa(&[])).contains("--jobs"), "the usage must not offer --jobs");

    // And the environment knob is not read at all: stdout and stderr are
    // byte-identical with and without it.
    let run = |jobs: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sraa"));
        cmd.args(["eval", path, "--interproc"]).env_remove("SRAA_JOBS");
        if let Some(v) = jobs {
            cmd.env("SRAA_JOBS", v);
        }
        cmd.output().expect("sraa binary runs")
    };
    let (unset, set) = (run(None), run(Some("3")));
    assert!(unset.status.success(), "{}", stderr_of(&unset));
    assert_eq!(unset.status.code(), set.status.code());
    assert_eq!(unset.stdout, set.stdout);
    assert_eq!(unset.stderr, set.stderr);
}

// ---------------------------------------------------------------------
// serve / query: flag validation and the full daemon round trip.
// ---------------------------------------------------------------------

#[test]
fn serve_and_query_validate_flags_before_touching_the_network() {
    // No endpoint at all is a usage error.
    let out = sraa(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("need an endpoint"), "got: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("usage:"), "got: {}", stderr_of(&out));
    let out = sraa(&["query", "stats"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("need an endpoint"), "got: {}", stderr_of(&out));

    // `--socket` and `--addr` are mutually exclusive, with a clear
    // diagnostic rather than one silently winning.
    for argv in [
        vec!["serve", "--socket", "/tmp/x.sock", "--addr", "127.0.0.1:1"],
        vec!["query", "--socket", "/tmp/x.sock", "--addr", "127.0.0.1:1", "stats"],
    ] {
        let out = sraa(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(stderr_of(&out).contains("mutually exclusive"), "{argv:?}: {}", stderr_of(&out));
    }

    // Unknown flags exit 2 with usage — and are rejected before any
    // connect, so a dead endpoint doesn't turn a typo into exit 1.
    for argv in [
        vec!["serve", "--socket", "/tmp/x.sock", "--wat"],
        vec!["serve", "--socket", "/tmp/x.sock", "--summary-cache", "sraa.cache"],
        vec!["query", "--socket", "/tmp/sraa_no_such_daemon.sock", "--wat", "stats"],
    ] {
        let out = sraa(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(stderr_of(&out).contains("unknown flag"), "{argv:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("usage:"), "{argv:?}: {}", stderr_of(&out));
    }

    // A valid endpoint but no request is usage, checked before connecting.
    let out = sraa(&["query", "--socket", "/tmp/sraa_no_such_daemon.sock"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"), "got: {}", stderr_of(&out));

    // An endpoint with no daemon behind it is a clean runtime error.
    let out = sraa(&["query", "--socket", "/tmp/sraa_no_such_daemon.sock", "stats"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot connect"), "got: {}", stderr_of(&out));
}

#[cfg(unix)]
#[test]
fn daemon_round_trip_matches_one_shot_eval_and_shuts_down_cleanly() {
    let f = calls_file();
    let path = f.to_str().unwrap();
    let sock = std::env::temp_dir().join(format!("sraa_cli_daemon_{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let sock_s = sock.to_str().unwrap().to_string();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sraa"))
        .args(["serve", "--socket", &sock_s])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !sock.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let q = |args: &[&str]| -> Output {
        let mut full = vec!["query", "--socket", sock_s.as_str()];
        full.extend_from_slice(args);
        sraa(&full)
    };

    let up = q(&["upload", "demo", path]);
    assert!(up.status.success(), "upload: {}", stderr_of(&up));
    assert!(stdout(&up).contains("uploaded demo: 3 function(s)"), "got: {}", stdout(&up));
    assert!(stderr_of(&up).contains("# summary-cache:"), "got: {}", stderr_of(&up));

    // The resident answer is byte-identical to one-shot `eval --interproc`
    // (the daemon is always interprocedural).
    let resident = q(&["eval", "demo"]);
    let oneshot = sraa(&["eval", path, "--interproc"]);
    assert!(resident.status.success() && oneshot.status.success());
    assert_eq!(stdout(&resident), stdout(&oneshot), "resident eval must match one-shot eval");

    // A batch file runs request-per-line over one connection; `#` lines
    // are comments.
    let batch = std::env::temp_dir().join(format!("sraa_cli_batch_{}.txt", std::process::id()));
    std::fs::write(&batch, "# smoke batch\neval demo\npairs demo use_helper\nstats\n").unwrap();
    let out = q(&["batch", batch.to_str().unwrap()]);
    assert!(out.status.success(), "batch: {}", stderr_of(&out));
    assert!(stdout(&out).contains("BA+LT"), "batch eval missing: {}", stdout(&out));
    assert!(stdout(&out).contains("uploads: 1"), "batch stats missing: {}", stdout(&out));
    assert!(stderr_of(&out).contains("pair(s)"), "batch pairs count missing: {}", stderr_of(&out));
    std::fs::remove_file(&batch).ok();

    // Graceful shutdown: the daemon drains, exits 0, removes its socket
    // file and dumps a stats line on stderr.
    let bye = q(&["shutdown"]);
    assert!(bye.status.success(), "shutdown: {}", stderr_of(&bye));
    let mut err_pipe = daemon.stderr.take().expect("stderr piped");
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "daemon must exit cleanly after shutdown");
    let mut daemon_err = String::new();
    std::io::Read::read_to_string(&mut err_pipe, &mut daemon_err).expect("read daemon stderr");
    assert!(daemon_err.contains("# serve: listening on"), "got: {daemon_err}");
    assert!(daemon_err.contains("connection(s)"), "no stats line in: {daemon_err}");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
}
