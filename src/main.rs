//! `sraa` — command-line driver, mirroring the paper artifact's scripts
//! (`compile.sh`, `sraa.sh`, `basicaa.sh`, `random.sh`).
//!
//! ```text
//! sraa compile <file.c> [--essa]     print the (e-)SSA IR of a MiniC file
//! sraa eval <file.c>                 aa-eval: all analyses, verdict summary
//! sraa lt <file.c> <function>        print the LT set of every value
//! sraa run <file.c> [ints...]        interpret main(args...)
//! sraa pdg <file.c>                  PDG memory nodes under BA and BA+LT
//! sraa opt <file.c> [--ba]           optimise under BA+LT (or BA), print IR
//! sraa gen <seed> <depth>            emit a Csmith-like random program
//! sraa serve --socket <p>|--addr <a> resident alias-analysis daemon
//! sraa query --socket <p>|--addr <a> query a running daemon
//! ```
//!
//! The analysis-driven subcommands (`eval`, `lt`, `pdg`, `opt`) accept
//! `--interproc`, which switches the engine to bottom-up interprocedural
//! summaries ([`Contextuality::Summaries`]) so strict-inequality facts
//! cross call boundaries — strictly more `no-alias` verdicts, never fewer
//! — and `--shared-store <dir>` (implies `--interproc`), a
//! content-addressed summary directory shared across runs, modules and
//! processes: functions whose summaries a previous run published skip
//! their per-SCC solves. `serve` takes `--shared-store` too (its uploads
//! are always interprocedural) and nothing else but its endpoint. Store
//! outcomes (`N hit(s), M miss(es), …`) go to stderr so stdout stays
//! byte-identical between warm and cold runs; an unusable directory or a
//! defective segment costs speed with a warning, never a panic or a stale
//! result. The CLI, not the engine, opens the store
//! ([`open_store`]); the engine only sees the handle.
//!
//! Unrecognised `--flags` are rejected with exit code 2 (they used to be
//! silently ignored, which hid typos like `--interporc`).

use sraa::alias::{render_eval, AliasAnalysis, BasicAliasAnalysis, Combined, StrictInequalityAa};
use sraa::ir::{InstKind, Interpreter};
use sraa::lt::{
    CacheOutcome, Contextuality, DisambiguationEngine, EngineConfig, GenConfig, SharedSummaryStore,
    StoreOutcome,
};
use sraa::pdg::DepGraph;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..], &mut out),
        Some("eval") => cmd_eval(&args[1..], &mut out),
        Some("lt") => cmd_lt(&args[1..], &mut out),
        Some("run") => cmd_run(&args[1..], &mut out),
        Some("pdg") => cmd_pdg(&args[1..], &mut out),
        Some("opt") => cmd_opt(&args[1..], &mut out),
        Some("gen") => cmd_gen(&args[1..], &mut out),
        Some("serve") => Ok(cmd_serve(&args[1..])),
        Some("query") => cmd_query(&args[1..], &mut out),
        _ => {
            eprintln!(
                "usage: sraa <compile|eval|lt|run|pdg|opt|gen|serve|query> ...\n\
                 \n  compile <file.c> [--essa]   print the (e-)SSA IR\
                 \n  eval    <file.c>            aa-eval verdict summary\
                 \n  lt      <file.c> <func>     LT sets of every value\
                 \n  run     <file.c> [ints...]  interpret main\
                 \n  pdg     <file.c>            PDG memory nodes\
                 \n  opt     <file.c> [--ba]     alias-driven optimisation\
                 \n  gen     <seed> <depth>      random MiniC program\
                 \n  serve   --socket <path>     resident analysis daemon\
                 \n          or --addr <h:p>     (always interprocedural)\
                 \n  query   --socket|--addr …   query a running daemon\
                 \n\
                 \n  --interproc                 bottom-up call summaries for\
                 \n                              eval/lt/pdg/opt (default intra)\
                 \n  --shared-store <dir>        content-addressed summary store\
                 \n                              shared across runs, modules,\
                 \n                              daemons and processes; unchanged\
                 \n                              functions skip their solves\
                 \n                              (implies --interproc)"
            );
            Ok(2)
        }
    };
    exit(exit_code(result.and_then(|code| out.flush().map(|()| code))));
}

/// The exit code of a command, given what its stdout writes returned. A
/// reader that stops early (`sraa compile f.c | head -1`) closes the
/// pipe; the command then stops writing and exits 0, as `head` asked.
/// The `SIGPIPE` disposition stays ignored, because `serve` relies on
/// `EPIPE` from its sockets instead of being killed.
fn exit_code(result: io::Result<i32>) -> i32 {
    match result {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            1
        }
    }
}

/// Extracts `--interproc` and `--shared-store <dir>` from `args`,
/// returning the remaining arguments, the chosen [`EngineConfig`]
/// (default [`Contextuality::Intra`]) and the store directory (default
/// none). `--shared-store` implies `--interproc`: it persists
/// interprocedural summaries.
fn take_engine_flags(args: &[String]) -> Result<(Vec<String>, EngineConfig, Option<PathBuf>), i32> {
    let mut cfg = EngineConfig::default();
    let (rest, interproc) = take_flag(args, "--interproc");
    let (rest, store) = take_value_flag(&rest, "--shared-store")?;
    if interproc || store.is_some() {
        cfg.contextuality = Contextuality::Summaries;
    }
    Ok((rest, cfg, store.map(PathBuf::from)))
}

/// Opens the `--shared-store` directory — shared by the one-shot verbs
/// and `serve`. A defective store can cost speed, never correctness: a
/// directory that cannot be opened degrades to running without a store,
/// and defective segments are skipped; both warn on stderr.
fn open_store(dir: &Path) -> Option<SharedSummaryStore> {
    match SharedSummaryStore::open(dir, GenConfig::default()) {
        Ok(store) => {
            let skipped = store.skipped_segments();
            if skipped > 0 {
                eprintln!(
                    "# shared-store warning: {}: {skipped} defective segment(s) skipped",
                    dir.display()
                );
            }
            Some(store)
        }
        Err(e) => {
            eprintln!("# shared-store warning: {}: {e}; running without a store", dir.display());
            None
        }
    }
}

/// Runs the engine for a one-shot verb (`eval`, `lt`, `pdg`, `opt`) and
/// wraps it as the LT analysis. With `--shared-store` the summaries are
/// reused through the store and published back, and the outcome goes to
/// stderr.
fn analyze(
    m: &mut sraa::ir::Module,
    cfg: EngineConfig,
    store_dir: Option<PathBuf>,
) -> StrictInequalityAa {
    let store = store_dir.as_deref().and_then(open_store);
    let engine = match &store {
        None => DisambiguationEngine::build(m, cfg),
        Some(s) => DisambiguationEngine::build_with_cache_and_store(m, cfg, None, Some(s)),
    };
    if let Some(w) = engine.store_warning() {
        eprintln!("# shared-store warning: {w}");
    }
    let lt = StrictInequalityAa::from_engine(engine);
    report_store(store_dir.is_some(), &lt);
    lt
}

/// Prints the shared-store outcome to **stderr**: stdout must stay
/// byte-identical between a cold run and a run answered from a populated
/// store.
fn report_store(used_store: bool, lt: &StrictInequalityAa) {
    if !used_store {
        return;
    }
    let s = lt.engine().stats();
    let outcome =
        StoreOutcome { hits: s.store_hits, misses: s.store_misses, published: s.store_published };
    eprintln!(
        "# shared-store: {} hit(s), {} miss(es), {} published ({:.1}% hit rate)",
        outcome.hits,
        outcome.misses,
        outcome.published,
        outcome.hit_rate() * 100.0
    );
}

/// Extracts a value-taking `flag <value>` pair from `args`, returning
/// the remaining arguments and the raw value if the flag was present.
/// A trailing flag with no value is a usage error (exit code 2).
fn take_value_flag(args: &[String], flag: &str) -> Result<(Vec<String>, Option<String>), i32> {
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let Some(v) = it.next() else {
                eprintln!("{flag} needs a value");
                return Err(2);
            };
            value = Some(v.clone());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, value))
}

/// Extracts a boolean `flag` from `args`, returning the remaining
/// arguments and whether it was present.
fn take_flag(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let rest: Vec<String> = args.iter().filter(|a| *a != flag).cloned().collect();
    let found = rest.len() != args.len();
    (rest, found)
}

/// Rejects any remaining `--flag` argument: after the known flags have
/// been extracted, whatever still looks like a flag is a typo or an
/// unsupported option — exit code 2 with a usage hint, never a silent
/// no-op.
fn reject_unknown_flags(args: &[String], usage: &str) -> Result<(), i32> {
    for a in args {
        if a.starts_with("--") {
            eprintln!("unknown flag `{a}`\nusage: {usage}");
            return Err(2);
        }
    }
    Ok(())
}

/// Parses a numeric argument; anything else is a usage error (exit code
/// 2), never a silently substituted default.
fn parse_number<T>(arg: &str, usage: &str) -> Result<T, i32>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    arg.parse().map_err(|e| {
        eprintln!("bad number `{arg}`: {e}\nusage: {usage}");
        2
    })
}

fn load(path: &str) -> Result<sraa::ir::Module, i32> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        1
    })?;
    sraa::minic::compile(&src).map_err(|e| {
        eprintln!("{e}");
        1
    })
}

fn cmd_compile(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa compile <file.c> [--essa]";
    let (args, essa) = take_flag(args, "--essa");
    if let Err(code) = reject_unknown_flags(&args, USAGE) {
        return Ok(code);
    }
    let Some(path) = args.first() else {
        eprintln!("usage: {USAGE}");
        return Ok(2);
    };
    let Ok(mut m) = load(path) else { return Ok(1) };
    if essa {
        let (_, stats) = sraa::essa::transform_module(&mut m);
        eprintln!(
            "# e-SSA: {} sigma copies, {} subtraction splits, {} edges split",
            stats.sigma_copies, stats.sub_splits, stats.edges_split
        );
    }
    write!(out, "{}", sraa::ir::printer::print_module(&m))?;
    Ok(0)
}

fn cmd_eval(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa eval <file.c> [--interproc] [--shared-store <dir>]";
    let Ok((args, cfg, store_dir)) = take_engine_flags(args) else { return Ok(2) };
    if let Err(code) = reject_unknown_flags(&args, USAGE) {
        return Ok(code);
    }
    let Some(path) = args.first() else {
        eprintln!("usage: {USAGE}");
        return Ok(2);
    };
    let Ok(mut m) = load(path) else { return Ok(1) };
    let lt = analyze(&mut m, cfg, store_dir);
    write!(out, "{}", render_eval(&m, &lt))?;
    Ok(0)
}

fn cmd_lt(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa lt <file.c> <function> [--interproc] [--shared-store <dir>]";
    let Ok((args, cfg, store_dir)) = take_engine_flags(args) else { return Ok(2) };
    if let Err(code) = reject_unknown_flags(&args, USAGE) {
        return Ok(code);
    }
    let (Some(path), Some(fname)) = (args.first(), args.get(1)) else {
        eprintln!("usage: {USAGE}");
        return Ok(2);
    };
    let Ok(mut m) = load(path) else { return Ok(1) };
    let lt = analyze(&mut m, cfg, store_dir);
    let Some(fid) = m.function_by_name(fname) else {
        eprintln!("no function `{fname}`");
        return Ok(1);
    };
    let f = m.function(fid);
    writeln!(out, "LT sets of @{fname} (e-SSA form):")?;
    for b in f.block_ids() {
        for (v, data) in f.block_insts(b) {
            if !data.has_result() || matches!(data.kind, InstKind::Const(_)) {
                continue;
            }
            let set = lt.engine().lt_set(fid, v);
            if set.is_empty() {
                continue;
            }
            let members: Vec<String> = set
                .iter()
                .map(|(of, ov)| {
                    if *of == fid {
                        format!("{ov}")
                    } else {
                        format!("{}::{ov}", m.function(*of).name)
                    }
                })
                .collect();
            writeln!(out, "  LT({v}) = {{{}}}", members.join(", "))?;
        }
    }
    let s = lt.engine().stats();
    writeln!(
        out,
        "\n{} constraints, {} pops ({:.2}/constraint)",
        s.constraints,
        s.pops,
        s.pops_per_constraint()
    )?;
    if let Some(sums) = lt.engine().summaries() {
        writeln!(
            out,
            "interproc: {} summary fact(s) over {} SCC(s) ({} recursive, {} solves)",
            sums.facts(),
            sums.stats.sccs,
            sums.stats.recursive_sccs,
            sums.stats.solves
        )?;
    }
    Ok(0)
}

fn cmd_run(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa run <file.c> [ints...]";
    if let Err(code) = reject_unknown_flags(args, USAGE) {
        return Ok(code);
    }
    let Some(path) = args.first() else {
        eprintln!("usage: {USAGE}");
        return Ok(2);
    };
    let Ok(main_args) =
        args[1..].iter().map(|a| parse_number(a, USAGE)).collect::<Result<Vec<i64>, _>>()
    else {
        return Ok(2);
    };
    let Ok(m) = load(path) else { return Ok(1) };
    match Interpreter::new(&m).with_step_limit(100_000_000).run("main", &main_args) {
        Ok(t) => {
            writeln!(out, "result: {:?} ({} steps)", t.result, t.steps)?;
            Ok(0)
        }
        Err(e) => {
            eprintln!("trap: {e}");
            Ok(1)
        }
    }
}

fn cmd_pdg(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa pdg <file.c> [--interproc] [--shared-store <dir>]";
    let Ok((args, mut cfg, store_dir)) = take_engine_flags(args) else { return Ok(2) };
    if let Err(code) = reject_unknown_flags(&args, USAGE) {
        return Ok(code);
    }
    let Some(path) = args.first() else {
        eprintln!("usage: {USAGE}");
        return Ok(2);
    };
    let Ok(mut m) = load(path) else { return Ok(1) };
    cfg.gen.range_offsets = true; // the Figure 12 experiment's setting
    let lt = analyze(&mut m, cfg, store_dir);
    let ba = BasicAliasAnalysis::new(&m);
    let both = Combined::new(vec![Box::new(ba.clone()), Box::new(lt.clone())]);
    let g_ba = DepGraph::build(&m, &ba);
    let g_both = DepGraph::build(&m, &both);
    writeln!(out, "static accesses : {}", g_ba.static_accesses)?;
    writeln!(out, "memory nodes BA : {}", g_ba.memory_nodes)?;
    writeln!(out, "memory nodes +LT: {}", g_both.memory_nodes)?;
    writeln!(out, "data edges      : {}", g_ba.edges.len())?;
    writeln!(out, "control edges   : {}", g_ba.control_edges.len())?;
    Ok(0)
}

fn cmd_opt(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa opt <file.c> [--ba] [--interproc] [--shared-store <dir>]";
    let Ok((args, cfg, store_dir)) = take_engine_flags(args) else { return Ok(2) };
    let (args, ba_only) = take_flag(&args, "--ba");
    if let Err(code) = reject_unknown_flags(&args, USAGE) {
        return Ok(code);
    }
    let Some(path) = args.first() else {
        eprintln!("usage: {USAGE}");
        return Ok(2);
    };
    let Ok(mut m) = load(path) else { return Ok(1) };
    let lt = analyze(&mut m, cfg, store_dir);
    let aa: Box<dyn AliasAnalysis> = if ba_only {
        Box::new(BasicAliasAnalysis::new(&m))
    } else {
        Box::new(Combined::new(vec![Box::new(BasicAliasAnalysis::new(&m)), Box::new(lt.clone())]))
    };
    let mut stats = sraa::opt::eliminate_redundant_loads(&mut m, aa.as_ref());
    stats += sraa::opt::eliminate_dead_stores(&mut m, aa.as_ref());
    stats += sraa::opt::hoist_invariant_loads(&mut m, aa.as_ref());
    if let Err(e) = sraa::ir::verify(&m) {
        eprintln!("internal error: optimised module fails verification: {e}");
        return Ok(1);
    }
    eprintln!(
        "# {}: forwarded {} loads, killed {} stores, hoisted {} loads",
        aa.name(),
        stats.loads_eliminated,
        stats.stores_eliminated,
        stats.loads_hoisted
    );
    write!(out, "{}", sraa::ir::printer::print_module(&m))?;
    Ok(0)
}

/// Which socket family a `serve`/`query` invocation targets. `--socket`
/// and `--addr` are mutually exclusive: one daemon, one endpoint.
enum Endpoint {
    Unix(String),
    Tcp(String),
}

/// Extracts the endpoint flags, enforcing mutual exclusion with a clear
/// diagnostic (exit 2, the PR 3 unknown-flag convention).
fn take_endpoint(args: &[String], usage: &str) -> Result<(Vec<String>, Endpoint), i32> {
    let (rest, socket) = take_value_flag(args, "--socket")?;
    let (rest, addr) = take_value_flag(&rest, "--addr")?;
    match (socket, addr) {
        (Some(_), Some(_)) => {
            eprintln!("--socket and --addr are mutually exclusive; pick one endpoint");
            Err(2)
        }
        (Some(path), None) => Ok((rest, Endpoint::Unix(path))),
        (None, Some(a)) => Ok((rest, Endpoint::Tcp(a))),
        (None, None) => {
            eprintln!("need an endpoint: --socket <path> or --addr <host:port>\nusage: {usage}");
            Err(2)
        }
    }
}

/// Wires SIGTERM/SIGINT to the daemon's shutdown flag, so `kill <pid>`
/// triggers the same graceful drain as a `shutdown` frame. Raw `signal`
/// binding: the workspace is offline (no `libc`/`signal-hook` crates),
/// and the handler only stores to an atomic, which is async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers(flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_signal(_sig: i32) {
        if let Some(f) = FLAG.get() {
            f.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let _ = FLAG.set(flag);
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers(_flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {}

fn cmd_serve(args: &[String]) -> i32 {
    const USAGE: &str = "sraa serve (--socket <path> | --addr <host:port>) [--shared-store <dir>]";
    let Ok((args, store_dir)) = take_value_flag(args, "--shared-store") else { return 2 };
    let (args, endpoint) = match take_endpoint(&args, USAGE) {
        Ok(x) => x,
        Err(code) => return code,
    };
    if let Err(code) = reject_unknown_flags(&args, USAGE) {
        return code;
    }
    // `--shared-store` becomes a resident store handle: opened once at
    // boot, refreshed before each upload so concurrent daemons sharing
    // the directory see each other's published segments.
    let store = store_dir.and_then(|dir| open_store(Path::new(&dir)));
    if let Some(s) = &store {
        eprintln!("# serve: shared store at {} ({} summaries)", s.dir().display(), s.len());
    }
    let scfg = sraa::serve::ServerConfig::default();
    let server = match &endpoint {
        Endpoint::Unix(path) => sraa::serve::Server::bind_unix(path, scfg),
        Endpoint::Tcp(addr) => sraa::serve::Server::bind_tcp(addr.as_str(), scfg),
    };
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return 1;
        }
    };
    let server = match store {
        Some(s) => server.with_shared_store(s),
        None => server,
    };
    install_signal_handlers(server.shutdown_flag());
    match &endpoint {
        Endpoint::Unix(path) => eprintln!("# serve: listening on {path}"),
        Endpoint::Tcp(_) => {
            let addr = server.tcp_addr().map(|a| a.to_string()).unwrap_or_default();
            eprintln!("# serve: listening on {addr}");
        }
    }
    if let Err(e) = server.run() {
        eprintln!("serve error: {e}");
        return 1;
    }
    eprintln!("{}", server.stats());
    0
}

const QUERY_USAGE: &str = "sraa query (--socket <path> | --addr <host:port>) <request>\
                           \n  upload <name> <file.c>          compile + solve on the daemon\
                           \n  no-alias <mod> <func> <p1> <p2> one disambiguation query\
                           \n  lt <mod> <func> <a> <b>         one strict-inequality query\
                           \n  eval <mod>                      the aa-eval report (byte-identical\
                           \n                                  to one-shot `sraa eval --interproc`)\
                           \n  pairs <mod> <func>              streamed no-alias pairs\
                           \n  batch <file>                    run one request per line\
                           \n  stats                           daemon counters\
                           \n  shutdown                        graceful drain";

fn cmd_query(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    let (args, endpoint) = match take_endpoint(args, QUERY_USAGE) {
        Ok(x) => x,
        Err(code) => return Ok(code),
    };
    if let Err(code) = reject_unknown_flags(&args, QUERY_USAGE) {
        return Ok(code);
    }
    if args.is_empty() {
        eprintln!("usage: {QUERY_USAGE}");
        return Ok(2);
    }
    let client = match &endpoint {
        Endpoint::Unix(path) => sraa::serve::Client::connect_unix(path),
        Endpoint::Tcp(addr) => sraa::serve::Client::connect_tcp(addr.as_str()),
    };
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect: {e}");
            return Ok(1);
        }
    };
    if args[0] == "batch" {
        let Some(path) = args.get(1) else {
            eprintln!("usage: {QUERY_USAGE}");
            return Ok(2);
        };
        let Ok(batch) = std::fs::read_to_string(path) else {
            eprintln!("cannot read {path}");
            return Ok(1);
        };
        for line in batch.lines() {
            let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            if words.is_empty() || words[0].starts_with('#') {
                continue;
            }
            let code = run_query(&mut client, &words, out)?;
            if code != 0 {
                return Ok(code);
            }
        }
        return Ok(0);
    }
    run_query(&mut client, &args, out)
}

/// Executes one `sraa query` request over an open connection, printing
/// its result. Query outputs go to stdout (deterministic, diffable
/// against one-shot commands); progress and counters go to stderr.
fn run_query(
    client: &mut sraa::serve::Client,
    words: &[String],
    out: &mut dyn Write,
) -> io::Result<i32> {
    use sraa::serve::{obj, Json};
    let reply = |client: &mut sraa::serve::Client, req: &Json| match client.request(req) {
        Ok(r) => Ok(r),
        Err(e) => {
            eprintln!("{e}");
            Err(1)
        }
    };
    match words[0].as_str() {
        "upload" => {
            let (Some(name), Some(path)) = (words.get(1), words.get(2)) else {
                eprintln!("usage: {QUERY_USAGE}");
                return Ok(2);
            };
            let Ok(source) = std::fs::read_to_string(path) else {
                eprintln!("cannot read {path}");
                return Ok(1);
            };
            let req = obj([
                ("cmd", Json::Str("upload".into())),
                ("name", Json::Str(name.clone())),
                ("source", Json::Str(source)),
            ]);
            let r = match reply(client, &req) {
                Ok(r) => r,
                Err(code) => return Ok(code),
            };
            if !r.is_ok() {
                return Ok(fail_reply(&r));
            }
            let outcome = CacheOutcome {
                hits: r.num_field("hits").unwrap_or(0) as u32,
                misses: r.num_field("misses").unwrap_or(0) as u32,
                invalidated: r.num_field("invalidated").unwrap_or(0) as u32,
            };
            eprintln!(
                "# summary-cache: {} hit(s), {} miss(es), {} invalidated ({:.1}% hit rate)",
                outcome.hits,
                outcome.misses,
                outcome.invalidated,
                outcome.hit_rate() * 100.0
            );
            // Store counters only appear when the daemon runs with
            // `--shared-store`; suppress the line otherwise so store-less
            // output is unchanged.
            if r.num_field("store_hits").is_some() {
                let store = StoreOutcome {
                    hits: r.num_field("store_hits").unwrap_or(0) as u32,
                    misses: r.num_field("store_misses").unwrap_or(0) as u32,
                    published: r.num_field("store_published").unwrap_or(0) as u32,
                };
                eprintln!(
                    "# shared-store: {} hit(s), {} miss(es), {} published ({:.1}% hit rate)",
                    store.hits,
                    store.misses,
                    store.published,
                    store.hit_rate() * 100.0
                );
            }
            writeln!(
                out,
                "uploaded {}: {} function(s), {} queries",
                name,
                r.num_field("functions").unwrap_or(0),
                r.num_field("queries").unwrap_or(0)
            )?;
            Ok(0)
        }
        verb @ ("no-alias" | "lt") => {
            let (Some(m), Some(f), Some(p1), Some(p2)) =
                (words.get(1), words.get(2), words.get(3), words.get(4))
            else {
                eprintln!("usage: {QUERY_USAGE}");
                return Ok(2);
            };
            let req = obj([
                ("cmd", Json::Str(verb.into())),
                ("module", Json::Str(m.clone())),
                ("func", Json::Str(f.clone())),
                ("p1", Json::Str(p1.clone())),
                ("p2", Json::Str(p2.clone())),
            ]);
            let r = match reply(client, &req) {
                Ok(r) => r,
                Err(code) => return Ok(code),
            };
            if !r.is_ok() {
                return Ok(fail_reply(&r));
            }
            if verb == "no-alias" {
                let v = r.get("no_alias").and_then(Json::as_bool).unwrap_or(false);
                writeln!(out, "{}", if v { "no-alias" } else { "may-alias" })?;
            } else {
                let v = r.get("lt").and_then(Json::as_bool).unwrap_or(false);
                writeln!(out, "{v}")?;
            }
            Ok(0)
        }
        "eval" => {
            let Some(m) = words.get(1) else {
                eprintln!("usage: {QUERY_USAGE}");
                return Ok(2);
            };
            let req = obj([("cmd", Json::Str("eval".into())), ("module", Json::Str(m.clone()))]);
            let r = match reply(client, &req) {
                Ok(r) => r,
                Err(code) => return Ok(code),
            };
            if !r.is_ok() {
                return Ok(fail_reply(&r));
            }
            write!(out, "{}", r.str_field("text").unwrap_or(""))?;
            Ok(0)
        }
        "pairs" => {
            let (Some(m), Some(f)) = (words.get(1), words.get(2)) else {
                eprintln!("usage: {QUERY_USAGE}");
                return Ok(2);
            };
            let req = obj([
                ("cmd", Json::Str("pairs".into())),
                ("module", Json::Str(m.clone())),
                ("func", Json::Str(f.clone())),
            ]);
            // The stream is read to its end either way; the first failed
            // write is reported after it.
            let mut written = Ok(());
            let last = client.request_streamed(&req, |frame| {
                if let (Ok(()), Some(Json::Arr(pair))) = (&written, frame.get("pair")) {
                    let names: Vec<&str> = pair.iter().filter_map(Json::as_str).collect();
                    written = writeln!(out, "{}", names.join(" "));
                }
            });
            written?;
            match last {
                Ok(done) if done.is_ok() => {
                    eprintln!("# {} pair(s)", done.num_field("done").unwrap_or(0));
                    Ok(0)
                }
                Ok(err) => Ok(fail_reply(&err)),
                Err(e) => {
                    eprintln!("{e}");
                    Ok(1)
                }
            }
        }
        "stats" => {
            let r = match reply(client, &obj([("cmd", Json::Str("stats".into()))])) {
                Ok(r) => r,
                Err(code) => return Ok(code),
            };
            if !r.is_ok() {
                return Ok(fail_reply(&r));
            }
            if let Json::Obj(pairs) = &r {
                for (k, v) in pairs {
                    if k != "ok" {
                        writeln!(out, "{k}: {}", v.render())?;
                    }
                }
            }
            Ok(0)
        }
        "shutdown" => {
            let r = match reply(client, &obj([("cmd", Json::Str("shutdown".into()))])) {
                Ok(r) => r,
                Err(code) => return Ok(code),
            };
            if !r.is_ok() {
                return Ok(fail_reply(&r));
            }
            eprintln!("# shutdown requested");
            Ok(0)
        }
        other => {
            eprintln!("unknown query `{other}`\nusage: {QUERY_USAGE}");
            Ok(2)
        }
    }
}

/// Prints a typed server error reply and returns the CLI exit code.
fn fail_reply(reply: &sraa::serve::Json) -> i32 {
    eprintln!(
        "server error: {}: {}",
        reply.str_field("error").unwrap_or("unknown"),
        reply.str_field("detail").unwrap_or("")
    );
    1
}

fn cmd_gen(args: &[String], out: &mut dyn Write) -> io::Result<i32> {
    const USAGE: &str = "sraa gen <seed> <depth> [--helpers <n>]";
    let Ok((rest, helpers)) = take_value_flag(args, "--helpers") else { return Ok(2) };
    let helpers: usize = match helpers.as_deref().map(str::parse) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("--helpers needs a count\nusage: {USAGE}");
            return Ok(2);
        }
    };
    if let Err(code) = reject_unknown_flags(&rest, USAGE) {
        return Ok(code);
    }
    if let Some(extra) = rest.get(2) {
        eprintln!("unexpected argument `{extra}`\nusage: {USAGE}");
        return Ok(2);
    }
    let Ok(seed) = rest.first().map_or(Ok(1), |a| parse_number::<u64>(a, USAGE)) else {
        return Ok(2);
    };
    let Ok(depth) = rest.get(1).map_or(Ok(3), |a| parse_number::<u8>(a, USAGE)) else {
        return Ok(2);
    };
    let w = sraa::synth::csmith_generate(sraa::synth::CsmithConfig {
        seed,
        max_ptr_depth: depth,
        num_stmts: 80,
        helpers,
    });
    write!(out, "{}", w.source)?;
    Ok(0)
}
