//! The resident daemon: accept loop, per-connection frame handling and
//! the request dispatcher.
//!
//! One [`Server`] owns the listening socket and the resident state — the
//! uploaded modules, each with its solved [`DisambiguationEngine`] behind
//! an `Arc`, its pre-rendered `eval` report and its in-memory summary
//! cache. Connections are served by scoped threads off a polling accept
//! loop (the PR 7 scheduler idiom: `std::thread::scope`, no detached
//! threads), so shutdown is a drain: the flag flips, the accept loop
//! stops, and `scope` waits for every in-flight connection to finish its
//! current frame and notice the flag.
//!
//! Robustness contract, exercised by the protocol fuzz test: any byte
//! sequence a client sends yields a typed error reply or a clean close —
//! never a panic, and never a hang beyond the per-connection read
//! timeout. Oversized frames are discarded to the next newline (bounded)
//! and answered with the `oversized` code instead of killing the
//! connection.

use crate::protocol::{self, error_reply, obj, FrameError, Json};
use crate::stats::ServeStats;
use sraa_alias::{render_eval, AaEval, StrictInequalityAa};
use sraa_core::{DisambiguationEngine, EngineConfig, SharedSummaryStore, SummaryCache};
use sraa_ir::{FuncId, Module, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Accept-poll and read-poll granularity: how quickly an idle handler
/// notices the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

/// How long a blocked reply write may stall before the connection is
/// dropped (a stuck client must not wedge the drain).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs for one daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Engine configuration for uploads. `Contextuality::Summaries`
    /// is forced — the daemon's
    /// incremental re-upload path needs summaries; solver and jobs knobs
    /// are honoured. The configuration names no files: the caller reads
    /// any warm-start cache and opens any shared store, and hands them
    /// over with [`Server::with_warm_cache`] and
    /// [`Server::with_shared_store`]; the engine does no IO of its own.
    pub engine: EngineConfig,
    /// Per-connection idle timeout: a connection that sends no byte for
    /// this long is closed.
    pub read_timeout: Duration,
    /// Request-size cap on the declared frame length.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            read_timeout: Duration::from_secs(10),
            max_frame: protocol::MAX_FRAME,
        }
    }
}

/// One uploaded module, fully solved and resident. Queries never touch
/// the engine-construction path again: `no-alias`/`lt` ask the solved
/// engine, `eval` returns the pre-rendered report.
struct ModuleEntry {
    /// The module in e-SSA form (what the engine was built on).
    module: Module,
    /// The solved engine, shared with every connection thread.
    lt: StrictInequalityAa,
    /// `sraa eval` stdout for this module, rendered once at upload.
    eval_text: String,
    /// In-memory summary cache for the *next* upload of this name.
    cache: SummaryCache,
}

struct Daemon {
    cfg: ServerConfig,
    modules: RwLock<HashMap<String, Arc<ModuleEntry>>>,
    /// Warm-start summaries from `--summary-cache`, used as the prior for
    /// the first upload of each module name.
    warm: Option<SummaryCache>,
    /// Resident content-addressed store (`--shared-store`): consulted —
    /// after a directory refresh, so live peer daemons' segments are
    /// seen — and published to on every upload.
    store: Option<SharedSummaryStore>,
    stats: ServeStats,
    shutdown: Arc<AtomicBool>,
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn configure(&self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(TICK))?;
                s.set_write_timeout(Some(WRITE_TIMEOUT))
            }
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(TICK))?;
                s.set_write_timeout(Some(WRITE_TIMEOUT))
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until
/// shutdown (the `shutdown` frame, or the flag from
/// [`Server::shutdown_flag`] — the CLI wires SIGTERM to it).
pub struct Server {
    listener: Listener,
    daemon: Daemon,
    sock_path: Option<PathBuf>,
}

impl Server {
    /// Binds a Unix-socket daemon at `path` (refusing to clobber an
    /// existing file is left to the caller; a stale socket file is
    /// removed first, matching common daemon practice).
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>, cfg: ServerConfig) -> std::io::Result<Server> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener: Listener::Unix(listener),
            daemon: Daemon::new(cfg),
            sock_path: Some(path),
        })
    }

    /// Binds a TCP daemon at `addr` (use port 0 for an ephemeral port,
    /// then read it back with [`Server::tcp_addr`]).
    pub fn bind_tcp(addr: impl ToSocketAddrs, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server { listener: Listener::Tcp(listener), daemon: Daemon::new(cfg), sock_path: None })
    }

    /// The bound TCP address (`None` for Unix-socket servers).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            _ => None,
        }
    }

    /// Seeds the daemon with warm-start summaries (the CLI's
    /// `--summary-cache`): the first upload of every module name is
    /// classified against these instead of solving cold.
    pub fn with_warm_cache(mut self, cache: SummaryCache) -> Self {
        self.daemon.warm = Some(cache);
        self
    }

    /// Attaches a resident [`SharedSummaryStore`] (the CLI's
    /// `--shared-store`): every upload consults it by content-addressed
    /// key — across module names, and across any other daemon or
    /// one-shot run sharing the directory — and publishes its solved
    /// summaries back.
    pub fn with_shared_store(mut self, store: SharedSummaryStore) -> Self {
        self.daemon.store = Some(store);
        self
    }

    /// The flag that stops [`Server::run`]. Store `true` (any thread, a
    /// signal handler included — it is a plain atomic) to begin a
    /// graceful drain.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.daemon.shutdown)
    }

    /// Daemon-lifetime counters (stable after [`Server::run`] returns).
    pub fn stats(&self) -> &ServeStats {
        &self.daemon.stats
    }

    /// Number of modules currently resident.
    pub fn num_modules(&self) -> usize {
        self.daemon.modules_read().len()
    }

    /// Serves until shutdown, then drains in-flight connections and
    /// removes the Unix socket file. Connection-level IO errors are
    /// absorbed (that connection closes); only accept-loop failures
    /// surface.
    pub fn run(&self) -> std::io::Result<()> {
        let daemon = &self.daemon;
        std::thread::scope(|scope| {
            while !daemon.shutdown.load(Ordering::SeqCst) {
                let accepted = match &self.listener {
                    #[cfg(unix)]
                    Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                    Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                };
                match accepted {
                    Ok(stream) => {
                        // Absorb handler panics: a scoped thread that
                        // unwinds re-throws at scope exit, which would
                        // turn one bad connection into a daemon crash at
                        // drain time. The daemon's shared state survives
                        // a mid-handler panic (locks recover via
                        // `into_inner`; the maps are never half-updated),
                        // so count it and keep serving.
                        scope.spawn(move || {
                            let handler = std::panic::AssertUnwindSafe(|| {
                                handle_conn(daemon, stream);
                            });
                            if std::panic::catch_unwind(handler).is_err() {
                                daemon.stats.panics.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(TICK);
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;
        if let Some(path) = &self.sock_path {
            std::fs::remove_file(path).ok();
        }
        Ok(())
    }
}

impl Daemon {
    fn new(cfg: ServerConfig) -> Daemon {
        Daemon {
            cfg,
            modules: RwLock::new(HashMap::new()),
            warm: None,
            store: None,
            stats: ServeStats::default(),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The modules map, recovering from a poisoned lock: the map is
    /// only ever mutated by a single `insert` call, so a panic elsewhere
    /// in the holder can never leave it half-updated. Before this
    /// recovery, one panicking connection thread cascaded into a panic
    /// on every subsequent request that touched the map.
    fn modules_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<ModuleEntry>>> {
        self.modules.read().unwrap_or_else(|e| e.into_inner())
    }

    fn modules_write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<ModuleEntry>>> {
        self.modules.write().unwrap_or_else(|e| e.into_inner())
    }

    fn entry(&self, name: &str) -> Option<Arc<ModuleEntry>> {
        self.modules_read().get(name).cloned()
    }
}

/// What one frame produced: the reply frames (one for point requests,
/// a stream for `pairs`) and how to account for it.
struct Outcome {
    frames: Vec<Json>,
    kind: ReqKind,
    shutdown: bool,
}

enum ReqKind {
    Query,
    Upload,
    Error,
}

impl Outcome {
    fn reply(v: Json) -> Outcome {
        Outcome { frames: vec![v], kind: ReqKind::Query, shutdown: false }
    }

    fn error(code: &str, detail: impl Into<String>) -> Outcome {
        Outcome { frames: vec![error_reply(code, detail)], kind: ReqKind::Error, shutdown: false }
    }
}

fn handle_conn(daemon: &Daemon, stream: Stream) {
    daemon.stats.connections.fetch_add(1, Ordering::Relaxed);
    if stream.configure().is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_frame_line(daemon, &mut reader) {
            LineRead::Line(l) => l,
            LineRead::Oversized => {
                daemon.stats.frames.fetch_add(1, Ordering::Relaxed);
                daemon.stats.errors.fetch_add(1, Ordering::Relaxed);
                let reply = error_reply(FrameError::Oversized.code(), "frame exceeds size cap");
                if write_frame(&mut writer, &reply).is_err() {
                    return;
                }
                continue;
            }
            LineRead::Closed => return,
        };
        daemon.stats.frames.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let outcome = process_line(daemon, &line);
        for frame in &outcome.frames {
            if write_frame(&mut writer, frame).is_err() {
                return;
            }
        }
        match outcome.kind {
            ReqKind::Query => {
                daemon.stats.queries.fetch_add(1, Ordering::Relaxed);
                daemon.stats.record_latency(t0.elapsed().as_micros() as u64);
            }
            ReqKind::Upload => {
                daemon.stats.uploads.fetch_add(1, Ordering::Relaxed);
            }
            ReqKind::Error => {
                daemon.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if outcome.shutdown {
            daemon.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

enum LineRead {
    /// One complete line (newline stripped is NOT done here; the decoder
    /// strips it).
    Line(Vec<u8>),
    /// The line outgrew the cap and was discarded up to its newline.
    Oversized,
    /// EOF, idle timeout, IO error, or shutdown drain — close quietly.
    Closed,
}

/// Reads one newline-terminated line under the daemon's timeout and size
/// rules. Reads tick every [`TICK`] so the shutdown flag is noticed
/// quickly; a partial frame in flight is still given until the idle
/// deadline to complete (that is the "drain in-flight requests" half of
/// graceful shutdown).
fn read_frame_line(daemon: &Daemon, reader: &mut BufReader<Stream>) -> LineRead {
    // Header slack on top of the payload cap: magic + two tokens.
    let max_line = daemon.cfg.max_frame + 64;
    // An oversized line is discarded to its newline so the connection
    // survives, but only up to a bound — a firehose with no newline at
    // all is cut off.
    let max_discard = daemon.cfg.max_frame.saturating_mul(4) + 1024;
    let mut line = Vec::new();
    let mut discarding = false;
    let mut discarded = 0usize;
    let mut last_byte = Instant::now();
    loop {
        let before = line.len();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return LineRead::Closed, // EOF
            Ok(_) => {
                last_byte = Instant::now();
                if line.last() == Some(&b'\n') {
                    return if discarding { LineRead::Oversized } else { LineRead::Line(line) };
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if line.len() > before {
                    last_byte = Instant::now();
                }
                if line.is_empty() && daemon.shutdown.load(Ordering::SeqCst) {
                    return LineRead::Closed; // drained: no frame in flight
                }
                if last_byte.elapsed() >= daemon.cfg.read_timeout {
                    return LineRead::Closed; // idle or stalled mid-frame
                }
            }
            Err(_) => return LineRead::Closed,
        }
        if !discarding && line.len() > max_line {
            discarding = true;
        }
        if discarding {
            discarded += line.len();
            line.clear();
            if discarded > max_discard {
                return LineRead::Closed;
            }
        }
    }
}

fn write_frame(writer: &mut Stream, frame: &Json) -> std::io::Result<()> {
    writer.write_all(protocol::encode_frame(&frame.render()).as_bytes())?;
    writer.flush()
}

fn process_line(daemon: &Daemon, line: &[u8]) -> Outcome {
    let Ok(text) = std::str::from_utf8(line) else {
        return Outcome::error("bad-utf8", "frame is not UTF-8");
    };
    let payload = match protocol::decode_frame(text, daemon.cfg.max_frame) {
        Ok(p) => p,
        Err(e) => return Outcome::error(e.code(), e.to_string()),
    };
    let req = match protocol::parse(payload) {
        Ok(v) => v,
        Err(e) => return Outcome::error("bad-json", e.to_string()),
    };
    dispatch(daemon, &req)
}

fn dispatch(daemon: &Daemon, req: &Json) -> Outcome {
    let Some(cmd) = req.str_field("cmd") else {
        return Outcome::error("bad-request", "missing `cmd` field");
    };
    match cmd {
        "upload" => cmd_upload(daemon, req),
        "no-alias" => cmd_pair(daemon, req, PairKind::NoAlias),
        "lt" => cmd_pair(daemon, req, PairKind::Lt),
        "eval" => cmd_eval(daemon, req),
        "pairs" => cmd_pairs(daemon, req),
        "stats" => {
            let modules = daemon.modules_read().len();
            Outcome::reply(daemon.stats.snapshot(modules))
        }
        // Debug-build fault injection for the liveness regression test:
        // panic in this connection thread *while holding* the modules
        // write lock — exactly the failure that used to wedge the daemon
        // (poisoned lock + scope-exit panic rethrow). Release builds
        // fall through to `unknown-cmd`.
        #[cfg(debug_assertions)]
        "debug-poison" => {
            let _guard = daemon.modules.write().unwrap_or_else(|e| e.into_inner());
            panic!("debug-poison: deliberate panic while holding the modules lock");
        }
        "shutdown" => Outcome {
            frames: vec![obj([("ok", Json::Bool(true)), ("stopping", Json::Bool(true))])],
            kind: ReqKind::Query,
            shutdown: true,
        },
        other => Outcome::error("unknown-cmd", format!("unknown command `{other}`")),
    }
}

fn cmd_upload(daemon: &Daemon, req: &Json) -> Outcome {
    let (Some(name), Some(source)) = (req.str_field("name"), req.str_field("source")) else {
        return Outcome::error("bad-request", "upload needs `name` and `source`");
    };
    if name.is_empty() {
        return Outcome::error("bad-request", "module name must be non-empty");
    }
    let mut module = match sraa_minic::compile(source) {
        Ok(m) => m,
        Err(e) => return Outcome::error("compile-error", e.to_string()),
    };
    // Prior summaries: the resident entry if this is a re-upload, else
    // the warm-start file. The engine classifies every function against
    // them — unchanged ones are hits, the reverse-reachability closure of
    // any edit is invalidated and re-solved.
    let prior = match daemon.entry(name) {
        Some(entry) => Some(entry.cache.clone()),
        None => daemon.warm.clone(),
    };
    // Refresh before consulting: another daemon (or one-shot run)
    // sharing the store directory may have published segments since our
    // last upload; folding them in is what makes cross-process sharing
    // live rather than load-time-only. A refresh failure only costs
    // potential hits.
    if let Some(store) = &daemon.store {
        store.refresh().ok();
    }
    let engine = DisambiguationEngine::build_with_cache_and_store(
        &mut module,
        daemon.cfg.engine.clone(),
        prior.as_ref(),
        daemon.store.as_ref(),
    );
    let s = engine.stats();
    let (hits, misses, invalidated) = (s.cache_hits, s.cache_misses, s.cache_invalidated);
    let store_counts = (s.store_hits, s.store_misses, s.store_published);
    daemon.stats.cache_hits.fetch_add(hits as u64, Ordering::Relaxed);
    daemon.stats.cache_misses.fetch_add(misses as u64, Ordering::Relaxed);
    daemon.stats.cache_invalidated.fetch_add(invalidated as u64, Ordering::Relaxed);
    daemon.stats.store_hits.fetch_add(store_counts.0 as u64, Ordering::Relaxed);
    daemon.stats.store_misses.fetch_add(store_counts.1 as u64, Ordering::Relaxed);
    daemon.stats.store_published.fetch_add(store_counts.2 as u64, Ordering::Relaxed);
    let cache = engine.export_summary_cache(&module).unwrap_or_default();
    let lt = StrictInequalityAa::from_engine(engine);
    let eval_text = render_eval(&module, &lt);
    let functions = module.num_functions();
    let queries = AaEval::num_queries(&module);
    let entry = Arc::new(ModuleEntry { module, lt, eval_text, cache });
    daemon.modules_write().insert(name.to_string(), entry);
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("module", Json::Str(name.to_string())),
        ("functions", Json::Num(functions as i64)),
        ("queries", Json::Num(queries as i64)),
        ("hits", Json::Num(hits as i64)),
        ("misses", Json::Num(misses as i64)),
        ("invalidated", Json::Num(invalidated as i64)),
    ];
    // Store accounting rides along only when a store is configured, so
    // store-less daemons keep their exact historical reply shape.
    if daemon.store.is_some() {
        fields.push(("store_hits", Json::Num(store_counts.0 as i64)));
        fields.push(("store_misses", Json::Num(store_counts.1 as i64)));
        fields.push(("store_published", Json::Num(store_counts.2 as i64)));
    }
    Outcome { frames: vec![obj(fields)], kind: ReqKind::Upload, shutdown: false }
}

enum PairKind {
    NoAlias,
    Lt,
}

/// Resolves `module`/`func` plus the named values, or produces the typed
/// error to send back.
fn resolve(daemon: &Daemon, req: &Json) -> Result<(Arc<ModuleEntry>, FuncId), Outcome> {
    let Some(mname) = req.str_field("module") else {
        return Err(Outcome::error("bad-request", "missing `module` field"));
    };
    let Some(entry) = daemon.entry(mname) else {
        return Err(Outcome::error("no-such-module", format!("no module `{mname}` uploaded")));
    };
    let Some(fname) = req.str_field("func") else {
        return Err(Outcome::error("bad-request", "missing `func` field"));
    };
    let Some(fid) = entry.module.function_by_name(fname) else {
        return Err(Outcome::error("no-such-function", format!("no function `{fname}`")));
    };
    Ok((entry, fid))
}

/// Parses a value name as the IR prints it (`%v3`) and bounds-checks it
/// against the function.
fn parse_value(entry: &ModuleEntry, fid: FuncId, name: &str) -> Option<Value> {
    let idx: usize = name.strip_prefix("%v")?.parse().ok()?;
    if idx >= entry.module.function(fid).num_insts() {
        return None;
    }
    Some(Value::from_index(idx))
}

fn cmd_pair(daemon: &Daemon, req: &Json, kind: PairKind) -> Outcome {
    let (entry, fid) = match resolve(daemon, req) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let (Some(n1), Some(n2)) = (req.str_field("p1"), req.str_field("p2")) else {
        return Outcome::error("bad-request", "pair queries need `p1` and `p2`");
    };
    let (Some(v1), Some(v2)) = (parse_value(&entry, fid, n1), parse_value(&entry, fid, n2)) else {
        return Outcome::error("no-such-value", format!("`{n1}`/`{n2}` not in function"));
    };
    let f = entry.module.function(fid);
    let reply = match kind {
        PairKind::NoAlias => {
            let verdict = entry.lt.engine().no_alias(f, fid, v1, v2);
            obj([("ok", Json::Bool(true)), ("no_alias", Json::Bool(verdict))])
        }
        PairKind::Lt => {
            let verdict = entry.lt.engine().less_than(fid, v1, v2);
            obj([("ok", Json::Bool(true)), ("lt", Json::Bool(verdict))])
        }
    };
    Outcome::reply(reply)
}

fn cmd_eval(daemon: &Daemon, req: &Json) -> Outcome {
    let Some(mname) = req.str_field("module") else {
        return Outcome::error("bad-request", "missing `module` field");
    };
    let Some(entry) = daemon.entry(mname) else {
        return Outcome::error("no-such-module", format!("no module `{mname}` uploaded"));
    };
    Outcome::reply(obj([("ok", Json::Bool(true)), ("text", Json::Str(entry.eval_text.clone()))]))
}

/// The streamed batch query: one frame per no-alias pair, then a final
/// `done` frame carrying the count — the client knows the stream is
/// complete without sentinel parsing.
fn cmd_pairs(daemon: &Daemon, req: &Json) -> Outcome {
    let (entry, fid) = match resolve(daemon, req) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let f = entry.module.function(fid);
    let ptrs = AaEval::pointer_values(&entry.module, fid);
    let pairs = entry.lt.engine().no_alias_pairs(f, fid, &ptrs);
    let mut frames: Vec<Json> = pairs
        .iter()
        .map(|(a, b)| {
            obj([
                ("ok", Json::Bool(true)),
                ("pair", Json::Arr(vec![Json::Str(format!("{a}")), Json::Str(format!("{b}"))])),
            ])
        })
        .collect();
    frames.push(obj([("ok", Json::Bool(true)), ("done", Json::Num(pairs.len() as i64))]));
    Outcome { frames, kind: ReqKind::Query, shutdown: false }
}
