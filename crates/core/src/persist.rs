//! Persistent summary cache — serialization and cache keys for
//! incremental `sraa` runs.
//!
//! Re-solving unchanged code dominates whole-module cost on repeated
//! invocations. [`ModuleSummaries`] is deterministic and per-function, so
//! it can be persisted between runs and reused for every function whose
//! *meaning-relevant inputs* did not change. This module provides the two
//! halves of that:
//!
//! * [`SummaryKeys`] — one 64-bit cache key per function,
//!
//!   ```text
//!   key(f) = H( scc_key(C_f) ∥ body(f) )
//!   scc_key(C) = H( sorted member bodies of C
//!                 ∥ sorted (callee name, callee scc_key) pairs )
//!   ```
//!
//!   where `body(f)` is [`sraa_ir::body_fingerprint`] and `C_f` is `f`'s
//!   component in the call-graph condensation. Because callee-SCC keys
//!   fold in transitively, editing one function changes the key of
//!   exactly the functions that can *reach* it in the call graph — the
//!   set whose summaries its edit can influence. Invalidation is thus
//!   structural, not tracked: a stale entry simply stops matching.
//!
//! * [`SummaryCache`] — the on-disk artifact: a versioned, checksummed,
//!   endianness-safe binary map `function name → (key, summary)`, written
//!   with [`save`] and read with [`load`]. Any defect — truncation,
//!   corruption, a version or constraint-config mismatch — surfaces as a
//!   [`PersistError`] so callers can fall back to a cold solve; a cache
//!   file can make a run *slower to load*, never wrong.
//!
//! # Format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SRAASUMC"
//!      8     2  format version (u16)
//!     10     1  GenConfig encoding (bit0 extended, bit1 param_pairs,
//!               bit2 range_offsets)
//!     11     1  reserved (0)
//!     12     4  entry count (u32)
//!     16     …  entries: name_len u32, name bytes, key u64,
//!               fact count u32, fact indices u32×n
//!   last     8  FNV-1a checksum of every preceding byte
//! ```

use crate::constraints::GenConfig;
use crate::summary::{FunctionSummary, ModuleSummaries};
use sraa_ir::{body_fingerprint, CallGraph, Condensation, Fnv64, FuncId, Module};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version. Bump on any change to the byte layout **or**
/// to the fingerprint/key scheme (a key computed by a different scheme
/// must never be compared against a stored one).
pub const FORMAT_VERSION: u16 = 1;

const MAGIC: &[u8; 8] = b"SRAASUMC";
/// Magic + version + config + reserved + count.
const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;

pub(crate) fn encode_gen_config(cfg: GenConfig) -> u8 {
    (cfg.extended as u8) | (cfg.param_pairs as u8) << 1 | (cfg.range_offsets as u8) << 2
}

/// Per-function summary-cache keys for one module, propagated bottom-up
/// over the call-graph condensation (see the module docs for the scheme).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryKeys {
    per_func: Vec<u64>,
}

impl SummaryKeys {
    /// Computes every function's key. The module must be in its final
    /// (e-SSA) form — the same form summaries are computed on.
    pub fn compute(module: &Module) -> Self {
        let cg = CallGraph::build(module);
        let cond = cg.condense();
        Self::compute_with(module, &cg, &cond)
    }

    /// [`SummaryKeys::compute`] with a caller-provided call graph and
    /// condensation, so a warm run that already built them (the summary
    /// engine does) pays for them once.
    pub fn compute_with(module: &Module, cg: &CallGraph, cond: &Condensation) -> Self {
        let bodies: Vec<u64> = (0..module.num_functions())
            .map(|i| body_fingerprint(module, FuncId::from_index(i)))
            .collect();

        let mut scc_key = vec![0u64; cond.len()];
        let mut per_func = vec![0u64; module.num_functions()];
        for (ci, members) in cond.bottom_up() {
            // Member bodies, ordered by name so the key does not depend on
            // function numbering.
            let mut named: Vec<(&str, u64)> = members
                .iter()
                .map(|&f| (module.function(f).name.as_str(), bodies[f.index()]))
                .collect();
            named.sort_unstable();
            // `(name, component key)` of every external callee (already
            // computed: bottom-up order visits callees first). Keyed per
            // *name*, not as a bare key set: two identical-bodied callees
            // share a component key, and collapsing them would let a
            // mutation of one slip past its callers' keys — a stale
            // (unsound) warm summary. Names are unique, so deduplicating
            // the pairs is exact.
            let mut ext: Vec<(&str, u64)> = members
                .iter()
                .flat_map(|&f| cg.callees(f))
                .filter(|&&g| cond.component_of(g) != ci)
                .map(|&g| (module.function(g).name.as_str(), scc_key[cond.component_of(g)]))
                .collect();
            ext.sort_unstable();
            ext.dedup();

            let mut h = Fnv64::new();
            h.write_u32(named.len() as u32);
            for (_, body) in &named {
                h.write_u64(*body);
            }
            h.write_u32(ext.len() as u32);
            for (name, k) in &ext {
                h.write_str(name);
                h.write_u64(*k);
            }
            scc_key[ci] = h.finish();

            for &f in members {
                let mut h = Fnv64::new();
                h.write_u64(scc_key[ci]);
                h.write_u64(bodies[f.index()]);
                per_func[f.index()] = h.finish();
            }
        }
        SummaryKeys { per_func }
    }

    /// The cache key of function `f`.
    pub fn of(&self, f: FuncId) -> u64 {
        self.per_func[f.index()]
    }

    /// Number of functions covered.
    pub fn len(&self) -> usize {
        self.per_func.len()
    }

    /// Whether the module had no functions.
    pub fn is_empty(&self) -> bool {
        self.per_func.is_empty()
    }
}

/// Why a cache file could not be used. Every variant is a *fall back to
/// cold* signal, never a panic.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read (includes not-found; callers that treat
    /// a missing cache as an ordinary cold start should check
    /// [`PersistError::is_not_found`]).
    Io(std::io::Error),
    /// Shorter than the fixed header + checksum, or an entry runs past
    /// the end.
    Truncated,
    /// Bad magic, failed checksum, or malformed entries.
    Corrupted(&'static str),
    /// Written by a different format (or fingerprint-scheme) version.
    VersionMismatch {
        /// The version recorded in the file.
        found: u16,
    },
    /// Written under different constraint-generation options; summaries
    /// are config-dependent, so reuse would be unsound.
    ConfigMismatch,
}

impl PersistError {
    /// Whether the error is simply "no cache file yet".
    pub fn is_not_found(&self) -> bool {
        matches!(self, PersistError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cannot read cache: {e}"),
            PersistError::Truncated => f.write_str("cache file is truncated"),
            PersistError::Corrupted(what) => write!(f, "cache file is corrupted ({what})"),
            PersistError::VersionMismatch { found } => {
                write!(f, "cache format version {found} (this build writes {FORMAT_VERSION})")
            }
            PersistError::ConfigMismatch => {
                f.write_str("cache was written under different constraint-generation options")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// A loaded summary cache: `function name → (key, summary)`.
#[derive(Clone, Debug, Default)]
pub struct SummaryCache {
    entries: HashMap<String, (u64, FunctionSummary)>,
}

impl SummaryCache {
    /// Builds an **in-memory** cache from freshly computed summaries and
    /// keys — the resident-daemon path, where the cache round-trips
    /// between builds without touching a file. Equivalent to
    /// `from_bytes(&to_bytes(module, summaries, keys, cfg), cfg)` minus
    /// the serialization.
    pub fn from_parts(module: &Module, summaries: &ModuleSummaries, keys: &SummaryKeys) -> Self {
        let entries = module
            .functions()
            .map(|(fid, f)| (f.name.clone(), (keys.of(fid), summaries.of(fid).clone())))
            .collect();
        SummaryCache { entries }
    }

    /// The stored `(key, summary)` for `name`, if present.
    pub fn get(&self, name: &str) -> Option<(u64, &FunctionSummary)> {
        self.entries.get(name).map(|(k, s)| (*k, s))
    }

    /// The stored summary for `name`, provided its key matches `key`.
    pub fn lookup(&self, name: &str, key: u64) -> Option<&FunctionSummary> {
        match self.entries.get(name) {
            Some((k, s)) if *k == key => Some(s),
            _ => None,
        }
    }

    /// Number of cached functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Serializes the summaries + keys of `module` into the version-1 byte
/// format. Deterministic: entries are written in [`FuncId`] order and the
/// result is byte-identical across runs and platforms.
pub fn to_bytes(
    module: &Module,
    summaries: &ModuleSummaries,
    keys: &SummaryKeys,
    cfg: GenConfig,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 32 * module.num_functions() + CHECKSUM_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(encode_gen_config(cfg));
    out.push(0);
    out.extend_from_slice(&(module.num_functions() as u32).to_le_bytes());
    for (fid, f) in module.functions() {
        out.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
        out.extend_from_slice(f.name.as_bytes());
        out.extend_from_slice(&keys.of(fid).to_le_bytes());
        let facts = summaries.of(fid).args_lt_ret();
        out.extend_from_slice(&(facts.len() as u32).to_le_bytes());
        for &j in facts {
            out.extend_from_slice(&j.to_le_bytes());
        }
    }
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Parses a version-1 cache, verifying magic, version, checksum and the
/// constraint-generation options it was written under.
pub fn from_bytes(bytes: &[u8], cfg: GenConfig) -> Result<SummaryCache, PersistError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(PersistError::Truncated);
    }
    if &bytes[0..8] != MAGIC {
        return Err(PersistError::Corrupted("bad magic"));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch { found: version });
    }
    let (payload, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let mut h = Fnv64::new();
    h.write(payload);
    if h.finish().to_le_bytes() != tail {
        return Err(PersistError::Corrupted("checksum mismatch"));
    }
    if bytes[10] != encode_gen_config(cfg) {
        return Err(PersistError::ConfigMismatch);
    }

    let mut cur = Cursor { bytes: payload, at: HEADER_LEN };
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    // The FNV checksum is integrity, not authentication: a crafted file
    // can carry any count it likes, so bound it by what the payload
    // could possibly hold (an entry is ≥ 16 bytes) before allocating —
    // a defective file must fall back to cold, never abort on OOM.
    if count > (payload.len() - HEADER_LEN) / 16 {
        return Err(PersistError::Corrupted("entry count exceeds payload"));
    }
    let mut entries = HashMap::with_capacity(count);
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| PersistError::Corrupted("non-UTF-8 function name"))?
            .to_owned();
        let key = cur.u64()?;
        let nfacts = cur.u32()? as usize;
        let mut facts = Vec::with_capacity(nfacts.min(1024));
        for _ in 0..nfacts {
            facts.push(cur.u32()?);
        }
        let summary = FunctionSummary { args_lt_ret: facts.into() };
        if entries.insert(name, (key, summary)).is_some() {
            return Err(PersistError::Corrupted("duplicate function name"));
        }
    }
    if cur.at != payload.len() {
        return Err(PersistError::Corrupted("trailing bytes after entries"));
    }
    Ok(SummaryCache { entries })
}

/// Writes the cache file for `module` at `path` atomically
/// (write-temp-then-rename via `write_atomic`). Two processes healing
/// or refreshing the same cache concurrently each publish a complete
/// file — a reader can observe either version, never an interleaving.
pub fn save(
    path: &Path,
    module: &Module,
    summaries: &ModuleSummaries,
    keys: &SummaryKeys,
    cfg: GenConfig,
) -> std::io::Result<()> {
    write_atomic(path, &to_bytes(module, summaries, keys, cfg))
}

/// Atomically replaces `path` with `bytes`: the bytes are written to a
/// uniquely named temporary file in the *same directory* (rename is only
/// atomic within a filesystem) and renamed over the target. Used by the
/// cache rewrite above and by the shared store's segment writer
/// ([`crate::store`]).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "cache".to_owned());
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Reads and parses the cache file at `path`.
pub fn load(path: &Path, cfg: GenConfig) -> Result<SummaryCache, PersistError> {
    let bytes = std::fs::read(path).map_err(PersistError::Io)?;
    from_bytes(&bytes, cfg)
}

/// Bounds-checked little-endian reader over the payload. Shared with the
/// segment decoder in [`crate::store`].
pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.at.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SolverKind;
    use crate::var_index::VarIndex;

    fn cold(src: &str) -> (Module, ModuleSummaries, SummaryKeys) {
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let sums =
            ModuleSummaries::compute(&m, &ranges, GenConfig::default(), &index, SolverKind::Scc);
        let keys = SummaryKeys::compute(&m);
        (m, sums, keys)
    }

    const SRC: &str = r#"
        int next(int i) { return i + 1; }
        int twice(int i) { return next(next(i)); }
        int main() { return twice(1); }
    "#;

    #[test]
    fn round_trips_and_is_deterministic() {
        let (m, sums, keys) = cold(SRC);
        let bytes = to_bytes(&m, &sums, &keys, GenConfig::default());
        let again = {
            let (m2, s2, k2) = cold(SRC);
            to_bytes(&m2, &s2, &k2, GenConfig::default())
        };
        assert_eq!(bytes, again, "serialization must be byte-identical across runs");

        let cache = from_bytes(&bytes, GenConfig::default()).expect("round trip");
        assert_eq!(cache.len(), 3);
        for (fid, f) in m.functions() {
            let (key, summary) = cache.get(&f.name).expect("entry present");
            assert_eq!(key, keys.of(fid));
            assert_eq!(summary, sums.of(fid));
            assert!(cache.lookup(&f.name, key).is_some());
            assert!(cache.lookup(&f.name, key ^ 1).is_none(), "stale keys must not match");
        }
    }

    #[test]
    fn keys_change_exactly_for_reverse_reachable_functions() {
        let (m1, _, k1) = cold(SRC);
        let (m2, _, k2) = cold(&SRC.replace("i + 1", "i + 2"));
        // Editing `next` re-keys next, twice and main (all reach it) …
        for name in ["next", "twice", "main"] {
            let f = m1.function_by_name(name).unwrap();
            assert_ne!(k1.of(f), k2.of(f), "{name} must be invalidated");
        }
        // … while editing `main` re-keys only main.
        let (m3, _, k3) = cold(&SRC.replace("twice(1)", "twice(2)"));
        for name in ["next", "twice"] {
            let f = m1.function_by_name(name).unwrap();
            assert_eq!(k1.of(f), k3.of(f), "{name} must stay valid");
        }
        let main = m1.function_by_name("main").unwrap();
        assert_ne!(k1.of(main), k3.of(main));
        assert_eq!((m2.num_functions(), m3.num_functions()), (3, 3));
        assert_eq!(k1.len(), 3);
        assert!(!k1.is_empty());
    }

    #[test]
    fn defective_files_are_rejected_not_panicked_on() {
        let (m, sums, keys) = cold(SRC);
        let good = to_bytes(&m, &sums, &keys, GenConfig::default());

        // Truncations at every prefix length parse-fail cleanly.
        for cut in 0..good.len() {
            assert!(from_bytes(&good[..cut], GenConfig::default()).is_err(), "prefix {cut}");
        }
        // Any single flipped bit is caught (checksum or field checks).
        for at in [0, 9, HEADER_LEN + 3, good.len() - 2] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(from_bytes(&bad, GenConfig::default()).is_err(), "flip at {at}");
        }
        // A hostile entry count with a re-sealed (non-cryptographic)
        // checksum must be rejected before allocation, not abort on OOM.
        let mut hostile = good.clone();
        hostile[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let last = hostile.len() - CHECKSUM_LEN;
        let mut h = Fnv64::new();
        h.write(&hostile[..last]);
        let sum = h.finish().to_le_bytes();
        hostile[last..].copy_from_slice(&sum);
        assert!(matches!(
            from_bytes(&hostile, GenConfig::default()),
            Err(PersistError::Corrupted("entry count exceeds payload"))
        ));
        // A future format version is refused with the right variant.
        let mut vnext = good.clone();
        vnext[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let last = vnext.len() - CHECKSUM_LEN;
        let mut h = Fnv64::new();
        h.write(&vnext[..last]);
        let sum = h.finish().to_le_bytes();
        vnext[last..].copy_from_slice(&sum);
        assert!(matches!(
            from_bytes(&vnext, GenConfig::default()),
            Err(PersistError::VersionMismatch { found }) if found == FORMAT_VERSION + 1
        ));
        // A different GenConfig is a mismatch, not a silent reuse.
        let other = GenConfig { range_offsets: true, ..Default::default() };
        assert!(matches!(from_bytes(&good, other), Err(PersistError::ConfigMismatch)));
        // Errors render human-readably and `is_not_found` is precise.
        assert!(!PersistError::Truncated.is_not_found());
        assert!(PersistError::Io(std::io::Error::from(std::io::ErrorKind::NotFound)).is_not_found());
        for e in [
            PersistError::Truncated,
            PersistError::Corrupted("x"),
            PersistError::VersionMismatch { found: 9 },
            PersistError::ConfigMismatch,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn from_parts_matches_a_serialization_round_trip() {
        let (m, sums, keys) = cold(SRC);
        let direct = SummaryCache::from_parts(&m, &sums, &keys);
        let round =
            from_bytes(&to_bytes(&m, &sums, &keys, GenConfig::default()), GenConfig::default())
                .expect("round trip");
        assert_eq!(direct.len(), round.len());
        for (fid, f) in m.functions() {
            assert_eq!(direct.get(&f.name), round.get(&f.name));
            assert_eq!(direct.lookup(&f.name, keys.of(fid)), Some(sums.of(fid)));
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let (m, sums, keys) = cold(SRC);
        let path = std::env::temp_dir().join(format!("sraa_persist_{}.bin", std::process::id()));
        save(&path, &m, &sums, &keys, GenConfig::default()).unwrap();
        let cache = load(&path, GenConfig::default()).expect("load back");
        assert_eq!(cache.len(), 3);
        let missing = load(Path::new("/nonexistent/sraa.cache"), GenConfig::default());
        assert!(matches!(&missing, Err(e) if e.is_not_found()));
        std::fs::remove_file(&path).ok();
    }

    /// The torn-write regression (satellite of the shared-store PR): a
    /// cache truncated mid-file — the observable state an interrupted
    /// in-place rewrite used to leave behind — must load-fail cleanly,
    /// and the atomic rewrite must heal it without leaving temp litter.
    #[test]
    fn torn_cache_file_reloads_cleanly_and_heals_atomically() {
        let (m, sums, keys) = cold(SRC);
        let dir = std::env::temp_dir().join(format!("sraa_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summaries.bin");
        save(&path, &m, &sums, &keys, GenConfig::default()).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Tear the file at every interesting cut point and reload.
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 5, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(load(&path, GenConfig::default()).is_err(), "torn at {cut} must not parse");
            // Healing is a fresh atomic save over the torn file.
            save(&path, &m, &sums, &keys, GenConfig::default()).unwrap();
            assert_eq!(load(&path, GenConfig::default()).unwrap().len(), 3, "healed at {cut}");
        }

        // write-temp-then-rename must not leave temporaries behind, even
        // after the rename-failure cleanup path (rename onto a directory).
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        assert!(write_atomic(&blocked, b"x").is_err());
        let stray: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
