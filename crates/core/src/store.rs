//! Content-addressed **shared summary store** — the one on-disk summary
//! format: cross-run, cross-module and cross-process reuse of
//! interprocedural summaries.
//!
//! The summary key ([`crate::persist`]) —
//! `key(f) = H(scc_key(C_f) ∥ body(f))` — identifies a function by its
//! *content* plus the content of everything it can call, so the next run
//! over the same file, two different modules, or two builds on two
//! machines sharing a directory that contain the same helper compute the
//! same key and share the solved summary. This module provides that
//! sharing surface:
//!
//! ```text
//!                   SharedSummaryStore (one directory)
//!        ┌───────────────────────────────────────────────────┐
//!        │  in-memory index: [RwLock<HashMap<u64, summary>>; │
//!        │                    16 shards, keyed by low bits]  │
//!        │  on disk: append-only segments, each written      │
//!        │           write-temp-then-rename                  │
//!        │    seg-<generation>-<pid>-<seq>.sraaseg           │
//!        └───────────────────────────────────────────────────┘
//!   daemon A ──publish──▶        ◀──refresh/get── daemon B
//! ```
//!
//! # Merge semantics
//!
//! Identical keys imply identical summaries (the key folds in everything
//! a summary depends on: the member bodies of the function's SCC and the
//! transitive callee keys), so there is no last-writer-wins to arbitrate:
//! merge is **insert-if-absent**, with a debug-mode equality assertion
//! guarding the content-addressing invariant. Concurrent publishers can
//! interleave freely — the union is the same in every order.
//!
//! # Multi-process safety
//!
//! Writers never touch an existing file: each [`SharedSummaryStore::publish`]
//! writes one *new* segment via write-temp-then-rename (atomic within the
//! directory), named with a monotonically increasing generation counter,
//! the writer's pid and a process-wide sequence number — so two processes,
//! or two handles in one process, can publish the same generation without
//! colliding. Readers fold unseen segments in with
//! [`SharedSummaryStore::refresh`]; a segment observed mid-rename simply
//! is not there yet. On load, a directory that has
//! accumulated many segments is **compacted**: the full index is written
//! as one fresh segment and the folded files are deleted (safe, because
//! every entry they carried is in the compacted one, and entries are
//! immutable).
//!
//! # On-disk segment format (all integers little-endian)
//!
//! Versioned, checksummed and endianness-safe: magic, [`FORMAT_VERSION`]
//! (which also versions the key scheme), the [`GenConfig`] byte, and a
//! trailing FNV-1a checksum:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SRAASTOR"
//!      8     2  format version (u16, FORMAT_VERSION)
//!     10     1  GenConfig encoding (bit0 extended, bit1 param_pairs,
//!               bit2 range_offsets)
//!     11     1  reserved (0)
//!     12     4  entry count (u32)
//!     16     …  entries: key u64, fact count u32, fact indices u32×n
//!   last     8  FNV-1a checksum of every preceding byte
//! ```
//!
//! No function names: entries are content-addressed, the key *is* the
//! identity. A defective segment (torn, corrupted, wrong version or
//! config) is skipped and counted ([`SharedSummaryStore::skipped_segments`]),
//! never trusted — the store can only make a run faster, not wrong.

use crate::constraints::GenConfig;
use crate::persist::FORMAT_VERSION;
use crate::summary::FunctionSummary;
use sraa_ir::Fnv64;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

const SEG_MAGIC: &[u8; 8] = b"SRAASTOR";
/// Magic + version + config + reserved + count.
const SEG_HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;
/// Segment file extension (with the leading dot).
const SEG_SUFFIX: &str = ".sraaseg";
/// Loading this many segments triggers a compaction.
const COMPACT_THRESHOLD: usize = 16;
/// Power of two, so shard selection is a mask (the engine's pair-cache
/// idiom).
const STORE_SHARDS: usize = 16;

/// How a solve used the shared store, counted per *function* — the
/// store-side sibling of [`crate::CacheOutcome`]. Deterministic for a
/// given `(module, store contents)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreOutcome {
    /// Functions whose key was present: their component's Init-grounded
    /// solve was skipped, exactly like a summary-cache hit.
    pub hits: u32,
    /// Functions whose key was absent (solved cold, then published).
    pub misses: u32,
    /// Summaries newly inserted by this run's publish (0 when every key
    /// was already present — a fully warm run writes no segment at all).
    pub published: u32,
}

impl StoreOutcome {
    /// Hits over all consulted functions, in `[0, 1]`; `1.0` when nothing
    /// was consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            f64::from(self.hits) / f64::from(total)
        }
    }
}

/// A content-addressed `key → FunctionSummary` store shared across module
/// names, processes and machines (any directory both can see). See the
/// module docs for the concurrency and on-disk story.
///
/// All methods take `&self`; the store is `Sync` and meant to be shared
/// by reference (the daemon holds one for its whole lifetime and every
/// upload consults it).
#[derive(Debug)]
pub struct SharedSummaryStore {
    dir: PathBuf,
    cfg_byte: u8,
    /// Lock-striped index: shard = low key bits, so concurrent merges of
    /// unrelated keys do not serialize on one lock.
    shards: [RwLock<HashMap<u64, FunctionSummary>>; STORE_SHARDS],
    /// Segment file names already folded into the index.
    seen: Mutex<HashSet<String>>,
    /// Highest generation observed in the directory; new segments are
    /// published at `generation + 1`.
    generation: AtomicU64,
    /// Defective segment files skipped over this store's lifetime.
    skipped: AtomicU64,
}

impl SharedSummaryStore {
    /// Opens (creating if needed) the store directory, folds every
    /// readable segment into the in-memory index, and compacts the
    /// directory when it has accumulated `COMPACT_THRESHOLD` segments.
    /// Summaries are config-dependent, so the store is bound to one
    /// [`GenConfig`]; segments written under another are skipped.
    pub fn open(dir: impl Into<PathBuf>, cfg: GenConfig) -> std::io::Result<SharedSummaryStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = SharedSummaryStore {
            dir,
            cfg_byte: encode_gen_config(cfg),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            seen: Mutex::new(HashSet::new()),
            generation: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        };
        store.refresh()?;
        store.maybe_compact();
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Folds any segment files that appeared since the last scan (another
    /// process publishing) into the index. Returns how many new segments
    /// were folded. Cheap when nothing changed: one directory listing.
    pub fn refresh(&self) -> std::io::Result<usize> {
        let mut folded = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(SEG_SUFFIX) || !name.starts_with("seg-") {
                continue;
            }
            {
                let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
                if !seen.insert(name.clone()) {
                    continue;
                }
            }
            if let Some(gen) = parse_generation(&name) {
                self.generation.fetch_max(gen, Ordering::Relaxed);
            }
            let bytes = match std::fs::read(entry.path()) {
                Ok(b) => b,
                // Deleted between listing and read: a concurrent
                // compactor beat us to it; its compacted segment carries
                // the same entries.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(_) => {
                    self.skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            match decode_segment(&bytes, self.cfg_byte) {
                Ok(entries) => {
                    for (key, summary) in entries {
                        self.insert_if_absent(key, &summary);
                    }
                    folded += 1;
                }
                Err(_) => {
                    self.skipped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(folded)
    }

    /// The stored summary for `key`, if present. A hit licenses skipping
    /// the function's Init-grounded solve — the key already certifies
    /// that its whole transitive callee world is unchanged.
    pub fn get(&self, key: u64) -> Option<FunctionSummary> {
        self.shards[shard_of(key)].read().unwrap_or_else(|e| e.into_inner()).get(&key).cloned()
    }

    /// Insert-if-absent merge (memory only — [`SharedSummaryStore::publish`]
    /// is the durable variant). Returns whether the entry was new. In
    /// debug builds an existing entry is asserted equal to the incoming
    /// one: identical keys must mean identical summaries.
    pub fn insert_if_absent(&self, key: u64, summary: &FunctionSummary) -> bool {
        let shard = &self.shards[shard_of(key)];
        if let Some(existing) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            debug_assert_eq!(
                existing, summary,
                "shared-store invariant violated: key {key:#018x} maps to two summaries"
            );
            return false;
        }
        match shard.write().unwrap_or_else(|e| e.into_inner()).entry(key) {
            std::collections::hash_map::Entry::Occupied(o) => {
                debug_assert_eq!(
                    o.get(),
                    summary,
                    "shared-store invariant violated: key {key:#018x} maps to two summaries"
                );
                false
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(summary.clone());
                true
            }
        }
    }

    /// Merges `entries` into the index and durably appends the *newly
    /// inserted* ones as one fresh segment (write-temp-then-rename; a
    /// fully-redundant publish writes nothing). Returns how many entries
    /// were new. Safe to call from any number of processes concurrently.
    pub fn publish(&self, entries: &[(u64, FunctionSummary)]) -> std::io::Result<usize> {
        let fresh: Vec<&(u64, FunctionSummary)> =
            entries.iter().filter(|(k, s)| self.insert_if_absent(*k, s)).collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        let name = self.next_segment_name();
        let bytes = encode_segment(fresh.iter().map(|(k, s)| (*k, s)), self.cfg_byte);
        write_atomic(&self.dir.join(&name), &bytes)?;
        // Our own segment is already folded in.
        self.seen.lock().unwrap_or_else(|e| e.into_inner()).insert(name);
        Ok(fresh.len())
    }

    /// A fresh `seg-<generation>-<pid>-<seq>` name. The sequence number is
    /// process-wide, not per handle: two handles on one directory in one
    /// process see the same generations, and the second one's rename must
    /// not replace the first one's segment.
    fn next_segment_name(&self) -> String {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let gen = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        format!(
            "seg-{gen:016x}-{:08x}-{:04x}{SEG_SUFFIX}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Number of summaries resident in the index.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }

    /// Whether the store holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Defective (torn/corrupted/mismatched) segment files skipped so
    /// far — they are never trusted, only counted.
    pub fn skipped_segments(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Rewrites the whole index as one segment and deletes the files it
    /// subsumes. Entries are immutable and insert-if-absent, so a
    /// concurrent reader that still folds a doomed segment merges
    /// byte-identical data; one that misses it finds the same entries in
    /// the compacted segment.
    fn maybe_compact(&self) {
        let doomed: Vec<String> = {
            let seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
            if seen.len() < COMPACT_THRESHOLD {
                return;
            }
            seen.iter().cloned().collect()
        };
        let mut all: Vec<(u64, FunctionSummary)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let g = shard.read().unwrap_or_else(|e| e.into_inner());
            all.extend(g.iter().map(|(k, s)| (*k, s.clone())));
        }
        // Deterministic segment bytes for a given index state.
        all.sort_unstable_by_key(|&(k, _)| k);
        let name = self.next_segment_name();
        let bytes = encode_segment(all.iter().map(|(k, s)| (*k, s)), self.cfg_byte);
        if write_atomic(&self.dir.join(&name), &bytes).is_err() {
            return; // compaction is an optimisation; keep the segments
        }
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        seen.insert(name);
        for old in doomed {
            std::fs::remove_file(self.dir.join(&old)).ok();
            seen.remove(&old);
        }
    }
}

fn shard_of(key: u64) -> usize {
    // Mix the high bits in: keys are FNV hashes, but cheap insurance.
    ((key ^ (key >> 32)) as usize) & (STORE_SHARDS - 1)
}

/// Parses the generation out of `seg-<gen>-<pid>-<seq>.sraaseg`.
fn parse_generation(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.split('-').next()?;
    u64::from_str_radix(hex, 16).ok()
}

fn encode_gen_config(cfg: GenConfig) -> u8 {
    (cfg.extended as u8) | (cfg.param_pairs as u8) << 1 | (cfg.range_offsets as u8) << 2
}

/// Why a segment could not be folded in. Every variant means "skip and
/// count it", never a panic.
#[derive(Debug, PartialEq, Eq)]
enum SegmentError {
    /// Shorter than the fixed header + checksum, or an entry runs past
    /// the end.
    Truncated,
    /// Bad magic, failed checksum, or malformed entries.
    Corrupted(&'static str),
    /// Written by a different format (or key-scheme) version.
    VersionMismatch {
        /// The version recorded in the segment.
        found: u16,
    },
    /// Written under different constraint-generation options; summaries
    /// are config-dependent, so reuse would be unsound.
    ConfigMismatch,
}

/// Bounds-checked little-endian reader over a segment payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        let end = self.at.checked_add(n).ok_or(SegmentError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SegmentError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SegmentError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SegmentError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Atomically replaces `path` with `bytes`: the bytes are written to a
/// uniquely named temporary file in the *same directory* (rename is only
/// atomic within a filesystem) and renamed over the target, so a reader
/// sees a whole segment or none. A failed rename removes the temporary.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "segment".to_owned());
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

fn encode_segment<'a>(
    entries: impl ExactSizeIterator<Item = (u64, &'a FunctionSummary)>,
    cfg_byte: u8,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEG_HEADER_LEN + 16 * entries.len() + CHECKSUM_LEN);
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(cfg_byte);
    out.push(0);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, summary) in entries {
        out.extend_from_slice(&key.to_le_bytes());
        let facts = summary.args_lt_ret();
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

fn decode_segment(bytes: &[u8], cfg_byte: u8) -> Result<Vec<(u64, FunctionSummary)>, SegmentError> {
    if bytes.len() < SEG_HEADER_LEN + CHECKSUM_LEN {
        return Err(SegmentError::Truncated);
    }
    if &bytes[0..8] != SEG_MAGIC {
        return Err(SegmentError::Corrupted("bad magic"));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != FORMAT_VERSION {
        return Err(SegmentError::VersionMismatch { found: version });
    }
    let (payload, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let mut h = Fnv64::new();
    h.write(payload);
    if h.finish().to_le_bytes() != tail {
        return Err(SegmentError::Corrupted("checksum mismatch"));
    }
    if bytes[10] != cfg_byte {
        return Err(SegmentError::ConfigMismatch);
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    // The FNV checksum is integrity, not authentication: a crafted
    // segment can carry any count it likes, so bound the allocation by
    // what the payload could possibly hold (an entry is ≥ 12 bytes).
    if count > (payload.len() - SEG_HEADER_LEN) / 12 {
        return Err(SegmentError::Corrupted("entry count exceeds payload"));
    }
    let mut cur = Cursor { bytes: payload, at: SEG_HEADER_LEN };
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let key = cur.u64()?;
        let nfacts = cur.u32()? as usize;
        let mut facts = Vec::with_capacity(nfacts.min(1024));
        for _ in 0..nfacts {
            facts.push(cur.u32()?);
        }
        entries.push((key, FunctionSummary { args_lt_ret: facts.into() }));
    }
    if cur.at != payload.len() {
        return Err(SegmentError::Corrupted("trailing bytes after entries"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(facts: &[u32]) -> FunctionSummary {
        FunctionSummary { args_lt_ret: facts.to_vec().into() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sraa_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn segment_bytes_round_trip_and_reject_defects() {
        let entries = vec![(7u64, summary(&[0, 2])), (u64::MAX, summary(&[])), (42, summary(&[1]))];
        let cfg = encode_gen_config(GenConfig::default());
        let bytes = encode_segment(entries.iter().map(|(k, s)| (*k, s)), cfg);
        assert_eq!(decode_segment(&bytes, cfg).unwrap(), entries);

        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut], cfg).is_err(), "prefix {cut}");
        }
        for at in [0, 9, SEG_HEADER_LEN + 1, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(decode_segment(&bad, cfg).is_err(), "flip at {at}");
        }
        assert_eq!(decode_segment(&bytes, cfg ^ 1), Err(SegmentError::ConfigMismatch));
        // Patches a header field and re-seals the (non-cryptographic)
        // checksum, so the field check itself must fire.
        let resealed = |at: usize, field: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + field.len()].copy_from_slice(field);
            let last = b.len() - CHECKSUM_LEN;
            let mut h = Fnv64::new();
            h.write(&b[..last]);
            let sum = h.finish().to_le_bytes();
            b[last..].copy_from_slice(&sum);
            b
        };
        // A hostile count is rejected before allocation, not on OOM.
        assert_eq!(
            decode_segment(&resealed(12, &u32::MAX.to_le_bytes()), cfg),
            Err(SegmentError::Corrupted("entry count exceeds payload"))
        );
        // A future format version is refused with the right variant.
        let next = FORMAT_VERSION + 1;
        assert_eq!(
            decode_segment(&resealed(8, &next.to_le_bytes()), cfg),
            Err(SegmentError::VersionMismatch { found: next })
        );
    }

    #[test]
    fn write_atomic_leaves_no_temporaries_behind() {
        let dir = tmpdir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-1-0-0.sraaseg");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        // The rename-failure cleanup path too: a rename onto a directory.
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

    #[test]
    fn publish_get_and_refresh_share_across_handles() {
        let dir = tmpdir("share");
        let a = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.publish(&[(1, summary(&[0])), (2, summary(&[]))]).unwrap(), 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1), Some(summary(&[0])));
        assert_eq!(a.get(3), None);

        // A second handle (simulating another process) sees the data at
        // open, and later data after a refresh.
        let b = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(a.publish(&[(3, summary(&[1]))]).unwrap(), 1);
        assert_eq!(b.get(3), None, "not yet refreshed");
        assert!(b.refresh().unwrap() >= 1);
        assert_eq!(b.get(3), Some(summary(&[1])));

        // Redundant publish inserts nothing and writes no segment.
        let before: usize = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(b.publish(&[(1, summary(&[0])), (3, summary(&[1]))]).unwrap(), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), before);
        assert_eq!(a.skipped_segments(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn defective_and_mismatched_segments_are_skipped_not_trusted() {
        let dir = tmpdir("defect");
        let a = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        a.publish(&[(1, summary(&[0]))]).unwrap();
        // A torn segment (as if a writer died before the rename, and some
        // non-atomic copy left a prefix) and a config-mismatched one.
        let good = encode_segment(
            [(9u64, &summary(&[1]))].into_iter(),
            encode_gen_config(GenConfig::default()),
        );
        std::fs::write(dir.join(format!("seg-{:016x}-0-0{SEG_SUFFIX}", 99)), &good[..10]).unwrap();
        let other = encode_segment(
            [(8u64, &summary(&[1]))].into_iter(),
            encode_gen_config(GenConfig { range_offsets: true, ..Default::default() }),
        );
        std::fs::write(dir.join(format!("seg-{:016x}-0-1{SEG_SUFFIX}", 98)), other).unwrap();
        // Unrelated files are ignored entirely.
        std::fs::write(dir.join("README"), "not a segment").unwrap();

        let b = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        assert_eq!(b.len(), 1, "only the good segment is folded");
        assert_eq!(b.get(9), None);
        assert_eq!(b.get(8), None);
        assert_eq!(b.skipped_segments(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_advance_past_everything_seen() {
        let dir = tmpdir("gen");
        let a = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        a.publish(&[(1, summary(&[]))]).unwrap();
        a.publish(&[(2, summary(&[]))]).unwrap();
        let b = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        b.publish(&[(3, summary(&[]))]).unwrap();
        let mut gens: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_generation(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        gens.sort_unstable();
        assert_eq!(gens, vec![1, 2, 3], "generations must be strictly increasing");
        assert_eq!(parse_generation("seg-00ff-1-2.sraaseg"), Some(0xff));
        assert_eq!(parse_generation("nope"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_time_compaction_folds_segments_into_one() {
        let dir = tmpdir("compact");
        let a = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        for k in 0..COMPACT_THRESHOLD as u64 {
            a.publish(&[(k, summary(&[(k % 3) as u32]))]).unwrap();
        }
        let segs = |d: &Path| {
            std::fs::read_dir(d)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(SEG_SUFFIX))
                .count()
        };
        assert_eq!(segs(&dir), COMPACT_THRESHOLD);
        let b = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        assert_eq!(segs(&dir), 1, "open must compact {COMPACT_THRESHOLD} segments into one");
        assert_eq!(b.len(), COMPACT_THRESHOLD);
        // Everything survives into a third handle via the compacted file.
        let c = SharedSummaryStore::open(&dir, GenConfig::default()).unwrap();
        for k in 0..COMPACT_THRESHOLD as u64 {
            assert_eq!(c.get(k), Some(summary(&[(k % 3) as u32])), "key {k} lost in compaction");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_insert_if_absent_keeps_one_winner() {
        let store = SharedSummaryStore::open(tmpdir("race"), GenConfig::default()).unwrap();
        let inserted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..512u64 {
                        if store.insert_if_absent(k, &summary(&[(k % 4) as u32])) {
                            inserted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(inserted.load(Ordering::Relaxed), 512, "each key has exactly one winner");
        assert_eq!(store.len(), 512);
        assert_eq!(StoreOutcome::default().hit_rate(), 1.0);
        let o = StoreOutcome { hits: 3, misses: 1, published: 1 };
        assert_eq!(o.hit_rate(), 0.75);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
