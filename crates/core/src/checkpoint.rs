//! Crash-safe checkpointed runs: the versioned run directory, per-stage
//! checkpoints, and the resumable driver over the pipeline's stage
//! operators.
//!
//! A **run directory** (`sqlog-clean --run-dir DIR`) holds everything one
//! cleaning run persists:
//!
//! ```text
//! DIR/
//!   MANIFEST.json            run identity: config fingerprint, input hash,
//!                            ingest policy, attempt/interruption counters
//!   checkpoints/<stage>.ckpt one file per completed stage
//!   quarantine.tsv           lenient-mode sidecar (default location)
//! ```
//!
//! Each checkpoint file is written atomically (temp file + fsync + rename,
//! see [`sqlog_log::atomic`]) and carries a JSON header line with the
//! payload's byte length and FNV-1a hash — a torn or tampered write is
//! always detectable, never silently half-loaded. The payload is the
//! compact binary [`Wire`] encoding of the stage's output, minus what the
//! run can cheaply rebuild:
//!
//! * `ingest` stores only the ingest statistics. The entries are re-read
//!   from the input, which the manifest pins by length and hash, and must
//!   reproduce the stored statistics.
//! * `dedup`, `parse`, `sessions`, `mine` and `detect` store their output
//!   (kept base-log indices; templates and parsed records; sessions;
//!   patterns; antipattern instances) with their accounting.
//! * `solve` stores the solvers' choices — for each solved instance its
//!   index into detect's instance list and the statements its solver
//!   produced — plus the overlap count. Loading it re-assembles the clean
//!   and removal logs with the same function a live run ends with.
//!
//! `sqlog-clean --resume DIR` validates the manifest against the current
//! config and input — refusing with a precise diagnostic on mismatch —
//! loads the longest valid prefix of stage checkpoints, and re-executes
//! only the remaining stages. Because the config fingerprint covers only
//! *semantic* knobs (never thread counts, the parse cache, or the
//! recorder), a run may be resumed at a different parallelism or cache
//! setting and still produce byte-identical output: every stage operator
//! is deterministic over its checkpointed inputs.
//!
//! A corrupted checkpoint — or one from another checkpoint schema — is a
//! non-fatal diagnostic: the stage (and everything after it, whose
//! checkpoints are then stale) is simply re-run and re-checkpointed.

use crate::dedup::DedupStats;
use crate::detect::{AntipatternClass, AntipatternInstance};
use crate::fault;
use crate::mine::{MinedPatterns, PatternData, Session, Sessions};
use crate::parse_step::{ParseCacheStats, ParseStats, ParsedLog, ParsedRecord};
use crate::pipeline::{DetectOutput, Pipeline, PipelineResult};
use crate::solve::ChosenRewrites;
use crate::stats::StageTimings;
use crate::store::{TemplateId, TemplateStore};
use sqlog_catalog::Catalog;
use sqlog_log::{AtomicFile, IngestPolicy, IngestStats, LogView, QueryLog};
use sqlog_obs::{Json, Recorder, SpanId};
use sqlog_skeleton::{
    Fingerprint, Fnv1a, OutputColumns, PredicateKind, PredicateProfile, QueryTemplate, Theta,
    ValueKind,
};
use sqlog_sql::StatementKind;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Version written into every manifest.
pub const MANIFEST_SCHEMA: u64 = 1;
/// Version written into every checkpoint header.
pub const CHECKPOINT_SCHEMA: u64 = 2;

/// The checkpointable pipeline stages, in execution order.
///
/// `sort` is not a stage of its own: it is a cheap, deterministic
/// permutation whose only consumer is dedup, and the dedup checkpoint
/// stores base-log indices — so a resume past dedup never needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Reading (and optionally quarantining) the input log.
    Ingest,
    /// Duplicate elimination (§5.2).
    Dedup,
    /// Parsing + template interning (§5.3).
    Parse,
    /// Per-user session building (Def. 7).
    Sessions,
    /// Pattern mining (Defs. 8–10).
    Mine,
    /// Antipattern detection (Defs. 11–16 + extensions).
    Detect,
    /// Solving / rewriting (§5.5).
    Solve,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Ingest,
        Stage::Dedup,
        Stage::Parse,
        Stage::Sessions,
        Stage::Mine,
        Stage::Detect,
        Stage::Solve,
    ];

    /// The stage's checkpoint-file stem and fault-injection name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Dedup => "dedup",
            Stage::Parse => "parse",
            Stage::Sessions => "sessions",
            Stage::Mine => "mine",
            Stage::Detect => "detect",
            Stage::Solve => "solve",
        }
    }

    /// Parses a stage name (the inverse of [`Stage::name`]).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The per-stage checkpoint-payload byte counter (recorder counters
    /// are keyed by `&'static str`, hence the explicit map).
    pub fn bytes_counter(self) -> &'static str {
        match self {
            Stage::Ingest => "checkpoint.bytes.ingest",
            Stage::Dedup => "checkpoint.bytes.dedup",
            Stage::Parse => "checkpoint.bytes.parse",
            Stage::Sessions => "checkpoint.bytes.sessions",
            Stage::Mine => "checkpoint.bytes.mine",
            Stage::Detect => "checkpoint.bytes.detect",
            Stage::Solve => "checkpoint.bytes.solve",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The run-identity record at `DIR/MANIFEST.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest format version ([`MANIFEST_SCHEMA`]).
    pub schema: u64,
    /// Fingerprint of the semantic configuration + catalog
    /// ([`config_fingerprint`]). Execution knobs (threads, parse cache)
    /// are deliberately excluded — resuming at a different parallelism is
    /// supported and byte-identical.
    pub config_fingerprint: u64,
    /// Input file length in bytes.
    pub input_bytes: u64,
    /// FNV-1a 64 hash of the input file contents.
    pub input_fnv: u64,
    /// Ingestion policy of the run (`strict` / `lenient`).
    pub ingest_policy: IngestPolicy,
    /// Times this run was started (initial run + every resume).
    pub attempts: u64,
    /// Resumes of an incomplete run — i.e. starts that followed an
    /// interruption. Surfaced as `RunHealth::interruptions`.
    pub interruptions: u64,
    /// Set once the run's final artifacts were written.
    pub completed: bool,
}

fn policy_name(p: IngestPolicy) -> &'static str {
    match p {
        IngestPolicy::Strict => "strict",
        IngestPolicy::Lenient => "lenient",
    }
}

fn policy_from_name(s: &str) -> Option<IngestPolicy> {
    match s {
        "strict" => Some(IngestPolicy::Strict),
        "lenient" => Some(IngestPolicy::Lenient),
        _ => None,
    }
}

impl Manifest {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(self.schema)),
            ("config_fingerprint", Json::U64(self.config_fingerprint)),
            ("input_bytes", Json::U64(self.input_bytes)),
            ("input_fnv", Json::U64(self.input_fnv)),
            (
                "ingest_policy",
                Json::Str(policy_name(self.ingest_policy).to_string()),
            ),
            ("attempts", Json::U64(self.attempts)),
            ("interruptions", Json::U64(self.interruptions)),
            ("completed", Json::Bool(self.completed)),
        ])
    }

    fn from_json(v: &Json) -> Result<Manifest, String> {
        Ok(Manifest {
            schema: get_u64(v, "schema")?,
            config_fingerprint: get_u64(v, "config_fingerprint")?,
            input_bytes: get_u64(v, "input_bytes")?,
            input_fnv: get_u64(v, "input_fnv")?,
            ingest_policy: policy_from_name(get_str(v, "ingest_policy")?)
                .ok_or("manifest: unknown ingest_policy")?,
            attempts: get_u64(v, "attempts")?,
            interruptions: get_u64(v, "interruptions")?,
            completed: get_bool(v, "completed")?,
        })
    }
}

/// A run directory on disk: manifest + checkpoints + sidecars.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Creates (or re-initializes) a run directory for a **fresh** run.
    /// Everything a previous run left in the directory's layout is
    /// removed — the manifest, the whole `checkpoints/` subdirectory
    /// (including temp files a crash mid-write left behind) and the
    /// default quarantine sidecar — so the run starts empty. Other files
    /// in the directory are left alone. Use [`RunDir::open`] to resume
    /// instead.
    pub fn create(root: impl AsRef<Path>) -> Result<RunDir, String> {
        let dir = RunDir {
            root: root.as_ref().to_path_buf(),
        };
        let cleared = |path: &Path, removed: std::io::Result<()>| match removed {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(format!(
                "cannot clear {} for a fresh run: {e}",
                path.display()
            )),
            _ => Ok(()),
        };
        let checkpoints = dir.checkpoints_dir();
        cleared(&checkpoints, std::fs::remove_dir_all(&checkpoints))?;
        for file in [dir.manifest_path(), dir.quarantine_path()] {
            let mut tmp = file.clone().into_os_string();
            tmp.push(".tmp");
            for path in [file, PathBuf::from(tmp)] {
                cleared(&path, std::fs::remove_file(&path))?;
            }
        }
        std::fs::create_dir_all(&checkpoints)
            .map_err(|e| format!("cannot create run directory {}: {e}", dir.root.display()))?;
        Ok(dir)
    }

    /// Opens an existing run directory for `--resume`. Fails when the
    /// directory or its manifest is missing.
    pub fn open(root: impl AsRef<Path>) -> Result<RunDir, String> {
        let dir = RunDir {
            root: root.as_ref().to_path_buf(),
        };
        if !dir.manifest_path().is_file() {
            return Err(format!(
                "{} is not a run directory (no MANIFEST.json) — was it created with --run-dir?",
                dir.root.display()
            ));
        }
        std::fs::create_dir_all(dir.checkpoints_dir())
            .map_err(|e| format!("cannot open run directory {}: {e}", dir.root.display()))?;
        Ok(dir)
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("MANIFEST.json")
    }

    fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    /// Path of a stage's checkpoint file.
    pub fn checkpoint_path(&self, stage: Stage) -> PathBuf {
        self.checkpoints_dir()
            .join(format!("{}.ckpt", stage.name()))
    }

    /// Default location of the lenient-mode quarantine sidecar.
    pub fn quarantine_path(&self) -> PathBuf {
        self.root.join("quarantine.tsv")
    }

    /// Reads and parses the manifest.
    pub fn load_manifest(&self) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(self.manifest_path())
            .map_err(|e| format!("cannot read {}: {e}", self.manifest_path().display()))?;
        let v = Json::parse(&text).map_err(|e| format!("manifest: {e}"))?;
        Manifest::from_json(&v)
    }

    /// Writes the manifest atomically.
    pub fn store_manifest(&self, m: &Manifest) -> Result<(), String> {
        sqlog_log::atomic_write(self.manifest_path(), m.to_json().render().as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", self.manifest_path().display()))
    }

    /// Marks the run complete (final artifacts written). Called by the
    /// binary after the clean/removal logs and reports landed.
    pub fn mark_completed(&self) -> Result<(), String> {
        let mut m = self.load_manifest()?;
        m.completed = true;
        self.store_manifest(&m)
    }
}

/// How a checkpointed run is driven.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// The input log file (hashed into the manifest).
    pub input: PathBuf,
    /// Ingestion policy (recorded in the manifest; a resume must match).
    pub policy: IngestPolicy,
    /// Lenient-mode quarantine sidecar destination, written atomically.
    pub quarantine: Option<PathBuf>,
    /// `true` = `--resume`: validate the manifest and load checkpoints.
    /// `false` = fresh run: write a new manifest, checkpoint every stage.
    pub resume: bool,
    /// Stop (successfully) after this stage's checkpoint is on disk —
    /// the hook behind the conformance resumed leg and the in-process
    /// resume tests. `None` runs to completion.
    pub stop_after: Option<Stage>,
}

/// Everything a completed checkpointed run produces.
pub struct CheckpointOutcome {
    /// The pipeline result; `stats.run_health` already carries the
    /// ingestion counts and the interruption tally.
    pub result: PipelineResult,
    /// Ingestion accounting (from the live read or the ingest checkpoint).
    pub ingest_stats: IngestStats,
    /// Stages loaded from checkpoints instead of re-executed.
    pub loaded_stages: Vec<&'static str>,
    /// Non-fatal diagnostics (e.g. a corrupted checkpoint that forced a
    /// stage re-run). Also routed through the recorder as warnings.
    pub warnings: Vec<String>,
}

/// Fingerprint of the **semantic** configuration plus the catalog: every
/// knob that can change pipeline output, and none that cannot.
/// `parallelism`, the parse cache and the recorder are
/// excluded by design — the determinism contract says they never change a
/// byte of output, so they must not block a resume.
pub fn config_fingerprint(config: &crate::config::PipelineConfig, catalog: &Catalog) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "v1;dup={:?};gap={};ngram={};minfreq={};cthgap={};cthla={};key={};addcol={};\
         depth={};bytes={};tokens={};",
        config.duplicate_threshold_ms,
        config.session_gap_ms,
        config.max_ngram,
        config.min_pattern_frequency,
        config.cth_max_gap_ms,
        config.cth_lookahead,
        config.require_key_attribute,
        config.rewrite_adds_filter_column,
        config.max_parse_depth,
        config.max_statement_bytes,
        config.max_parse_tokens,
    );
    let mut tables: Vec<_> = catalog.tables().collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    for t in tables {
        let _ = write!(s, "table={};", t.name);
        for c in &t.columns {
            let _ = write!(s, "col={}:{:?};", c.name, c.ty);
        }
        for k in &t.primary_key {
            let _ = write!(s, "pk={k};");
        }
        for fk in &t.foreign_keys {
            let _ = write!(s, "fk={}->{}.{};", fk.column, fk.ref_table, fk.ref_column);
        }
    }
    Fingerprint::of_str(&s).0
}

/// Streams a file through FNV-1a 64, returning `(length, hash)`.
pub fn hash_file(path: &Path) -> Result<(u64, u64), String> {
    let mut f =
        std::fs::File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut hasher = Fnv1a::new();
    let mut len = 0u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f
            .read(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if n == 0 {
            break;
        }
        len += n as u64;
        hasher.update(&buf[..n]);
    }
    Ok((len, hasher.finish().0))
}

// ---------------------------------------------------------------------------
// JSON helpers for the manifest and the checkpoint header line (the
// vendored serde is a no-op; serialization is explicit, in the style of
// `run_report`).

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key:?}"))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-boolean {key:?}"))
}

// ---------------------------------------------------------------------------
// The payload codec

/// A value with a checkpoint-payload encoding.
///
/// The wire format is plain: integers are unsigned LEB128 varints, strings
/// and sequences carry a varint length prefix, and enum variants a one-byte
/// tag. Values encode straight into the payload buffer and decode straight
/// from the file's bytes, with no intermediate tree. Every read is
/// bounds-checked, so damaged bytes decode to an error, never to a panic
/// or an allocation out of proportion to the payload.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `w`.
    fn put(&self, w: &mut Vec<u8>);

    /// Decodes one value from the front of `r`.
    fn get(r: &mut WireReader<'_>) -> Result<Self, String>;

    /// The encoding of `self` as a standalone payload.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Vec::new();
        self.put(&mut w);
        w
    }

    /// Decodes a standalone payload; trailing bytes are an error.
    fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        let mut r = WireReader::new(bytes);
        let v = Self::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// A bounds-checked cursor over [`Wire`]-encoded bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Fails unless every byte was consumed.
    pub fn finish(self) -> Result<(), String> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the payload")),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.buf.len() {
            return Err(format!(
                "truncated payload: {n} bytes wanted, {} left",
                self.buf.len()
            ));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if (bits << shift) >> shift != bits {
                return Err("varint overflows 64 bits".to_string());
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes".to_string())
    }

    /// A length prefix. Every encoded element takes at least one byte, so
    /// a length beyond the bytes left is damage, not a size to allocate.
    fn len(&mut self) -> Result<usize, String> {
        let n = usize::get(self)?;
        if n > self.buf.len() {
            return Err(format!(
                "length {n} exceeds the {} bytes left",
                self.buf.len()
            ));
        }
        Ok(n)
    }
}

fn put_varint(w: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        w.push(v as u8 | 0x80);
        v >>= 7;
    }
    w.push(v as u8);
}

/// [`Wire`] for unsigned integers: one varint, range-checked on decode.
macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                put_varint(w, *self as u64);
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
                <$ty>::try_from(r.varint()?).map_err(|e| e.to_string())
            }
        }
    )*};
}

wire_uint!(u64, u32, usize);

impl Wire for bool {
    fn put(&self, w: &mut Vec<u8>) {
        w.push(u8::from(*self));
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bool byte {b}")),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut Vec<u8>) {
        put_varint(w, self.len() as u64);
        w.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        let n = r.len()?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| "string is not UTF-8".to_string())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            None => w.push(0),
            Some(v) => {
                w.push(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(format!("option tag {b}")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        put_varint(w, self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        // Exact capacity: a decoded log holds hundreds of thousands of
        // small vectors, and growth slack would cost more than the data.
        let n = r.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Map entries are written in the order of their keys' encodings, so
/// equal maps encode to equal bytes whatever their iteration order.
impl<K: Wire + Eq + Hash, V: Wire, S: BuildHasher + Default> Wire for HashMap<K, V, S> {
    fn put(&self, w: &mut Vec<u8>) {
        let mut entries: Vec<(Vec<u8>, &V)> = self.iter().map(|(k, v)| (k.to_wire(), v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        put_varint(w, entries.len() as u64);
        for (key, v) in entries {
            w.extend_from_slice(&key);
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        let n = r.len()?;
        let mut map = HashMap::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            let key = K::get(r)?;
            if map.insert(key, V::get(r)?).is_some() {
                return Err("duplicate map key".to_string());
            }
        }
        Ok(map)
    }
}

/// A set is the map from its elements to nothing.
impl<T: Wire + Eq + Hash, S: BuildHasher + Default> Wire for HashSet<T, S> {
    fn put(&self, w: &mut Vec<u8>) {
        let mut elems: Vec<Vec<u8>> = self.iter().map(Wire::to_wire).collect();
        elems.sort_unstable();
        put_varint(w, elems.len() as u64);
        for e in elems {
            w.extend_from_slice(&e);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        let n = r.len()?;
        let mut set = HashSet::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            if !set.insert(T::get(r)?) {
                return Err("duplicate set element".to_string());
            }
        }
        Ok(set)
    }
}

impl Wire for TemplateId {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        Ok(TemplateId(u32::get(r)?))
    }
}

impl Wire for Fingerprint {
    fn put(&self, w: &mut Vec<u8>) {
        self.0.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
        Ok(Fingerprint(u64::get(r)?))
    }
}

/// [`Wire`] for structs: the fields in the order listed. `get` builds a
/// struct literal, so a field added to a type but not listed here fails
/// to compile instead of silently dropping out of checkpoints.
macro_rules! wire_struct {
    ($($ty:ty { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
                Ok(Self { $($field: Wire::get(r)?,)* })
            }
        }
    )*};
}

wire_struct! {
    IngestStats { lines, entries, quarantined, malformed, invalid_utf8 }
    DedupStats { input, removed, kept, poison, degraded_shards }
    QueryTemplate { ssc, sfc, swc, sc, fc, wc, tail, full, fingerprint, triple_fingerprint }
    PredicateProfile { conjuncts }
    OutputColumns { wildcard, names }
    ParsedRecord { entry_idx, template, profile, output, primary_table }
    ParseStats { total, selects, errors, limit_exceeded, poison, degraded_shards, non_select }
    ParseCacheStats { enabled, hits, misses, fallbacks, crosschecks }
    ParsedLog { records, stats, cache }
    Session { user, records }
    Sessions { sessions, user_names, poison, degraded_shards }
    PatternData { frequency, users }
    MinedPatterns { patterns, total_queries, poison_sessions, degraded_shards }
    AntipatternInstance { class, records, identity, marker_keys, solvable }
    DetectOutput { instances, poison_sessions, degraded_shards }
    ChosenRewrites { solved, skipped_overlaps }
}

/// [`Wire`] for enums: a tag byte, then the variant's fields in the order
/// listed. Covers unit, one-field tuple and struct variants; `put`'s match
/// is exhaustive, so a variant added to a type fails to compile here.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $variant:ident $(($inner:ident))? $({ $($field:ident),* })?),* $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($inner))? $({ $($field),* })? => {
                        w.push($tag);
                        $($inner.put(w);)?
                        $($($field.put(w);)*)?
                    })*
                }
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, String> {
                Ok(match r.byte()? {
                    $($tag => $ty::$variant
                        $(({ let $inner = Wire::get(r)?; $inner }))?
                        $({ $($field: Wire::get(r)?),* })?,)*
                    t => return Err(format!(concat!("unknown ", stringify!($ty), " tag {}"), t)),
                })
            }
        }
    )*};
}

wire_enum! {
    Theta { 0 => Eq, 1 => NotEq, 2 => Lt, 3 => LtEq, 4 => Gt, 5 => GtEq }
    StatementKind { 0 => Insert, 1 => Update, 2 => Delete, 3 => Ddl, 4 => Exec, 5 => Other }
    ValueKind {
        0 => Number(s),
        1 => String(s),
        2 => Null,
        3 => Bool(b),
        4 => Variable(s),
        5 => Column(s),
        6 => Complex,
    }
    PredicateKind {
        0 => Comparison { column, theta, value },
        1 => Between { column, low, high, negated },
        2 => InList { column, values, negated },
        3 => IsNull { column, negated },
        4 => Like { column, pattern, negated },
        5 => Other,
    }
    AntipatternClass {
        0 => DwStifle,
        1 => DsStifle,
        2 => DfStifle,
        3 => CthCandidate,
        4 => Snc,
        5 => Custom(name),
    }
}

// --- stage payloads that need more than their type's encoding ------------

/// Fails on the first index outside `0..bound`.
fn check_bounds(
    indices: impl IntoIterator<Item = usize>,
    bound: usize,
    what: &str,
) -> Result<(), String> {
    match indices.into_iter().find(|&i| i >= bound) {
        Some(bad) => Err(format!("{what} {bad} out of bounds (< {bound})")),
        None => Ok(()),
    }
}

/// The parse payload: the templates in id order (a `Vec<QueryTemplate>`
/// on the wire, encoded straight from the store), then the parsed log.
fn put_parse(store: &TemplateStore, parsed: &ParsedLog, w: &mut Vec<u8>) {
    put_varint(w, store.len() as u64);
    for i in 0..store.len() {
        store.with(TemplateId(i as u32), |t| t.put(w));
    }
    parsed.put(w);
}

fn get_parse(
    r: &mut WireReader<'_>,
    pre_clean_len: usize,
    rec: &Recorder,
) -> Result<(TemplateStore, ParsedLog), String> {
    let store = TemplateStore::with_recorder(rec.clone());
    for i in 0..r.len()? {
        let id = store.intern(QueryTemplate::get(r)?);
        if id != TemplateId(i as u32) {
            return Err(format!(
                "template {i} interned as id {} — duplicate fingerprint in checkpoint",
                id.0
            ));
        }
    }
    let parsed = ParsedLog::get(r)?;
    let records = &parsed.records;
    check_bounds(
        records.iter().map(|p| p.entry_idx as usize),
        pre_clean_len,
        "record entry_idx",
    )?;
    check_bounds(
        records.iter().map(|p| p.template.0 as usize),
        store.len(),
        "record template id",
    )?;
    Ok((store, parsed))
}

// ---------------------------------------------------------------------------
// Checkpoint file I/O

/// Writes a stage checkpoint atomically: header line (stage, schema,
/// payload length, payload FNV-1a) + payload, via temp file + fsync +
/// rename. The `checkpoint.write` span covers encoding, hashing and
/// writing. The `checkpoint`-stage fault hook fires *between* writing the
/// temp file and the rename — the window where a real crash leaves a torn
/// temp file but an intact (absent or previous) checkpoint.
fn write_checkpoint(
    dir: &RunDir,
    rec: &Recorder,
    stage: Stage,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), String> {
    let t = Instant::now();
    let mut span = rec.span("checkpoint.write");
    span.field("stage", stage.name());
    let mut body = Vec::new();
    encode(&mut body);
    let mut fnv = Fnv1a::new();
    fnv.update(&body);
    let header = Json::obj(vec![
        ("stage", Json::Str(stage.name().to_string())),
        ("schema", Json::U64(CHECKPOINT_SCHEMA)),
        ("payload_bytes", Json::U64(body.len() as u64)),
        ("payload_fnv", Json::U64(fnv.finish().0)),
    ])
    .render();
    let total = (header.len() + 1 + body.len()) as u64;
    span.field("bytes", total);
    let path = dir.checkpoint_path(stage);
    let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut f = AtomicFile::create(&path).map_err(err)?;
    f.write_all(header.as_bytes()).map_err(err)?;
    f.write_all(b"\n").map_err(err)?;
    f.write_all(&body).map_err(err)?;
    // Chaos hook: die after the bytes exist but before they become the
    // checkpoint. Marker = stage name.
    fault::trip(&fault::armed("checkpoint"), stage.name());
    f.commit().map_err(err)?;
    rec.counter("checkpoint.writes", 1);
    rec.counter("checkpoint.bytes_written", total);
    rec.counter(stage.bytes_counter(), total);
    rec.histogram("checkpoint.write_us", t.elapsed().as_micros() as u64);
    Ok(())
}

/// Reads, verifies and decodes a stage checkpoint under one
/// `checkpoint.load` span. `Ok(None)` = not present (the stage was never
/// completed); `Err` = present but unusable (torn write, corruption,
/// schema drift, a payload that does not decode or does not fit the
/// stages before it) — the caller reports it and re-runs the stage.
fn read_checkpoint<T>(
    dir: &RunDir,
    rec: &Recorder,
    stage: Stage,
    decode: impl FnOnce(&mut WireReader<'_>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let path = dir.checkpoint_path(stage);
    let mut file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let t = Instant::now();
    let mut span = rec.span("checkpoint.load");
    span.field("stage", stage.name());
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    span.field("bytes", bytes.len() as u64);
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("truncated checkpoint (no header line)")?;
    let header_text =
        std::str::from_utf8(&bytes[..nl]).map_err(|_| "checkpoint header is not UTF-8")?;
    let header = Json::parse(header_text).map_err(|e| format!("checkpoint header: {e}"))?;
    let schema = get_u64(&header, "schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(format!(
            "unsupported checkpoint schema {schema} (expected {CHECKPOINT_SCHEMA})"
        ));
    }
    let named = get_str(&header, "stage")?;
    if named != stage.name() {
        return Err(format!(
            "checkpoint file names stage {named:?}, expected {:?}",
            stage.name()
        ));
    }
    let body = &bytes[nl + 1..];
    let declared = get_u64(&header, "payload_bytes")?;
    if declared != body.len() as u64 {
        return Err(format!(
            "payload is {} bytes, header declares {declared} (torn write?)",
            body.len()
        ));
    }
    let mut fnv = Fnv1a::new();
    fnv.update(body);
    let (fnv, declared_fnv) = (fnv.finish().0, get_u64(&header, "payload_fnv")?);
    if fnv != declared_fnv {
        return Err(format!(
            "payload hash {fnv:#018x} does not match header {declared_fnv:#018x} (corrupted?)"
        ));
    }
    let mut r = WireReader::new(body);
    let v = decode(&mut r).map_err(|e| format!("checkpoint payload: {e}"))?;
    r.finish().map_err(|e| format!("checkpoint payload: {e}"))?;
    rec.counter("checkpoint.loads", 1);
    rec.histogram("checkpoint.load_us", t.elapsed().as_micros() as u64);
    Ok(Some(v))
}

// ---------------------------------------------------------------------------
// The checkpointed driver

/// Bookkeeping shared by every stage of the driver: which stages were
/// loaded, what went wrong non-fatally, whether the checkpoint chain is
/// still intact (once one stage re-runs, later checkpoints are stale and
/// must not be loaded), and the time checkpointing cost.
struct Progress<'a> {
    dir: &'a RunDir,
    rec: &'a Recorder,
    chain_intact: bool,
    loaded_stages: Vec<&'static str>,
    warnings: Vec<String>,
    /// Hashing the input, the manifest, and writing and loading
    /// checkpoints: the `checkpoint_ms` column.
    checkpoint_time: Duration,
}

impl Progress<'_> {
    /// Loads `stage`'s checkpoint while the chain is intact. Any failure
    /// breaks the chain: this stage and everything after it re-run.
    fn load<T>(
        &mut self,
        stage: Stage,
        decode: impl FnOnce(&mut WireReader<'_>) -> Result<T, String>,
    ) -> Option<T> {
        if !self.chain_intact {
            return None;
        }
        let t = Instant::now();
        let loaded = read_checkpoint(self.dir, self.rec, stage, decode);
        self.checkpoint_time += t.elapsed();
        match loaded {
            Ok(Some(v)) => Some(v),
            Ok(None) => {
                self.chain_intact = false;
                None
            }
            Err(e) => {
                self.discard(stage, e);
                None
            }
        }
    }

    /// Writes `stage`'s checkpoint.
    fn store(&mut self, stage: Stage, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), String> {
        let t = Instant::now();
        let written = write_checkpoint(self.dir, self.rec, stage, encode);
        self.checkpoint_time += t.elapsed();
        written
    }

    /// Records a loaded (= skipped) stage.
    fn skipped(&mut self, stage: Stage) {
        self.rec.counter("resume.skip_stage", 1);
        self.rec.stage_skipped(stage.name());
        self.loaded_stages.push(stage.name());
    }

    /// Reports an unusable checkpoint and breaks the chain.
    fn discard(&mut self, stage: Stage, e: String) {
        let msg = format!("checkpoint {}: {e}; re-running the stage", stage.name());
        eprintln!("warning: {msg}");
        self.rec.warning(msg.clone());
        self.warnings.push(msg);
        self.chain_intact = false;
    }
}

/// Loads a stage from its checkpoint or computes + checkpoints it.
///
/// Not a method — the decode/compute closures need to borrow stage outputs
/// the driver owns, which a `&mut self` method would lock away.
fn stage_step<T>(
    progress: &mut Progress<'_>,
    stage: Stage,
    decode: impl FnOnce(&mut WireReader<'_>) -> Result<T, String>,
    compute: impl FnOnce() -> T,
    encode: impl FnOnce(&T, &mut Vec<u8>),
    stage_ms: &mut u64,
) -> Result<T, String> {
    if let Some(v) = progress.load(stage, decode) {
        progress.skipped(stage);
        return Ok(v);
    }
    let t = Instant::now();
    let v = compute();
    *stage_ms = t.elapsed().as_millis() as u64;
    progress.store(stage, |w| encode(&v, w))?;
    Ok(v)
}

/// Validates (on `--resume`) or writes (fresh run) the manifest.
fn open_manifest(
    pipeline: &Pipeline<'_>,
    dir: &RunDir,
    opts: &CheckpointOptions,
) -> Result<Manifest, String> {
    let cfg_fp = config_fingerprint(&pipeline.config, pipeline.catalog);
    let (input_bytes, input_fnv) = hash_file(&opts.input)?;
    if !opts.resume {
        let m = Manifest {
            schema: MANIFEST_SCHEMA,
            config_fingerprint: cfg_fp,
            input_bytes,
            input_fnv,
            ingest_policy: opts.policy,
            attempts: 1,
            interruptions: 0,
            completed: false,
        };
        dir.store_manifest(&m)?;
        return Ok(m);
    }
    let mut m = dir.load_manifest()?;
    if m.schema != MANIFEST_SCHEMA {
        return Err(format!(
            "cannot resume {}: manifest schema {} (this build expects {MANIFEST_SCHEMA})",
            dir.root().display(),
            m.schema
        ));
    }
    if m.config_fingerprint != cfg_fp {
        return Err(format!(
            "cannot resume {}: the run was started with a different configuration \
             (manifest fingerprint {:#018x}, current {cfg_fp:#018x}); re-run with the \
             original semantic options and schema, or start fresh with --run-dir",
            dir.root().display(),
            m.config_fingerprint
        ));
    }
    if m.input_bytes != input_bytes || m.input_fnv != input_fnv {
        return Err(format!(
            "cannot resume {}: input {} has changed since the run started \
             (manifest: {} bytes, fnv {:#018x}; now: {input_bytes} bytes, \
             fnv {input_fnv:#018x}); resume needs the identical input file",
            dir.root().display(),
            opts.input.display(),
            m.input_bytes,
            m.input_fnv
        ));
    }
    if m.ingest_policy != opts.policy {
        return Err(format!(
            "cannot resume {}: the run used {} ingestion, this invocation asks for {}",
            dir.root().display(),
            policy_name(m.ingest_policy),
            policy_name(opts.policy)
        ));
    }
    m.attempts += 1;
    if !m.completed {
        m.interruptions += 1;
    }
    dir.store_manifest(&m)?;
    Ok(m)
}

/// Drives the pipeline's stage operators over a run directory: each stage
/// is either loaded from its (validated) checkpoint or executed and
/// checkpointed. Returns `Ok(None)` when [`CheckpointOptions::stop_after`]
/// ended the run early; otherwise the completed [`CheckpointOutcome`].
///
/// Fatal errors (unreadable input, manifest mismatch, unwritable run
/// directory) are `Err`; a corrupted or torn checkpoint is *not* fatal —
/// it is reported and the stage re-runs.
pub fn run_checkpointed(
    pipeline: &Pipeline<'_>,
    dir: &RunDir,
    opts: &CheckpointOptions,
) -> Result<Option<CheckpointOutcome>, String> {
    let t_total = Instant::now();
    let rec = pipeline.config.recorder.clone();
    let manifest = open_manifest(pipeline, dir, opts)?;
    let mut progress = Progress {
        dir,
        rec: &rec,
        // Only a resume consults checkpoints; a fresh run starts with the
        // chain already broken (RunDir::create cleared them anyway).
        chain_intact: opts.resume,
        loaded_stages: Vec::new(),
        warnings: Vec::new(),
        checkpoint_time: t_total.elapsed(),
    };
    let mut timings = StageTimings::default();
    let stop = |stage: Stage| opts.stop_after == Some(stage);

    // --- ingest --- The checkpoint holds only the ingest statistics: the
    // entries are always re-read from the input, whose length and hash the
    // manifest pins, and must reproduce those statistics. Not a
    // `stage_step`: reading is fallible, and a failed read must never leave
    // a checkpoint behind.
    let stored = progress.load(Stage::Ingest, IngestStats::get);
    let t = Instant::now();
    let (log, ingest_stats) = {
        rec.stage_begin("ingest", 0);
        let span = rec.span("ingest");
        ingest_input(opts, pipeline.config.parallelism, &rec, span.id())?
    };
    timings.ingest_ms = t.elapsed().as_millis() as u64;
    match stored {
        Some(s) if s == ingest_stats => progress.loaded_stages.push(Stage::Ingest.name()),
        stored => {
            if let Some(s) = stored {
                progress.discard(
                    Stage::Ingest,
                    format!("recorded {s:?}, but the input reads as {ingest_stats:?}"),
                );
            }
            progress.store(Stage::Ingest, |w| ingest_stats.put(w))?;
        }
    }
    if stop(Stage::Ingest) {
        return Ok(None);
    }

    // --- dedup (sort is folded in: the checkpoint stores base indices) ---
    let (kept, dedup_stats) = stage_step(
        &mut progress,
        Stage::Dedup,
        |r| {
            let (kept, stats) = <(Vec<u32>, DedupStats)>::get(r)?;
            check_bounds(kept.iter().map(|&i| i as usize), log.len(), "kept index")?;
            if stats.kept != kept.len() {
                return Err("kept count disagrees with index vector".to_string());
            }
            Ok((kept, stats))
        },
        || {
            let t = Instant::now();
            let input = pipeline.op_sort(&log);
            timings.sort_ms = t.elapsed().as_millis() as u64;
            let (view, stats) = pipeline.op_dedup(&input);
            let kept: Vec<u32> = (0..view.len()).map(|i| view.base_index(i) as u32).collect();
            (kept, stats)
        },
        |v, w| v.put(w),
        &mut timings.dedup_ms,
    )?;
    // The sort ran inside the dedup step but has its own column.
    timings.dedup_ms = timings.dedup_ms.saturating_sub(timings.sort_ms);
    let pre_clean = LogView::from_indices(&log, kept);
    if stop(Stage::Dedup) {
        return Ok(None);
    }

    // --- parse ---
    let (store, parsed) = stage_step(
        &mut progress,
        Stage::Parse,
        |r| get_parse(r, pre_clean.len(), &rec),
        || {
            let store = TemplateStore::with_recorder(rec.clone());
            let parsed = pipeline.op_parse(&pre_clean, &store);
            (store, parsed)
        },
        |(store, parsed), w| put_parse(store, parsed, w),
        &mut timings.parse_ms,
    )?;
    if stop(Stage::Parse) {
        return Ok(None);
    }
    let n_records = parsed.records.len();

    // --- sessions ---
    let sessions = stage_step(
        &mut progress,
        Stage::Sessions,
        |r| {
            let s = Sessions::get(r)?;
            let sessions = &s.sessions;
            check_bounds(
                sessions.iter().map(|s| s.user as usize),
                s.user_names.len(),
                "session user id",
            )?;
            check_bounds(
                sessions.iter().flat_map(|s| s.records.iter().copied()),
                n_records,
                "session record index",
            )?;
            Ok(s)
        },
        || pipeline.op_sessions(&pre_clean, &parsed.records),
        |v, w| v.put(w),
        &mut timings.sessions_ms,
    )?;
    if stop(Stage::Sessions) {
        return Ok(None);
    }

    // --- mine ---
    let mined = stage_step(
        &mut progress,
        Stage::Mine,
        MinedPatterns::get,
        || pipeline.op_mine(&sessions, &parsed.records),
        |v, w| v.put(w),
        &mut timings.mine_ms,
    )?;
    if stop(Stage::Mine) {
        return Ok(None);
    }

    // --- detect ---
    let detected = stage_step(
        &mut progress,
        Stage::Detect,
        |r| {
            let d = DetectOutput::get(r)?;
            check_bounds(
                d.instances.iter().flat_map(|i| i.records.iter().copied()),
                n_records,
                "instance record index",
            )?;
            Ok(d)
        },
        || pipeline.op_detect(&pre_clean, &parsed.records, &sessions, &store),
        |v, w| v.put(w),
        &mut timings.detect_ms,
    )?;
    if stop(Stage::Detect) {
        return Ok(None);
    }

    // --- solve --- The checkpoint holds the solvers' choices, written
    // between choosing and assembling; a load re-assembles the clean and
    // removal logs with the same code a live run ends with.
    let loaded = progress.load(Stage::Solve, |r| {
        let chosen = ChosenRewrites::get(r)?;
        pipeline.op_solve_replay(
            &pre_clean,
            &parsed.records,
            &sessions,
            &store,
            &detected,
            chosen,
        )
    });
    let outcome = match loaded {
        Some(outcome) => {
            progress.skipped(Stage::Solve);
            outcome
        }
        None => {
            let t = Instant::now();
            let before = progress.checkpoint_time;
            let outcome = pipeline.op_solve_with(
                &pre_clean,
                &parsed.records,
                &sessions,
                &store,
                &detected,
                |chosen| progress.store(Stage::Solve, |w| chosen.put(w)),
            )?;
            let stored = progress.checkpoint_time - before;
            timings.solve_ms = t.elapsed().saturating_sub(stored).as_millis() as u64;
            outcome
        }
    };
    if stop(Stage::Solve) {
        return Ok(None);
    }

    timings.checkpoint_ms = progress.checkpoint_time.as_millis() as u64;
    timings.total_ms = t_total.elapsed().as_millis() as u64;
    let mut result = pipeline.assemble(
        log.len(),
        &pre_clean,
        &dedup_stats,
        parsed,
        &sessions,
        mined,
        detected,
        outcome,
        store,
        timings,
    );
    result.stats.run_health.quarantined_lines = ingest_stats.quarantined;
    result.stats.run_health.invalid_utf8_lines = ingest_stats.invalid_utf8;
    result.stats.run_health.interruptions = manifest.interruptions as usize;
    Ok(Some(CheckpointOutcome {
        result,
        ingest_stats,
        loaded_stages: progress.loaded_stages,
        warnings: progress.warnings,
    }))
}

/// Reads the input under the run's ingest policy — segmented and parallel
/// (`threads` segments, 0 = one per core), byte-identical to the sequential
/// reader — streaming quarantined lines into an atomically-written sidecar.
/// The `ingest`-stage fault hook trips on matching statements after the
/// read, inside the stage window.
fn ingest_input(
    opts: &CheckpointOptions,
    threads: usize,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Result<(QueryLog, IngestStats), String> {
    let mut sidecar = match &opts.quarantine {
        Some(path) => Some(
            AtomicFile::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let (log, stats) = crate::ingest::ingest_file_traced(
        &opts.input,
        opts.policy,
        threads,
        sidecar.as_mut().map(|w| w as &mut dyn Write),
        rec,
        parent,
    )
    .map_err(|e| format!("cannot read {}: {e}", opts.input.display()))?;
    if let Some(s) = sidecar {
        let path = s.path().to_path_buf();
        s.commit()
            .map_err(|e| format!("cannot write quarantine sidecar {}: {e}", path.display()))?;
    }
    let fault = fault::armed("ingest");
    if fault.is_some() {
        for e in &log.entries {
            fault::trip(&fault, &e.statement);
        }
    }
    Ok((log, stats))
}
